"""Symmetric eigendecomposition, eigenfunction matching, and decay-law fits.

Integral-operator spectra are computed from singular values of the half
factor (sigma_n^2 = mu_n), which resolves the exponential and
superexponential decay far below the ~1e-16 ||M|| floor of a direct
eigensolve.  IntegralSpectrum.resolved, the modes above SVD_FLOOR * mu_1,
is the one floor rule: decay fits and eigenfunction sweeps use only those.
Differential-operator spectra are each GalerkinOperator's own eigensystem.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

# eig_sym and SpectralDecomposition live in diff_ops and are re-exported here.
from .diff_ops import (GalerkinOperator, SpectralDecomposition, _read_only,
                       eig_sym)
from .errors import (Frozen, InsufficientDataError, InvalidArgumentError,
                     ModeRangeError)
# SVD_FLOOR and resolved_count, the one floor rule, live in integral_ops,
# whose refinement check reads them too; SVD_FLOOR is re-exported here.
from .integral_ops import SVD_FLOOR, OperatorMatrix, resolved_count

EXP_DECAY = "exp-decay"
SUPER_EXP = "super-exp"

# Galerkin eigenvalue k counts as converged when resolutions N and 2N agree
# to this relative tolerance, for k <= N/4.
CONVERGENCE_RTOL = 1e-8

DEFAULT_FIT_WINDOW = (2, 25)


class IntegralSpectrum(Frozen):
    """Descending eigenvalues mu_n of T*T, one per grid node, kept read-only."""

    __slots__ = ("eigenvalues",)

    def __init__(self, eigenvalues: np.ndarray):
        object.__setattr__(self, "eigenvalues", _read_only(eigenvalues))

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    @property
    def resolved(self) -> int:
        """Number of mu_n above SVD_FLOOR * mu_1: the leading modes, as mu descends."""
        return resolved_count(self.eigenvalues)


def decompose_operator(M: OperatorMatrix) -> IntegralSpectrum:
    """Spectrum of T*T: squared singular values of the half factor, as the
    matrix holds them, padded with exact zeros past the factor's rows.  The
    image-side rule, or a Cauchy factor's pivots, are sized to the resolved
    modes, not to n, so at large n most of the n modes are these zeros."""
    mu = M.singular_values ** 2
    return IntegralSpectrum(np.concatenate([mu, np.zeros(M.size - len(mu))]))


# ----------------------------------------------------------------------------
# Converged Galerkin modes
# ----------------------------------------------------------------------------

def converged_mode_count(op: GalerkinOperator) -> int:
    """Number of leading eigenvalues stable under N -> 2N refinement."""
    lam, lam2 = op.eigensystem.eigenvalues, op.refined_eigenvalues
    kmax = op.size // 4
    stable = np.abs(lam[:kmax] - lam2[:kmax]) <= CONVERGENCE_RTOL * np.abs(lam2[:kmax])
    return int(np.argmin(np.append(stable, False)))  # first unstable index


# ----------------------------------------------------------------------------
# Eigenfunction coincidence
# ----------------------------------------------------------------------------

class ModeMatch(NamedTuple):
    index: int
    lambda_diff: float
    rayleigh: float
    residual: float  # ||A^T (A v) - mu v|| / mu_1


class MatchReport(NamedTuple):
    records: tuple
    commutation_residual: float
    integral_source: str
    diff_source: str
    # Trial-space coefficients of the matched modes, one column per mode.
    vectors: np.ndarray

    def max_residual(self) -> float:
        return max(r.residual for r in self.records)

    @property
    def passed(self) -> bool:
        """Whether the match certifies coincidence: every matched mode's
        residual within 1e-6 and the commutation residual within 1e-8."""
        return self.max_residual() <= 1e-6 and self.commutation_residual <= 1e-8

    def to_json(self) -> dict:
        return {
            "integral": self.integral_source,
            "diff": self.diff_source,
            "commutation_residual": self.commutation_residual,
            "modes": [
                {"n": r.index, "lambda": r.lambda_diff,
                 "rayleigh": r.rayleigh, "residual": r.residual}
                for r in self.records
            ],
        }


def match_eigenfunctions(integral: OperatorMatrix, diff: GalerkinOperator,
                         m: int, converged: Optional[int] = None) -> MatchReport:
    """Rayleigh values and residuals of diff eigenvectors against T*T.

    T*T acts through its half factor A: a normalized mode v has Rayleigh
    value mu = ||A v||^2 and residual ||A^T (A v) - mu v|| / mu_1.  The
    commutation residual ||KS - SK||_F / (||K||_F ||S||_F), with
    K = (ABU)^T (ABU), is computed in the trial space, where the degenerate
    endpoint coefficients cause no discretization artifacts.  ABU and S are
    each scaled to a largest entry of 1 first, so that no norm leaves the
    float range on any interval; an all-zero one is refused by name.
    """
    if converged is None:
        converged = converged_mode_count(diff)
    if m > converged:
        raise ModeRangeError(f"requested {m} modes, only {converged} converged")
    dec = diff.eigensystem
    B = np.sqrt(integral.grid.weights)[:, None] * diff.basis.tables(integral.grid, (0,))[0]
    A = integral.half_factor
    op_norm = float(integral.singular_values[0] ** 2)
    records = []
    for n in range(m):
        v = B @ dec.eigenvectors[:, n]
        v = v / np.linalg.norm(v)
        Av = A @ v  # Rayleigh through the half factor resolves deep modes
        mu = float(np.dot(Av, Av))
        res = float(np.linalg.norm(A.T @ Av - mu * v)) / op_norm
        records.append(ModeMatch(n + 1, float(dec.eigenvalues[n]), mu, res))
    # Commutator on the matched eigenblock: non-converged Galerkin modes carry
    # no spectral claim and their norms would drown the signal.
    U = dec.eigenvectors[:, :m]
    ABU = _unit_peak(A @ (B @ U), f"{integral.kind.to_string()}: image of the matched modes")
    lam = np.diag(_unit_peak(dec.eigenvalues[:m], f"{diff.name} operator: matched eigenvalues"))
    K = ABU.T @ ABU
    comm = np.linalg.norm(K @ lam - lam @ K) / (np.linalg.norm(K) * np.linalg.norm(lam))
    return MatchReport(tuple(records), float(comm),
                       integral.kind.to_string(), diff.name, U)


def _unit_peak(block: np.ndarray, what: str) -> np.ndarray:
    """block divided by its largest-magnitude entry; an all-zero block is
    refused by name."""
    peak = np.max(np.abs(block))
    if not peak > 0:
        raise InvalidArgumentError(f"{what} is zero")
    return block / peak


# ----------------------------------------------------------------------------
# Decay and growth laws
# ----------------------------------------------------------------------------

class DecayFit(NamedTuple):
    model: str
    c1: float
    c2: float           # decay rate (exp model) or |slope| (superexp model)
    slope: float        # signed slope of log mu against the regressor
    r_squared: float
    n_range: tuple

    def to_json(self) -> dict:
        return {"model": self.model, "c1": self.c1, "c2": self.c2,
                "slope": self.slope, "r_squared": self.r_squared,
                "n_range": list(self.n_range)}


def fit_line(x, y) -> tuple[float, float, float]:
    """Least-squares line y = slope x + intercept: (slope, intercept, r^2).

    r^2 is clipped to [0, 1] and is 1 when y is constant.
    """
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), float(np.clip(r2, 0.0, 1.0))


def usable_modes(spec: IntegralSpectrum, n_range) -> np.ndarray:
    """1-based indices of the resolved modes inside the window."""
    lo, hi = n_range
    return np.arange(max(lo, 1), min(hi, spec.resolved) + 1)


def fit_decay(spec: IntegralSpectrum, model: str,
              n_range=DEFAULT_FIT_WINDOW) -> DecayFit:
    """Least-squares decay-law fit on the log spectrum.

    exp-decay:  log mu_n = log c1 - c2 n
    super-exp:  log mu_n = const + slope * (n log n)

    The spectrum must carry >= 8 modes above the solver floor; the requested
    window is then intersected with the usable modes (>= 4 points for a fit).
    """
    if spec.resolved < 8:
        raise InsufficientDataError("fewer than 8 modes above the solver floor")
    idx = usable_modes(spec, n_range)
    if len(idx) < 4:
        raise InsufficientDataError(
            f"only {len(idx)} usable modes in window {n_range}; need >= 4"
        )
    logmu = np.log(spec.eigenvalues[idx - 1])
    if model == EXP_DECAY:
        regressor = idx.astype(float)
    elif model == SUPER_EXP:
        regressor = idx * np.log(idx)
    else:
        raise InvalidArgumentError(f"unknown decay model: {model}")
    slope, intercept, r2 = fit_line(regressor, logmu)
    c2 = -slope if model == EXP_DECAY else abs(slope)
    if model == EXP_DECAY and c2 <= 0:
        raise InvalidArgumentError("spectrum is not decaying: fitted c2 <= 0")
    return DecayFit(model, float(np.exp(intercept)), c2, slope, r2,
                    (int(idx[0]), int(idx[-1])))


def growth_check(eigenvalues: np.ndarray, mode_count: Optional[int] = None) -> float:
    """min over modes of lambda_n / n^2 (ascending spectrum, 1-indexed)."""
    lam = eigenvalues[:mode_count]
    if len(lam) == 0:
        raise InsufficientDataError("growth check over an empty window: no modes")
    n = np.arange(1, len(lam) + 1, dtype=float)
    return float(np.min(lam / n ** 2))

