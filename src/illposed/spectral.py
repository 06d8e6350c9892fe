"""Symmetric eigendecomposition, eigenfunction matching, and decay-law fits.

Integral-operator spectra are computed from singular values of the half
factor (sigma_n^2 = mu_n), which resolves the exponential and
superexponential decay far below the ~1e-16 ||M|| floor of a direct
eigensolve.  IntegralSpectrum.resolved, the modes above SVD_FLOOR * mu_1,
is the one floor rule: decay fits and eigenfunction sweeps use only those.
Differential-operator spectra are each GalerkinOperator's own eigensystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# eig_sym and SpectralDecomposition live in diff_ops and are re-exported here.
from .diff_ops import (GalerkinOperator, SpectralDecomposition, _read_only,
                       eig_sym)
from .errors import (InsufficientDataError, InvalidArgumentError,
                     ModeRangeError)
from .integral_ops import OperatorMatrix

EXP_DECAY = "exp-decay"
SUPER_EXP = "super-exp"

# Modes below SVD_FLOOR * mu_1 are excluded from fits: the SVD of the half
# factor resolves sigma_n/sigma_1 down to ~1e-14, i.e. mu ratios to ~1e-28.
SVD_FLOOR = 1e-28

# Galerkin eigenvalue k counts as converged when resolutions N and 2N agree
# to this relative tolerance, for k <= N/4.
CONVERGENCE_RTOL = 1e-8

DEFAULT_FIT_WINDOW = (2, 25)


@dataclass(frozen=True)
class IntegralSpectrum:
    """Descending eigenvalues mu_n of T*T, one per grid node."""

    eigenvalues: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _read_only(self.eigenvalues))

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    @property
    def resolved(self) -> int:
        """Number of mu_n above SVD_FLOOR * mu_1: the leading modes, as mu descends."""
        return int(np.count_nonzero(self.eigenvalues > SVD_FLOOR * self.eigenvalues[0]))


def decompose_operator(M: OperatorMatrix) -> IntegralSpectrum:
    """Spectrum of T*T: squared singular values of the half factor, padded
    with exact zeros when the factor has fewer rows than M."""
    mu = M.singular_values ** 2
    return IntegralSpectrum(np.concatenate([mu, np.zeros(M.size - len(mu))]))


# ----------------------------------------------------------------------------
# Converged Galerkin modes
# ----------------------------------------------------------------------------

def converged_mode_count(op: GalerkinOperator) -> int:
    """Number of leading eigenvalues stable under N -> 2N refinement."""
    lam = op.eigensystem.eigenvalues
    lam2 = op.refined.eigensystem.eigenvalues
    kmax = op.size // 4
    stable = np.abs(lam[:kmax] - lam2[:kmax]) <= CONVERGENCE_RTOL * np.abs(lam2[:kmax])
    return int(np.argmin(np.append(stable, False)))  # first unstable index


# ----------------------------------------------------------------------------
# Eigenfunction coincidence
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeMatch:
    index: int
    lambda_diff: float
    rayleigh: float
    residual: float  # ||M u - mu u|| / ||M||_2


@dataclass(frozen=True)
class MatchReport:
    records: tuple
    commutation_residual: float
    integral_source: str
    diff_source: str
    # Trial-space coefficients of the matched modes, one column per mode.
    vectors: np.ndarray = field(repr=False, compare=False)

    def max_residual(self) -> float:
        return max(r.residual for r in self.records)

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


def basis_on_grid(diff: GalerkinOperator, grid) -> np.ndarray:
    """Trial-basis values at grid nodes, affinely mapped when domains differ."""
    x = grid.nodes
    bdom = diff.basis.domain
    gdom = grid.domain
    from .domains import Interval
    if isinstance(bdom, Interval) and isinstance(gdom, Interval) and bdom != gdom:
        x = bdom.a + (x - gdom.a) * (bdom.length / gdom.length)
    return diff.basis.values(x)


def match_eigenfunctions(integral: OperatorMatrix, diff: GalerkinOperator,
                         m: int, converged: Optional[int] = None) -> MatchReport:
    """Rayleigh values and residuals of diff eigenvectors against T*T.

    residuals are relative to ||M||_2; the commutation residual
    ||KS - SK||_F / (||K||_F ||S||_F) is computed in the trial space, where
    the degenerate endpoint coefficients cause no discretization artifacts.
    """
    if converged is None:
        converged = converged_mode_count(diff)
    if m > converged:
        raise ModeRangeError(f"requested {m} modes, only {converged} converged")
    dec = diff.eigensystem
    B = np.sqrt(integral.grid.weights)[:, None] * basis_on_grid(diff, integral.grid)
    M = integral.entries
    A = integral.half_factor
    op_norm = float(integral.singular_values[0] ** 2)
    records = []
    for n in range(m):
        v = B @ dec.eigenvectors[:, n]
        v = v / np.linalg.norm(v)
        Av = A @ v  # Rayleigh through the half factor resolves deep modes
        mu = float(np.dot(Av, Av))
        res = float(np.linalg.norm(M @ v - mu * v)) / op_norm
        records.append(ModeMatch(n + 1, float(dec.eigenvalues[n]), mu, res))
    # Commutator on the matched eigenblock: non-converged Galerkin modes carry
    # no spectral claim and their norms would drown the signal.
    U = dec.eigenvectors[:, :m]
    K = (B @ U).T @ M @ (B @ U)
    lam = np.diag(dec.eigenvalues[:m])
    comm = np.linalg.norm(K @ lam - lam @ K) / (np.linalg.norm(K) * np.linalg.norm(lam))
    return MatchReport(tuple(records), float(comm),
                       integral.kind.to_string(), diff.spec.tag, U)


# ----------------------------------------------------------------------------
# Decay and growth laws
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
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


def growth_check(dec: SpectralDecomposition, mode_count: Optional[int] = None) -> float:
    """min over modes of lambda_n / n^2 (ascending spectrum, 1-indexed)."""
    lam = dec.eigenvalues
    if mode_count is not None:
        lam = lam[:mode_count]
    n = np.arange(1, len(lam) + 1, dtype=float)
    return float(np.min(lam / n ** 2))


def spectrum_to_csv(spec: IntegralSpectrum) -> str:
    lines = ["n,eigenvalue"]
    for n, val in enumerate(spec.eigenvalues, start=1):
        lines.append(f"{n},{val:.17g}")
    return "\n".join(lines) + "\n"
