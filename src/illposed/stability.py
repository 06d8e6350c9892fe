"""Executable verifiers for the stability inequalities.

Each main theorem bounds ||T f|| from below by a shape function of the
oscillation ratio; the verifiers fit the existential constants on
eigenfunction sweeps (where the bounds are sharp), relax them by a safety
factor, and then demand zero violations over random ensembles.  The two
elementary lemmas (sign-change sup bound, nonnegative-mass bound) and the
low-oscillation/low-frequency lemma are checked directly against their
constructive constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diff_ops import GalerkinOperator, project_coefficients
from .domains import Interval, QuadGrid
from .errors import (InsufficientDataError, InvalidArgumentError)
from .functions import (ExpPoly, FunctionKind, FunctionLike, FunctionRep,
                        h1_seminorm, l2_norm)
from .integral_ops import LAPLACE_ADJOINT, OperatorMatrix, quadratic_form
from .spectral import (MatchReport, SpectralDecomposition, decompose_operator,
                       fit_line, growth_check, match_eigenfunctions)

EXPONENTIAL = "exponential"
POWER_OF_RATIO = "power-of-ratio"

SIGN_TOL = 1e-12
REFINE_FACTOR = 4

# Fitted constants are relaxed before ensemble verification: the theorems
# assert existence of constants, so acceptance tests the inequality's shape.
SAFETY_C1 = 0.5
SAFETY_C2 = 2.0


# ----------------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma2Record:
    sup_norm: float
    bound: float
    applicable: bool
    passed: bool


@dataclass(frozen=True)
class Lemma3Record:
    lhs: float
    rhs: float
    c1: float
    passed: bool


@dataclass(frozen=True)
class Lemma1Record:
    low_freq_mass: float
    threshold_index: int
    passed: bool


@dataclass(frozen=True)
class StabilityRecord:
    function_id: str
    operator: str
    lhs: float
    h1_ratio: float
    rhs_at_fit: float
    satisfied: bool
    error: Optional[str] = None

    def to_json(self) -> dict:
        obj = {"id": self.function_id, "lhs": self.lhs, "h1_ratio": self.h1_ratio,
               "rhs": self.rhs_at_fit, "satisfied": self.satisfied}
        if self.error:
            obj["error"] = self.error
        return obj


@dataclass(frozen=True)
class StabilityFit:
    c1: float
    c2: float
    form: str
    r_squared: float
    ensemble_descriptor: str

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0):
            raise InvalidArgumentError("stability fit requires positive constants")

    def bound(self, ratio: float, norm: float) -> float:
        """Lower bound for ||T f|| with the relaxed constants."""
        c1 = SAFETY_C1 * self.c1
        c2 = SAFETY_C2 * self.c2
        if self.form == EXPONENTIAL:
            return c1 * math.exp(-c2 * ratio) * norm
        x = c2 * ratio
        return c1 * x ** (-x) * norm

    def to_json(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "form": self.form,
                "r2": self.r_squared, "ensemble": self.ensemble_descriptor}


# ----------------------------------------------------------------------------
# Sampling helpers
# ----------------------------------------------------------------------------

def _refined_values(f: FunctionRep, grid: QuadGrid) -> np.ndarray:
    """f at REFINE_FACTOR times as many equispaced points as the grid has nodes."""
    return f.values(np.linspace(grid.domain.a, grid.domain.b, REFINE_FACTOR * grid.size + 1))


def _norms(w, vals, weight=1.0):
    """sqrt(sum_i w_i weight_i vals_i^2), one per column of a matrix vals."""
    return np.sqrt(np.maximum(w @ (weight * vals.T * vals.T).T, 0.0))


def _oscillation_ratios(tag: str, t, w, v, v1, second) -> np.ndarray:
    """||f'||/||f|| from samples v of f and v1 of f' at nodes t with weights w,
    or for the adjoint the Theorem-2 aggregate (||t f''|| + ||t f'|| + ||t f||
    + ||f||)/||f|| with f'' from second(); one ratio per sample column."""
    norm = _norms(w, v)
    if tag == LAPLACE_ADJOINT:
        t2 = t ** 2
        return (_norms(w, second(), t2) + _norms(w, v1, t2) + _norms(w, v, t2) + norm) / norm
    return _norms(w, v1) / norm


def oscillation_ratio(M: OperatorMatrix, f: FunctionLike) -> float:
    """||f_x||/||f||, or the weighted second-order aggregate for the adjoint,
    for f on M's grid domain (verify_theorem checks it with l2_norm)."""
    t, w = M.grid.nodes, M.grid.weights
    v = f.values(t)
    if _norms(w, v) == 0.0:
        return 0.0
    df = f.derivative()
    return float(_oscillation_ratios(M.kind.tag, t, w, v, df.values(t),
                                     lambda: df.derivative().values(t)))


# ----------------------------------------------------------------------------
# Lemma 2: sign change bounds the sup norm by the H1 seminorm
# ----------------------------------------------------------------------------

def verify_lemma2(f: FunctionRep, grid: QuadGrid) -> Lemma2Record:
    vals = _refined_values(f, grid)
    applicable = bool(vals.min() < -SIGN_TOL and vals.max() > SIGN_TOL)
    sup = float(np.max(np.abs(vals)))
    bound = math.sqrt(grid.domain.length) * h1_seminorm(f, grid)
    passed = (not applicable) or sup <= bound * (1.0 + 1e-9) + 1e-12
    return Lemma2Record(sup, bound, applicable, bool(passed))


# ----------------------------------------------------------------------------
# Lemma 3: nonnegative functions have mass bounded below
# ----------------------------------------------------------------------------

def lemma3_prefactor(c2: float, domain: Interval) -> float:
    """Constructive prefactor c1(c2, a, b) from the proof's h-minimization.

    c1^2 = min over candidate plateau lengths of
    h(x) = exp(c2 / (2 sqrt(x) sqrt(b-a))) * x/2, clamped by the
    no-plateau branch value (b-a)/4; the scan runs on a log grid with the
    stationary point appended.
    """
    if c2 <= 0:
        raise InvalidArgumentError("c2 must be positive")
    length = domain.length
    xs = np.logspace(-8, np.log10(length), 2001)
    x_star = c2 ** 2 / (16.0 * length)
    if x_star <= length:
        xs = np.append(xs, x_star)
    # work with log h: the exponential overflows for tiny plateau lengths
    log_h = c2 / (2.0 * np.sqrt(xs) * math.sqrt(length)) + np.log(xs / 2.0)
    return math.sqrt(min(length / 4.0, math.exp(float(log_h.min()))))


def verify_lemma3(f: FunctionRep, grid: QuadGrid, c2: float) -> Lemma3Record:
    vals = _refined_values(f, grid)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if vals.min() < -SIGN_TOL * scale:
        raise InvalidArgumentError("lemma 3 applies to nonnegative functions only")
    norm = l2_norm(f, grid)
    c1 = lemma3_prefactor(c2, grid.domain)
    if norm == 0.0:
        return Lemma3Record(0.0, 0.0, c1, True)
    lhs = float(np.dot(grid.weights, f.values(grid.nodes)))
    ratio = h1_seminorm(f, grid) / norm
    rhs = c1 * math.exp(-c2 * ratio) * norm
    return Lemma3Record(lhs, rhs, c1, bool(lhs >= rhs * (1.0 - 1e-9)))


# ----------------------------------------------------------------------------
# Lemma 1: low oscillation implies low frequency
# ----------------------------------------------------------------------------

def lemma1_constant(diff: GalerkinOperator, dec: SpectralDecomposition,
                    dirichlet_ratios) -> float:
    """c = sqrt(2 c2 / c1) from measured constants.

    c1 is the eigenvalue growth floor min lambda_n/n^2 over the whole trial
    space (the Parseval tail bound runs over every trial mode), c2 the
    largest measured <Df, f>/||f_x||^2.
    """
    c1 = growth_check(dec)
    c2 = float(np.max(dirichlet_ratios))
    if c1 <= 0 or c2 <= 0:
        raise InvalidArgumentError("measured constants must be positive")
    return math.sqrt(2.0 * c2 / c1)


def verify_lemma1(f: FunctionRep, diff: GalerkinOperator,
                  dec: SpectralDecomposition, c: float) -> Lemma1Record:
    """Partial Parseval mass below the oscillation threshold index."""
    coeffs = project_coefficients(diff, f)
    nrm = float(np.linalg.norm(coeffs))
    if nrm == 0.0:
        raise InvalidArgumentError("zero function")
    coeffs = coeffs / nrm
    ratio = h1_seminorm(f, diff.grid) / l2_norm(f, diff.grid)
    threshold = int(math.floor(c * ratio))
    if threshold > dec.size:
        raise InsufficientDataError(
            f"threshold index {threshold} exceeds the {dec.size} trial modes")
    overlaps = dec.eigenvectors[:, :threshold].T @ coeffs
    mass = float(np.dot(overlaps, overlaps))
    return Lemma1Record(mass, threshold, bool(mass >= 0.5 - 1e-10))


# ----------------------------------------------------------------------------
# Eigenfunction sweeps and constant fitting
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepData:
    indices: np.ndarray
    ratios: np.ndarray
    lhs: np.ndarray     # sqrt of the Rayleigh values, i.e. ||T u_n||
    operator: str
    diff_source: str


def eigenfunction_sweep(M: OperatorMatrix, diff: GalerkinOperator, m: int,
                        converged: Optional[int] = None) -> SweepData:
    """(oscillation ratio, ||T u_n||) along the matched, resolved eigenfunctions."""
    return sweep_from_report(M, diff, match_eigenfunctions(M, diff, m, converged=converged))


def sweep_from_report(M: OperatorMatrix, diff: GalerkinOperator,
                      rep: MatchReport) -> SweepData:
    """The sweep along the matched modes that M's spectrum resolves, with
    every ratio from the trial vectors on the basis's own assembly grid."""
    m = min(len(rep.records), decompose_operator(M).resolved)
    U = rep.vectors[:, :m]
    ratios = _oscillation_ratios(M.kind.tag, diff.grid.nodes, diff.grid.weights,
                                 diff.basis_values @ U, diff.basis_deriv @ U,
                                 lambda: diff.basis_deriv2 @ U)
    lhs = np.sqrt(np.maximum([r.rayleigh for r in rep.records[:m]], 0.0))
    return SweepData(np.arange(1, m + 1), ratios, lhs, M.kind.to_string(), diff.spec.tag)


def _golden_section_min(f, a: float, b: float) -> float:
    """Minimizer of a unimodal f on [a, b], bracketed to a width of 1e-10."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_constants_from_sweep(sweep: SweepData, form: str,
                             mode_range=None) -> StabilityFit:
    keep = np.ones(len(sweep.indices), dtype=bool)
    if mode_range is not None:
        keep = (sweep.indices >= mode_range[0]) & (sweep.indices <= mode_range[1])
    keep &= sweep.lhs > 0
    r, y = sweep.ratios[keep], np.log(sweep.lhs[keep])
    if len(r) < 4:
        raise InsufficientDataError("need at least 4 swept modes to fit constants")
    if form == EXPONENTIAL:
        slope, intercept, r2 = fit_line(r, y)
        c1, c2 = math.exp(intercept), -slope
    elif form == POWER_OF_RATIO:
        # The intercept is profiled out, leaving a 1-d search over log c2.
        def sse(log_c2):
            c2 = math.exp(log_c2)
            g = -c2 * r * np.log(c2 * r)
            a = float(np.mean(y - g))
            return float(np.sum((y - g - a) ** 2))
        log_c2 = _golden_section_min(sse, -6.0, 3.0)
        c2 = math.exp(log_c2)
        g = -c2 * r * np.log(c2 * r)
        c1 = math.exp(float(np.mean(y - g)))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = float(np.clip(1.0 - sse(log_c2) / ss_tot, 0.0, 1.0)) if ss_tot > 0 else 1.0
    else:
        raise InvalidArgumentError(f"unknown fit form: {form}")
    return StabilityFit(float(c1), float(c2), form, r2,
                        f"{sweep.operator}|{sweep.diff_source}|m={len(sweep.indices)}")


# ----------------------------------------------------------------------------
# Theorem verification over ensembles
# ----------------------------------------------------------------------------

def verify_theorem(M: OperatorMatrix, fit: StabilityFit,
                   ensemble) -> list[StabilityRecord]:
    """One StabilityRecord per ensemble function; errors do not stop the run.

    lhs is ||T f|| (for the Fourier composition its square is the image
    energy); the bound uses the safety-relaxed fitted constants.
    """
    records = []
    op = M.kind.to_string()
    for i, f in enumerate(ensemble):
        fid = f"f{i:04d}"
        try:
            norm = l2_norm(f, M.grid)
            if norm == 0.0:
                records.append(StabilityRecord(fid, op, 0.0, 0.0, 0.0, True))
                continue
            lhs = math.sqrt(max(quadratic_form(M, f), 0.0))
            ratio = oscillation_ratio(M, f)
            rhs = fit.bound(ratio, norm)
            records.append(StabilityRecord(fid, op, lhs, ratio, rhs, bool(lhs >= rhs)))
        except Exception as exc:  # per-record error entry, run continues
            records.append(StabilityRecord(fid, op, float("nan"), float("nan"),
                                           float("nan"), False, error=str(exc)))
    return records


def violation_count(records) -> int:
    return sum(1 for r in records if not r.satisfied)


# ----------------------------------------------------------------------------
# Seeded random ensembles (PCG64; algorithm pinned for reproducibility)
# ----------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_sine_series(domain: Interval, count: int, rng,
                       n_modes: int = 12, decay: float = 2.0):
    """Unit-norm sine series with 1/k^decay amplitude envelope."""
    out = []
    k = np.arange(1, n_modes + 1, dtype=float)
    for _ in range(count):
        c = rng.standard_normal(n_modes) / k ** decay
        c /= np.linalg.norm(c) * math.sqrt(domain.length / 2.0)
        out.append(FunctionRep(FunctionKind.SINE_SERIES, c, domain))
    return out


def random_nonnegative_series(domain: Interval, count: int, rng,
                              n_modes: int = 10):
    """Nonnegative Legendre series: constant term dominates the oscillation."""
    out = []
    for _ in range(count):
        c = np.zeros(n_modes)
        c[1:] = rng.standard_normal(n_modes - 1) / (np.arange(1, n_modes) + 1.0) ** 2
        # |f| >= c0/sqrt(L) - sum |c_k| sqrt((2k+1)/L): keep it positive
        c[0] = (1.0 + rng.uniform(0.05, 1.0)) * float(
            np.sum(np.abs(c[1:]) * np.sqrt(2 * np.arange(1, n_modes) + 1.0))
        ) + 0.1
        out.append(FunctionRep(FunctionKind.LEGENDRE_SERIES, c, domain))
    return out


def random_exp_poly(count: int, rng, max_degree: int = 5,
                    rate_range=(1.0, 2.0)):
    """p(x) e^{-rate x} ensemble with finite Theorem-2 weighted norms."""
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        coeffs = rng.standard_normal(deg + 1) / (2.0 ** np.arange(deg + 1))
        if abs(coeffs[0]) < 0.1:
            coeffs[0] = 0.1 * (1.0 if coeffs[0] >= 0 else -1.0)
        out.append(ExpPoly(coeffs, float(rng.uniform(*rate_range))))
    return out


def random_trial_mix(dec: SpectralDecomposition, count: int, rng,
                     decay: float = 2.0):
    """Unit coefficient vectors spread over the eigenbasis with 1/n^decay envelope."""
    out = []
    n = np.arange(1, dec.size + 1, dtype=float)
    for _ in range(count):
        d = rng.standard_normal(dec.size) / n ** decay
        d /= np.linalg.norm(d)
        out.append(dec.eigenvectors @ d)
    return out
