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
from typing import NamedTuple, Optional

import numpy as np

from .diff_ops import GalerkinOperator
from .domains import Interval, QuadGrid
from .errors import Frozen, InsufficientDataError, InvalidArgumentError, check_integer
from .functions import (ExpPoly, FunctionKind, FunctionRep, _series_norm, check_domain,
                        check_orthonormal, columns, exp_poly_columns, form_norm, grid_memo,
                        read_series, weighted_norm)
from .integral_ops import EXPONENTIAL, POWER_OF_RATIO, OperatorMatrix, resolved_count
from .spectral import (MatchReport, SpectralDecomposition, fit_line, growth_check,
                       match_eigenfunctions)

SIGN_TOL = 1e-12  # relative to the sampled sup norm
# Lemmas 2 and 3 take their sup norm at REFINE_FACTOR * n + 1 equispaced
# points of [a, b], n the grid's node count.
REFINE_FACTOR = 4
# Ensemble functions per block: bounds the memory of an ExpPoly block's
# samples.  A series block is read from its coefficients, never sampled.
_BLOCK = 128

# Fitted constants are relaxed before ensemble verification: the theorems
# assert existence of constants, so acceptance tests the inequality's shape.
SAFETY_C1 = 0.5
SAFETY_C2 = 2.0


# ----------------------------------------------------------------------------
# Records: one per checked function
# ----------------------------------------------------------------------------

# Builds a record in C: _record(Lemma2Record, values) is what
# Lemma2Record(*values) does, without its Python-level __new__.
_record = tuple.__new__


class Lemma2Record(NamedTuple):
    sup_norm: float
    bound: float
    applicable: bool
    passed: bool


class Lemma3Record(NamedTuple):
    lhs: float
    rhs: float
    c1: float
    passed: bool


class Lemma1Record(NamedTuple):
    low_freq_mass: float
    threshold_index: int
    passed: bool


class StabilityRecord(NamedTuple):
    function_id: str
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


class StabilityFit(Frozen):
    """Fitted constants (c1, c2) of a theorem's form, both positive."""

    __slots__ = ("c1", "c2", "form", "r_squared", "ensemble_descriptor")

    def __init__(self, c1: float, c2: float, form: str, r_squared: float,
                 ensemble_descriptor: str):
        if not (c1 > 0 and c2 > 0):
            raise InvalidArgumentError("stability fit requires positive constants")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "r_squared", r_squared)
        object.__setattr__(self, "ensemble_descriptor", ensemble_descriptor)

    def lower_bounds(self, ratios, norms) -> list:
        """The lower bound for ||T f|| at each (ratio, ||f||), with the
        relaxed constants: c1 exp(-c2 ratio) ||f||, or c1 x^(-x) ||f|| with
        x = c2 ratio, one math.exp or power per function, and 0 for a zero
        function, which meets every bound."""
        c1 = SAFETY_C1 * self.c1
        c2 = SAFETY_C2 * self.c2
        if self.form == EXPONENTIAL:
            return [c1 * math.exp(-c2 * r) * n if n != 0.0 else 0.0
                    for r, n in zip(ratios, norms)]
        return [c1 * x ** (-x) * n if n != 0.0 else 0.0
                for x, n in zip([c2 * r for r in ratios], norms)]

    def to_json(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "form": self.form,
                "r2": self.r_squared, "ensemble": self.ensemble_descriptor}


# ----------------------------------------------------------------------------
# Sampling helpers: each verifier checks a function's domain once, then reads
# the grid's memoized tables and forms, one product per table or form
# ----------------------------------------------------------------------------

def _sup_points(grid: QuadGrid) -> np.ndarray:
    """The lemmas' sup-norm points, once per grid in its memo."""
    return grid_memo(grid, "sup_points", np.linspace, grid.domain.a, grid.domain.b,
                     REFINE_FACTOR * grid.size + 1)


def _lemma_read(f: FunctionRep, grid: QuadGrid) -> tuple:
    """f's read-out at the lemmas' sup-norm points (read_series: values, mass
    row, G_0 c, G_1 c), once f is known to live on the grid's bounded
    interval: Lemmas 2 and 3 are statements on [a, b].  The read-out of
    f's basis at the points is built once per grid in its memo, so a call
    makes one memo lookup and one product."""
    if not isinstance(grid.domain, Interval):
        raise InvalidArgumentError("lemmas 2 and 3 hold on a bounded interval, not a half line")
    check_domain(f, grid)
    return read_series(f, grid, _sup_points)


# The ufunc reductions: ndarray.min and max add a Python wrapper per call.
_min, _max = np.minimum.reduce, np.maximum.reduce


def _ratios(top, norm) -> np.ndarray:
    """top/norm per column, and 0 where norm is 0: a zero function's ratio,
    with no 0/0."""
    return np.divide(top, norm, out=np.zeros_like(norm), where=norm != 0.0)


def _oscillation_ratios(t, w, samples):
    """(||f||, ratio) per column, from samples [f, f'] at nodes t with weights
    w, ratio ||f'||/||f||, or from [f, f', f''], ratio the Theorem-2
    aggregate (||t f''|| + ||t f'|| + ||t f|| + ||f||)/||f||."""
    norm = weighted_norm(w, samples[0])
    if len(samples) == 3:
        weights = w * t ** 2
        t_f, t_df, t_ddf = (weighted_norm(weights, s) for s in samples)
        return norm, _ratios(t_ddf + t_df + t_f + norm, norm)
    return norm, _ratios(weighted_norm(w, samples[1]), norm)


# ----------------------------------------------------------------------------
# Lemma 2: sign change bounds the sup norm by the H1 seminorm
# ----------------------------------------------------------------------------

def verify_lemma2(f: FunctionRep, grid: QuadGrid) -> Lemma2Record:
    vals, _, _, d_products = _lemma_read(f, grid)
    lo, hi = float(_min(vals)), float(_max(vals))
    sup = max(abs(lo), abs(hi))
    applicable = lo < -SIGN_TOL * sup and hi > SIGN_TOL * sup
    bound = math.sqrt(grid.domain.length) * form_norm(f.payload, d_products)
    passed = (not applicable) or sup <= bound * (1.0 + 1e-9) + SIGN_TOL * sup
    return _record(Lemma2Record, (sup, bound, applicable, bool(passed)))


# ----------------------------------------------------------------------------
# Lemma 3: nonnegative functions have mass bounded below
# ----------------------------------------------------------------------------

def lemma3_prefactor(c2: float, domain: Interval) -> float:
    """Constructive prefactor c1(c2, a, b) from the proof's h-minimization.

    c1^2 = min(L/4, min over plateau lengths 0 < x <= L of h(x)), with
    h(x) = exp(c2 / (2 sqrt(x) sqrt(L))) * x/2 and L = b-a: L/4 is the
    no-plateau branch.  log h is convex in log x with its one stationary
    point at x* = c2^2/(16 L), so the minimum sits at x = min(x*, L).  The
    branches are compared in logs: h itself overflows when c2 >> L.
    """
    if not 0.0 < c2 < math.inf:  # NaN fails both comparisons
        raise InvalidArgumentError("c2 must be positive and finite")
    length = domain.length
    x = min(c2 ** 2 / (16.0 * length), length)
    log_h = c2 / (2.0 * math.sqrt(x) * math.sqrt(length)) + math.log(x / 2.0)
    if log_h >= math.log(length / 4.0):
        return math.sqrt(length / 4.0)
    return math.sqrt(math.exp(log_h))


def verify_lemma3(f: FunctionRep, grid: QuadGrid, c2: float) -> Lemma3Record:
    """The mass of a nonnegative f against c1 exp(-c2 ||f'||/||f||) ||f||:
    the sign from f at the sup-norm points, the mass and both norms from the
    grid's mass row and forms, all from one read-out, and c1 =
    lemma3_prefactor(c2, [a, b]) once per grid and c2."""
    vals, mass_row, products, d_products = _lemma_read(f, grid)
    lo = float(_min(vals))
    if lo < 0.0 and lo < -SIGN_TOL * float(_max(np.abs(vals))):  # the sup only if f dips
        raise InvalidArgumentError("lemma 3 applies to nonnegative functions only")
    c = f.payload
    lhs = float(mass_row.dot(c))
    norm = form_norm(c, products)
    c1 = grid_memo(grid, ("lemma3_prefactor", c2), lemma3_prefactor, c2, grid.domain)
    if norm == 0.0:
        return _record(Lemma3Record, (0.0, 0.0, c1, True))
    ratio = form_norm(c, d_products) / norm
    rhs = c1 * math.exp(-c2 * ratio) * norm
    return _record(Lemma3Record, (lhs, rhs, c1, bool(lhs >= rhs * (1.0 - 1e-9))))


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
    c1 = growth_check(dec.eigenvalues)
    c2 = float(np.max(dirichlet_ratios))
    if c1 <= 0 or c2 <= 0:
        raise InvalidArgumentError("measured constants must be positive")
    return math.sqrt(2.0 * c2 / c1)


def verify_lemma1(f: FunctionRep, diff: GalerkinOperator,
                  dec: SpectralDecomposition, c: float) -> Lemma1Record:
    """Partial Parseval mass below the oscillation threshold index, read from
    f's coefficients: f must be a Legendre series of at most N terms on the
    trial basis's domain, so its trial coefficients are its payload, padded
    with zeros, and ||f|| and ||f'|| come from the Gram forms on the
    operator's grid (`diff.grid`).  Nothing is sampled or projected."""
    grid = diff.grid
    check_domain(f, grid)
    if (isinstance(f, ExpPoly) or f.kind is not FunctionKind.LEGENDRE_SERIES
            or len(f.payload) > diff.size):
        raise InvalidArgumentError(f"lemma 1 reads a Legendre series of at most {diff.size} terms")
    nrm = math.sqrt(float(np.dot(f.payload, f.payload)))  # np.linalg.norm's sum, unwrapped
    if nrm == 0.0:
        raise InvalidArgumentError("zero function")
    coeffs = np.concatenate((f.payload, np.zeros(diff.size - len(f.payload)))) / nrm
    ratio = _series_norm(f.kind, f.payload, 1, grid) / _series_norm(f.kind, f.payload, 0, grid)
    threshold = int(math.floor(c * ratio))
    if threshold > dec.size:
        raise InsufficientDataError(
            f"threshold index {threshold} exceeds the {dec.size} trial modes")
    overlaps = dec.eigenvectors[:, :threshold].T @ coeffs
    mass = float(np.dot(overlaps, overlaps))
    return _record(Lemma1Record, (mass, threshold, bool(mass >= 0.5 - 1e-10)))


# ----------------------------------------------------------------------------
# Eigenfunction sweeps and constant fitting
# ----------------------------------------------------------------------------

class SweepData(NamedTuple):
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
    """The sweep along the matched modes that M's spectrum resolves.  Each
    mode is sampled once, on M's grid: the samples whose Rayleigh values
    `match` measured give ||T u_n||, and their derivatives the ratio."""
    m = min(len(rep.records), resolved_count(M.singular_values ** 2))
    U = rep.vectors[:, :m]
    t, w = M.grid.nodes, M.grid.weights
    tables = diff.basis.tables(M.grid, M.kind.record.ratio_orders)
    _, ratios = _oscillation_ratios(t, w, [T @ U for T in tables])
    lhs = np.sqrt(np.maximum([r.rayleigh for r in rep.records[:m]], 0.0))
    return SweepData(np.arange(1, m + 1), ratios, lhs, M.kind.to_string(), diff.name)


def fit_constants_from_sweep(sweep: SweepData, form: str) -> StabilityFit:
    """(c1, c2) of the theorem's form, least squares in log ||T u_n||.  The
    power-of-ratio form log c1 - x log x, x = c2 r, has its intercept
    profiled out; the profile need not be unimodal, so its best log c2 on a
    37-point scan of [-6, 3] is refined, between its two neighbours, by
    bisection on the sign of the slope -2 sum res (g - x), g = -x log x.
    A best point at an end of the scan is refused."""
    keep = sweep.lhs > 0
    r, y = sweep.ratios[keep], np.log(sweep.lhs[keep])
    if len(r) < 4:
        raise InsufficientDataError("need at least 4 swept modes to fit constants")
    if form == EXPONENTIAL:
        slope, intercept, r2 = fit_line(r, y)
        c1, c2 = math.exp(intercept), -slope
    elif form == POWER_OF_RATIO:
        def profile(log_c2):  # g, the residuals about their mean, dg/dlog c2
            x = np.exp(log_c2) * r
            g = -x * np.log(x)
            res = y - g
            return g, res - np.mean(res, axis=-1, keepdims=True), g - x
        scan = np.linspace(-6.0, 3.0, 37)
        k = int(np.argmin(np.sum(profile(scan[:, None])[1] ** 2, axis=1)))
        if k in (0, len(scan) - 1):
            raise InsufficientDataError("power-of-ratio fit: best log c2 at an end of [-6, 3]")
        lo, hi = scan[k - 1], scan[k + 1]
        log_c2 = 0.5 * (lo + hi)
        while lo < log_c2 < hi:
            _, res, dg = profile(log_c2)
            lo, hi = (log_c2, hi) if np.dot(res, dg) > 0.0 else (lo, log_c2)
            log_c2 = 0.5 * (lo + hi)
        c2 = math.exp(log_c2)
        g, res, _ = profile(log_c2)
        c1 = math.exp(float(np.mean(y - g)))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = float(np.clip(1.0 - np.sum(res ** 2) / ss_tot, 0.0, 1.0)) if ss_tot > 0 else 1.0
    else:
        raise InvalidArgumentError(f"unknown fit form: {form}")
    return StabilityFit(float(c1), float(c2), form, r2,
                        f"{sweep.operator}|{sweep.diff_source}|m={len(sweep.indices)}")


# ----------------------------------------------------------------------------
# Theorem verification over ensembles
# ----------------------------------------------------------------------------

def _error_record(i: int, exc: Exception) -> StabilityRecord:
    return StabilityRecord(f"f{i:04d}", math.nan, math.nan, math.nan, False, error=str(exc))


def verify_theorem(M: OperatorMatrix, fit: StabilityFit,
                   ensemble) -> list[StabilityRecord]:
    """One StabilityRecord per ensemble function; errors do not stop the run.

    lhs is ||T f|| (for the Fourier composition its square is the image
    energy); the bound uses the safety-relaxed fitted constants, a block's
    bounds in one lower_bounds call.  Functions of one type, kind and length
    are checked _BLOCK at a time.  A series group is never sampled: its
    images are G C for coefficient columns C, with G = M.image(T) the
    images of its K basis functions, built once per call, and its squared
    norms of f and f' are the column sums of
    C o (G_k C) for the grid's Gram forms G_k (_series_norm): a block costs
    rows x K, not rows x n, flops per function.  A group whose basis the
    grid does not resolve is checked once and gets an error record per
    function.  ExpPoly tables differ per rate, so an ExpPoly block is
    sampled, every order the ratio reads from one power basis and one
    envelope, and its images are M.image(V).  A zero function has a zero
    image, and its ratio and bound are 0.
    """
    orders = M.kind.record.ratio_orders
    t, w = M.grid.nodes, M.grid.weights
    records: list = [None] * len(ensemble)
    groups: dict = {}
    for i, f in enumerate(ensemble):
        try:
            check_domain(f, M.grid)
        except InvalidArgumentError as exc:  # per-record error entry, run continues
            records[i] = _error_record(i, exc)
            continue
        key = len(f.poly) if isinstance(f, ExpPoly) else (f.kind, len(f.payload))
        groups.setdefault(key, []).append(i)
    for key, members in groups.items():
        series = isinstance(ensemble[members[0]], FunctionRep)
        if series:
            try:  # kind and size fix the basis table: one check per group
                G = M.image(check_orthonormal(*key, M.grid))
            except InvalidArgumentError as exc:
                for i in members:
                    records[i] = _error_record(i, exc)
                continue
        for start in range(0, len(members), _BLOCK):
            idx = members[start:start + _BLOCK]
            funcs = [ensemble[i] for i in idx]
            if series:
                C = columns([g.payload for g in funcs])
                Av = G @ C
                norm, top = (_series_norm(key[0], C, k, M.grid) for k in (0, 1))
                ratio = _ratios(top, norm)
            else:
                S = exp_poly_columns(funcs, t, orders)
                Av = M.image(S[0])
                norm, ratio = _oscillation_ratios(t, w, S)
            lhs = np.sqrt(np.maximum(np.einsum("ij,ij->j", Av, Av), 0.0))
            ratios = ratio.tolist()
            for i, a, r, rhs in zip(idx, lhs.tolist(), ratios,
                                    fit.lower_bounds(ratios, norm.tolist())):
                records[i] = _record(StabilityRecord, (f"f{i:04d}", a, r, rhs, a >= rhs, None))
    return records


def violation_count(records) -> int:
    """Records whose bound failed.  A record that raised is unsatisfied, but
    it is an error, not a violation."""
    return sum(1 for r in records if not (r.satisfied or r.error))


def error_count(records) -> int:
    """Records that raised instead of measuring their function."""
    return sum(1 for r in records if r.error)


# ----------------------------------------------------------------------------
# Seeded random ensembles (PCG64; algorithm pinned for reproducibility)
# ----------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    """The seeded generator of every ensemble; seed must be a nonnegative integer."""
    check_integer(seed, "seed")
    if seed < 0:
        raise InvalidArgumentError("seed must be a nonnegative integer")
    return np.random.Generator(np.random.PCG64(seed))


# Ensemble recipes: the modes of each random series and their envelopes.
SINE_MODES, SINE_DECAY = 12, 2.0
NONNEGATIVE_MODES = 10
EXP_POLY_MAX_DEGREE, EXP_POLY_RATES = 5, (1.0, 2.0)
TRIAL_MIX_DECAY = 2.0


def random_sine_series(domain: Interval, count: int, rng):
    """Unit-norm sine series of SINE_MODES modes with 1/k^SINE_DECAY amplitude envelope."""
    k = np.arange(1, SINE_MODES + 1, dtype=float)
    C = rng.standard_normal((count, SINE_MODES)) / k ** SINE_DECAY  # one draw, row by row
    scale = math.sqrt(domain.length / 2.0)
    # each row's own norm: an axis=1 norm sums in another order, off in the last bit
    return [FunctionRep(FunctionKind.SINE_SERIES, c / (np.linalg.norm(c) * scale), domain)
            for c in C]


def random_nonnegative_series(domain: Interval, count: int, rng):
    """Nonnegative Legendre series: constant term dominates the oscillation."""
    out = []
    n = NONNEGATIVE_MODES
    for _ in range(count):
        c = np.zeros(n)
        c[1:] = rng.standard_normal(n - 1) / (np.arange(1, n) + 1.0) ** 2
        # |f| >= c0/sqrt(L) - sum |c_k| sqrt((2k+1)/L): keep it positive
        c[0] = (1.0 + rng.uniform(0.05, 1.0)) * float(
            np.sum(np.abs(c[1:]) * np.sqrt(2 * np.arange(1, n) + 1.0))
        ) + 0.1
        out.append(FunctionRep(FunctionKind.LEGENDRE_SERIES, c, domain))
    return out


def random_exp_poly(count: int, rng):
    """p(x) e^{-rate x} ensemble with finite Theorem-2 weighted norms."""
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, EXP_POLY_MAX_DEGREE + 1))
        coeffs = rng.standard_normal(deg + 1) / (2.0 ** np.arange(deg + 1))
        if abs(coeffs[0]) < 0.1:
            coeffs[0] = 0.1 * (1.0 if coeffs[0] >= 0 else -1.0)
        out.append(ExpPoly(coeffs, float(rng.uniform(*EXP_POLY_RATES))))
    return out


def random_trial_mix(dec: SpectralDecomposition, count: int, rng):
    """Unit coefficient vectors spread over the eigenbasis with 1/n^TRIAL_MIX_DECAY envelope."""
    out = []
    n = np.arange(1, dec.size + 1, dtype=float)
    for _ in range(count):
        d = rng.standard_normal(dec.size) / n ** TRIAL_MIX_DECAY
        d /= np.linalg.norm(d)
        out.append(dec.eigenvectors @ d)
    return out
