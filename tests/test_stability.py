import collections
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import derivative_values
from illposed import (ExpPoly, FunctionKind, FunctionRep, InsufficientDataError, Interval,
                      InvalidArgumentError, SignVariant, assemble_bertero_grunbaum,
                      assemble_fourth_order, decompose_operator,
                      eig_sym, fourier_image_energy, h1_seminorm, half_line_for, l2_norm,
                      lemma1_constant, lemma3_prefactor, make_grid, make_rng,
                      match_eigenfunctions, parse_operator, verify_lemma1,
                      sample, verify_lemma2, verify_lemma3, verify_theorem,
                      violation_count)
from illposed import stability
from illposed.functions import check_orthonormal
from illposed.problem import Problem
from illposed.spectral import SVD_FLOOR
from illposed.stability import (_BLOCK, EXPONENTIAL, POWER_OF_RATIO, SINE_DECAY, SINE_MODES,
                                StabilityFit, StabilityRecord, SweepData,
                                fit_constants_from_sweep,
                                random_exp_poly, random_nonnegative_series,
                                random_sine_series, random_trial_mix,
                                sweep_from_report)

SYM = Interval(-1.0, 1.0)
UNIT = Interval(0.0, 1.0)


def legendre(coeffs, domain):
    return FunctionRep(FunctionKind.LEGENDRE_SERIES, coeffs, domain)


# ----------------------------------------------------------------------------
# Lemma 2
# ----------------------------------------------------------------------------

def test_lemma2_linear_function():
    # f(x) = x on [-1,1]: sup 1, ||f_x|| = sqrt(2), bound sqrt(2)*sqrt(2) = 2
    grid = make_grid(SYM, 64)
    f = legendre([0.0, np.sqrt(2.0 / 3.0)], SYM)  # equals x
    assert sample(f, np.array([0.5]))[0] == pytest.approx(0.5, rel=1e-14)
    rec = verify_lemma2(f, grid)
    assert rec.applicable
    assert rec.sup_norm == pytest.approx(1.0, rel=1e-10)
    assert rec.bound == pytest.approx(2.0, rel=1e-12)
    assert rec.passed


def test_lemma2_no_sign_change_short_circuits():
    grid = make_grid(UNIT, 32)
    rec = verify_lemma2(legendre([1.0], UNIT), grid)
    assert not rec.applicable and rec.passed


def test_lemma2_sine_on_longer_interval():
    dom = Interval(0.0, 2.0)
    grid = make_grid(dom, 64)
    f = FunctionRep(FunctionKind.SINE_SERIES, [0.0, 1.0], dom)  # sin(pi x)
    rec = verify_lemma2(f, grid)
    assert rec.applicable
    assert rec.sup_norm == pytest.approx(1.0, rel=1e-8)
    assert rec.bound == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-10)
    assert rec.passed


def test_lemma2_reads_its_sup_norm_at_4n_plus_1_equispaced_points():
    # the point rule, at its one reader: max |f| over linspace(a, b, 4n + 1)
    # for a grid of n nodes, with f summed here from np.sin; a 4n-point set
    # misses the same function's sup
    dom = Interval(0.5, 2.0)
    n = 24
    c = np.array([0.3, -0.8, 0.5, 0.9, -0.4, 0.7])
    rec = verify_lemma2(FunctionRep(FunctionKind.SINE_SERIES, c, dom), make_grid(dom, n))

    def sup(points):
        x = np.linspace(dom.a, dom.b, points)
        k = np.arange(1, len(c) + 1, dtype=float)
        return float(np.max(np.abs(np.sin(np.outer(x - dom.a, k * np.pi / dom.length)) @ c)))
    assert rec.sup_norm == sup(4 * n + 1)
    assert rec.sup_norm != sup(4 * n)


def test_lemma_verdicts_are_scale_invariant():
    # both lemmas are homogeneous: their sign tests read the sup norm, not 1
    grid = make_grid(UNIT, 64)
    f = FunctionRep(FunctionKind.SINE_SERIES, [0.0, 1.0], UNIT)  # sin(2 pi x)
    tiny = FunctionRep(FunctionKind.SINE_SERIES, 1e-13 * f.payload, UNIT)
    rec, rec_tiny = verify_lemma2(f, grid), verify_lemma2(tiny, grid)
    assert rec.applicable and rec.passed
    assert (rec_tiny.applicable, rec_tiny.passed) == (rec.applicable, rec.passed)
    with pytest.raises(InvalidArgumentError):
        verify_lemma3(tiny, grid, c2=1.0)
    g = legendre([1.0, 0.3], UNIT)  # 1 + 0.3 sqrt(3) (2x - 1) > 0
    assert verify_lemma3(g, grid, 1.0).passed
    assert verify_lemma3(legendre(1e-13 * g.payload, UNIT), grid, 1.0).passed


@pytest.mark.parametrize("lemma", [verify_lemma2, lambda f, grid: verify_lemma3(f, grid, 1.0)],
                         ids=["lemma2", "lemma3"])
@pytest.mark.parametrize("f, on_half_line", [
    (ExpPoly([1.0, 0.5], 1.0), True),
    (FunctionRep(FunctionKind.SINE_SERIES, [1.0, 0.2], Interval(1.0, 2.0)), True),
    (FunctionRep(FunctionKind.SINE_SERIES, [1.0, 0.2], UNIT), False),  # grid on [1, 2]
], ids=["exp-poly", "sine-series", "other-interval"])
def test_lemmas_refuse_functions_off_their_interval(lemma, f, on_half_line):
    # both lemmas are statements on [a, b]: a half-line grid is refused with
    # a message, before anything is sampled
    ab = Interval(1.0, 2.0)
    grid = make_grid(half_line_for(ab), 64) if on_half_line else make_grid(ab, 64)
    with pytest.raises(InvalidArgumentError):
        lemma(f, grid)


class _CountingMemo(dict):
    """A grid memo that counts how often each key is stored in it and read
    from it (grid_memo reads with get)."""

    def __init__(self):
        super().__init__()
        self.stores = collections.Counter()
        self.reads = collections.Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)

    def get(self, key, default=None):
        self.reads[key] += 1
        return super().get(key, default)


def _counting_memo(grid) -> _CountingMemo:
    memo = vars(grid)["series_tables"] = _CountingMemo()  # before any read fills it
    return memo


def test_lemmas_build_each_table_and_point_set_once(monkeypatch):
    # 100 calls of each lemma, and of both norms, on one grid each: one
    # sup-norm point set, for Lemmas 2 and 3 alone, one table per (series,
    # derivative order, point set), one Gram form per (series, order), one
    # read-out per series basis that the lemmas read their values, mass and
    # norms from, and one Lemma 3 prefactor per c2, each built once.  The
    # grid's memo stores each once, the point set under stability's own key
    # and each read-out (its table at the points, mass row and both forms)
    # under a key that names the point rule, and keeps no table at the
    # nodes: the read-out's mass row and G_0 are built from one table that
    # is not kept
    from illposed import functions
    dom = Interval(0.5, 2.25)  # no other test samples here, so no cache is warm
    grid = make_grid(dom, 72)
    memo = _counting_memo(grid)
    built, linspaces, prefactors = [], [], []
    original_table, original_linspace = functions.basis_table, np.linspace

    def table(kind, size, domain, order, x):
        built.append((kind, order, len(x)))
        return original_table(kind, size, domain, order, x)

    def linspace(*args, **kwargs):
        linspaces.append(args)
        return original_linspace(*args, **kwargs)

    def prefactor(c2, domain):
        prefactors.append(c2)
        return lemma3_prefactor(c2, domain)
    monkeypatch.setattr(functions, "basis_table", table)
    monkeypatch.setattr(np, "linspace", linspace)
    monkeypatch.setattr(stability, "lemma3_prefactor", prefactor)
    rng = make_rng(3)
    for f in random_sine_series(dom, 100, rng):
        verify_lemma2(f, grid)
    for f in random_nonnegative_series(dom, 100, rng):
        verify_lemma3(f, grid, c2=1.0)
    sine, leg = FunctionKind.SINE_SERIES, FunctionKind.LEGENDRE_SERIES
    points = stability._sup_points
    assert len(linspaces) == 1 and prefactors == [1.0]
    assert sorted(built, key=str) == sorted([
        (sine, 0, 4 * 72 + 1), (sine, 0, 72), (sine, 1, 72),
        (leg, 0, 4 * 72 + 1), (leg, 0, 72), (leg, 1, 72)], key=str)
    assert set(memo.stores.values()) == {1}
    assert sorted(memo, key=str) == sorted([
        "sup_points", (sine, 12, points), (sine, 12, 0, "gram"), (sine, 12, 1, "gram"),
        (leg, 10, points), (leg, 10, 0, "gram"), (leg, 10, 1, "gram"),
        ("lemma3_prefactor", 1.0)], key=str)

    # Lemma 1 on a fresh operator over dom reads its mixes' coefficients: its
    # grid holds G_0 and G_1 alone, not the two tables they are built from,
    # and no sample or projection adds another entry; then each norm of sine
    # series on that grid stores the Gram form it reads, and no table
    built.clear()
    op = assemble_bertero_grunbaum(dom, 16)
    memo = _counting_memo(op.grid)
    dec = op.eigensystem
    for v in random_trial_mix(dec, 100, rng):
        verify_lemma1(legendre(v, dom), op, dec, c=1.0)
    assert sorted(memo, key=str) == sorted([(leg, 16, 0, "gram"), (leg, 16, 1, "gram")],
                                           key=str)
    for f in random_sine_series(dom, 100, rng):
        h1_seminorm(f, op.grid)
    for f in random_sine_series(dom, 100, rng):
        l2_norm(FunctionRep(FunctionKind.SINE_SERIES, f.payload[:6], dom), op.grid)
    assert len(linspaces) == 1
    nodes = op.grid.size
    assert sorted(built, key=str) == sorted([
        (leg, 0, nodes), (leg, 1, nodes), (sine, 1, nodes), (sine, 0, nodes)], key=str)
    assert set(memo.stores.values()) == {1}
    assert sorted(memo, key=str) == sorted([
        (leg, 16, 0, "gram"), (leg, 16, 1, "gram"), (sine, 12, 1, "gram"),
        (sine, 6, 0, "gram")], key=str)


def _lemma_records(grid, seed):
    """Every Lemma 2 and Lemma 3 record of two seeded ensembles on grid."""
    rng = make_rng(seed)
    dom = grid.domain
    return ([verify_lemma2(f, grid) for f in random_sine_series(dom, 60, rng)]
            + [verify_lemma3(f, grid, 1.0) for f in random_nonnegative_series(dom, 60, rng)])


def test_grid_tables_give_the_same_records_on_every_grid_and_cache_state():
    # the tables a grid holds are the tables any grid built the same way
    # holds, bit for bit, whether its table memo is empty or already full
    dom = Interval(0.25, 1.75)
    first, second = make_grid(dom, 40), make_grid(dom, 40)
    records = _lemma_records(first, 8)
    assert len(second.series_tables) == 0
    assert _lemma_records(second, 8) == records
    assert _lemma_records(first, 8) == records
    f = random_sine_series(dom, 1, make_rng(9))[0]
    assert (l2_norm(f, first), h1_seminorm(f, first)) == (l2_norm(f, second),
                                                          h1_seminorm(f, second))


def test_a_grid_frees_its_tables_with_itself():
    # the grid's memo is the only table cache: the grid, every table and
    # form read on it, and the table project_coefficients reads on an
    # operator's own grid all die with their grid
    import gc
    import weakref
    from illposed.diff_ops import project_coefficients
    dom = Interval(0.25, 1.75)
    grid = make_grid(dom, 40)
    _lemma_records(grid, 8)
    # the sup-norm points, four Gram forms, two read-outs (each a matrix R
    # and a mass row) and one Lemma 3 prefactor
    assert len(grid.series_tables) == 8
    values = list(grid.series_tables.values())
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    arrays += [a for v in values if isinstance(v, tuple) for a in v if isinstance(a, np.ndarray)]
    assert len(arrays) == 9
    refs = [weakref.ref(grid)] + [weakref.ref(v) for v in arrays]
    del grid, values, arrays
    gc.collect()
    assert all(ref() is None for ref in refs)
    op = assemble_bertero_grunbaum(dom, 16)
    coeffs = project_coefficients(op, sample(legendre(np.ones(16), dom), op.grid.nodes))
    assert np.allclose(coeffs, 1.0, rtol=1e-12) and len(op.grid.series_tables) == 1
    projection = weakref.ref(op.basis.tables(op.grid, (0,))[0])
    del op
    gc.collect()
    assert projection() is None


def test_a_lemma_call_reads_the_memo_once_and_lemma_3_twice():
    # once a grid holds a basis' read-out, a Lemma 2 call makes one memo
    # read (the read-out) and a Lemma 3 call two (the read-out and the
    # prefactor), whatever the call count
    dom = Interval(0.5, 2.25)
    grid = make_grid(dom, 48)
    rng = make_rng(21)
    sines, positives = random_sine_series(dom, 101, rng), random_nonnegative_series(dom, 101, rng)
    memo = _counting_memo(grid)
    verify_lemma2(sines[0], grid)  # each builds its read-out
    verify_lemma3(positives[0], grid, 1.0)
    memo.reads.clear()
    memo.stores.clear()
    points = stability._sup_points
    sine, leg = FunctionKind.SINE_SERIES, FunctionKind.LEGENDRE_SERIES
    for f in sines[1:]:
        verify_lemma2(f, grid)
    assert memo.reads == {(sine, 12, points): 100}
    memo.reads.clear()
    for f in positives[1:]:
        verify_lemma3(f, grid, 1.0)
    assert memo.reads == {(leg, 10, points): 100, ("lemma3_prefactor", 1.0): 100}
    assert not memo.stores


def test_each_verifier_keeps_its_refusal_texts(bg128):
    ab = Interval(1.0, 2.0)
    grid = make_grid(ab, 64)
    off = FunctionRep(FunctionKind.SINE_SERIES, [1.0, 0.2], UNIT)
    half = make_grid(half_line_for(ab), 16)
    sine = FunctionRep(FunctionKind.SINE_SERIES, [1.0, 0.2], ab)
    dec = bg128.eigensystem
    fourth = assemble_fourth_order(ab, half_line_for(ab), 8, SignVariant.AS_PROOF_BOUND)
    lemma1_series = "lemma 1 reads a Legendre series of at most {} terms"
    cases = [
        (lambda: verify_lemma2(off, grid), "function domain does not match grid domain"),
        (lambda: verify_lemma3(off, grid, 1.0), "function domain does not match grid domain"),
        (lambda: verify_lemma1(off, bg128, dec, 1.0), "function domain does not match grid domain"),
        (lambda: verify_lemma1(sine, bg128, dec, 1.0), lemma1_series.format(128)),
        (lambda: verify_lemma1(legendre(np.ones(129), ab), bg128, dec, 1.0),
         lemma1_series.format(128)),
        (lambda: verify_lemma1(ExpPoly([1.0], 1.0), fourth, fourth.eigensystem, 1.0),
         lemma1_series.format(8)),
        (lambda: l2_norm(off, grid), "function domain does not match grid domain"),
        (lambda: h1_seminorm(off, grid), "function domain does not match grid domain"),
        (lambda: verify_lemma2(sine, half),
         "lemmas 2 and 3 hold on a bounded interval, not a half line"),
        (lambda: verify_lemma3(sine, half, 1.0),
         "lemmas 2 and 3 hold on a bounded interval, not a half line"),
        (lambda: verify_lemma3(FunctionRep(FunctionKind.SINE_SERIES, [-1.0], ab), grid, 1.0),
         "lemma 3 applies to nonnegative functions only"),
    ]
    for call, text in cases:
        with pytest.raises(InvalidArgumentError) as exc:
            call()
        assert str(exc.value) == text
    with pytest.raises(InsufficientDataError) as exc:
        verify_lemma1(legendre(dec.eigenvectors[:, -1], ab), bg128, dec, 1e6)
    assert re.fullmatch(r"threshold index \d+ exceeds the 128 trial modes", str(exc.value))


# ----------------------------------------------------------------------------
# Lemma 3
# ----------------------------------------------------------------------------

def test_lemma3_constant_function():
    grid = make_grid(UNIT, 32)
    rec = verify_lemma3(legendre([1.0], UNIT), grid, c2=1.0)
    assert rec.passed
    assert rec.lhs == pytest.approx(1.0, rel=1e-14)
    assert rec.c1 <= math.sqrt(UNIT.length) / 2.0 + 1e-12


def test_lemma3_quadratic_oracle():
    # f = x^2 on [0,1]: int f = 1/3, ||f|| = 1/sqrt(5), ||f_x|| = 2/sqrt(3)
    grid = make_grid(UNIT, 32)
    # x^2 in orthonormalized Legendre on [0,1]
    coeffs = np.array([1.0 / 3.0, 1.0 / (2.0 * np.sqrt(3.0)), 1.0 / (6.0 * np.sqrt(5.0))])
    f = legendre(coeffs, UNIT)
    xs = np.linspace(0, 1, 7)
    assert sample(f, xs) == pytest.approx(xs ** 2, abs=1e-13)
    rec = verify_lemma3(f, grid, c2=1.0)
    assert rec.lhs == pytest.approx(1.0 / 3.0, rel=1e-12)
    ratio = h1_seminorm(f, grid) / (1.0 / np.sqrt(5.0))
    assert ratio == pytest.approx((2.0 / np.sqrt(3.0)) * np.sqrt(5.0), rel=1e-12)
    assert rec.passed


def test_lemma3_zero_function_vacuous():
    grid = make_grid(UNIT, 16)
    rec = verify_lemma3(legendre([0.0], UNIT), grid, c2=2.0)
    assert rec.passed and rec.lhs == 0.0 and rec.rhs == 0.0


def test_lemma3_rejects_sign_changing():
    grid = make_grid(UNIT, 32)
    f = FunctionRep(FunctionKind.SINE_SERIES, [0.0, 1.0], UNIT)  # sin(2 pi x)
    with pytest.raises(InvalidArgumentError):
        verify_lemma3(f, grid, c2=1.0)


def test_lemma3_prefactor_monotone_in_c2():
    dom = Interval(1.0, 2.0)
    # larger c2 weakens the exponential, so the same c1 clamp applies sooner
    vals = [lemma3_prefactor(c2, dom) for c2 in (0.5, 1.0, 4.0)]
    assert all(v > 0 for v in vals)
    assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
    grid = make_grid(dom, 16)
    for c2 in (-1.0, 0.0, math.nan, math.inf):  # NaN fails every comparison
        with pytest.raises(InvalidArgumentError, match="^c2 must be positive and finite$"):
            lemma3_prefactor(c2, dom)
        with pytest.raises(InvalidArgumentError, match="^c2 must be positive and finite$"):
            verify_lemma3(legendre([1.0], dom), grid, c2)
    assert not [key for key in grid.series_tables if key[0] == "lemma3_prefactor"]


@pytest.mark.parametrize("c2, length", [
    (1.0, 1.0),     # interior minimum h(x*) below the clamp L/4
    (0.3, 2.0),     # interior minimum, longer interval
    (3.0, 1.0),     # x* = 9/16 < L, but h(x*) is above L/4
    (8.0, 1.0),     # x* = 4 > L: the minimum over (0, L] sits at L
    (20.0, 0.01),   # h is e^{100}/200 at x = L: only logs stay finite
])
def test_lemma3_prefactor_is_the_brute_force_minimum(c2, length):
    # c1^2 = min(L/4, min over 0 < x <= L of (x/2) e^{c2/(2 sqrt(x L))}),
    # minimized here by a dense scan of log h over twelve decades below L
    x = length * np.logspace(-12.0, 0.0, 400_001)
    log_h = c2 / (2.0 * np.sqrt(x * length)) + np.log(x / 2.0)
    want = math.exp(0.5 * min(math.log(length / 4.0), float(log_h.min())))
    assert lemma3_prefactor(c2, Interval(1.0, 1.0 + length)) == pytest.approx(want, rel=1e-8)


# ----------------------------------------------------------------------------
# Lemma 1
# ----------------------------------------------------------------------------

def test_lemma1_first_eigenfunction(bg128):
    dec = eig_sym(bg128.stiffness)
    f = legendre(dec.eigenvectors[:, 0], Interval(1.0, 2.0))
    rec = verify_lemma1(f, bg128, dec, c=5.0)
    assert rec.threshold_index >= 1
    assert rec.low_freq_mass == pytest.approx(1.0, abs=1e-10)
    assert rec.passed


def test_lemma1_deep_eigenfunction(bg128):
    dec = eig_sym(bg128.stiffness)
    c = lemma1_constant(bg128, dec, [10.0])
    m = 8
    f = legendre(dec.eigenvectors[:, m - 1], Interval(1.0, 2.0))
    rec = verify_lemma1(f, bg128, dec, c)
    # the growth bound forces the threshold at or beyond the mode itself
    assert rec.threshold_index >= m
    assert rec.passed


def test_lemma1_random_ensemble(bg128):
    dec = eig_sym(bg128.stiffness)
    rng = make_rng(42)
    vectors = random_trial_mix(dec, 50, rng)
    funcs = [legendre(v, Interval(1.0, 2.0)) for v in vectors]
    ratios = [float(v @ bg128.stiffness @ v) / h1_seminorm(f, bg128.grid) ** 2
              for v, f in zip(vectors, funcs)]
    c = lemma1_constant(bg128, dec, ratios)
    assert all(verify_lemma1(f, bg128, dec, c).passed for f in funcs)


# ----------------------------------------------------------------------------
# Constant fitting and theorem verification
# ----------------------------------------------------------------------------

def test_fit_synthetic_exponential_exact():
    r = np.linspace(0.5, 8.0, 10)
    sweep = SweepData(np.arange(1, 11), r, 2.0 * np.exp(-3.0 * r), "synthetic", "synthetic")
    fit = fit_constants_from_sweep(sweep, EXPONENTIAL)
    assert fit.c1 == pytest.approx(2.0, rel=1e-10)
    assert fit.c2 == pytest.approx(3.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_synthetic_power_of_ratio():
    r = np.linspace(1.0, 9.0, 12)
    c1, c2 = 0.7, 0.9
    lhs = c1 * (c2 * r) ** (-c2 * r)
    sweep = SweepData(np.arange(1, 13), r, lhs, "synthetic", "synthetic")
    fit = fit_constants_from_sweep(sweep, POWER_OF_RATIO)
    assert fit.c1 == pytest.approx(c1, rel=1e-9)
    assert fit.c2 == pytest.approx(c2, rel=1e-9)
    assert fit.r_squared >= 1.0 - 1e-8


def test_power_fit_recovers_exact_data_over_the_scan():
    # c1 (c2 r)^(-c2 r) at 60 values of c2 over four ratio ranges.  The
    # profile is not unimodal: a search that assumes it is can return
    # c2 = 0.0053 for c2 = 0.047 on [1.5, 12].  A lhs that is subnormal
    # carries fewer than 53 bits, so c1 is held to 1e-9 only where every
    # lhs is a normal float; with fewer than 4 lhs above 0 the fit refuses
    c1 = 0.7
    for lo, hi in [(1.0, 9.0), (1.5, 12.0), (0.2, 34.0), (3.0, 40.0)]:
        r = np.linspace(lo, hi, 12)
        for c2 in np.exp(np.linspace(-5.5, 2.5, 60)):
            with np.errstate(under="ignore"):
                lhs = c1 * (c2 * r) ** (-c2 * r)
            sweep = SweepData(np.arange(1, 13), r, lhs, "synthetic", "synthetic")
            if np.sum(lhs > 0) < 4:
                with pytest.raises(InsufficientDataError):
                    fit_constants_from_sweep(sweep, POWER_OF_RATIO)
                continue
            fit = fit_constants_from_sweep(sweep, POWER_OF_RATIO)
            assert fit.c2 == pytest.approx(c2, rel=1e-9), (lo, hi, c2)
            if np.all(lhs >= np.finfo(float).tiny):
                assert fit.c1 == pytest.approx(c1, rel=1e-9), (lo, hi, c2)


def test_power_fit_is_stable_under_roundoff_in_the_ratios():
    # 3e-15 relative in the ratios, about what a change of quadrature grid
    # makes, moves the fitted constants by roundoff, not by the width to
    # which a search brackets the flat profile's minimizer
    sweep = Problem(parse_operator("fourier")).sweep
    fit = fit_constants_from_sweep(sweep, POWER_OF_RATIO)
    sign = (-1.0) ** np.arange(len(sweep.ratios))
    moved = fit_constants_from_sweep(SweepData(sweep.indices, sweep.ratios * (1.0 + 3e-15 * sign),
                                               sweep.lhs, "synthetic", "synthetic"), POWER_OF_RATIO)
    assert moved.c1 == pytest.approx(fit.c1, rel=1e-12)
    assert moved.c2 == pytest.approx(fit.c2, rel=1e-12)


@pytest.mark.parametrize("c2, r", [(math.exp(-7.0), np.linspace(1.0, 9.0, 12)),
                                   (math.exp(4.0), np.linspace(0.01, 0.1, 12))],
                         ids=["below", "above"])
def test_power_fit_refuses_a_minimum_at_an_end_of_the_scan(c2, r):
    sweep = SweepData(np.arange(1, 13), r, 0.7 * (c2 * r) ** (-c2 * r), "synthetic", "synthetic")
    with pytest.raises(InsufficientDataError, match="end"):
        fit_constants_from_sweep(sweep, POWER_OF_RATIO)


def test_fit_requires_positive_constants():
    r = np.linspace(0.5, 5.0, 8)
    sweep = SweepData(np.arange(1, 9), r, np.exp(+r), "synthetic", "synthetic")
    with pytest.raises(InvalidArgumentError):
        fit_constants_from_sweep(sweep, EXPONENTIAL)


def test_verify_theorem_zero_violations_small(laplace_M):
    from illposed.stability import eigenfunction_sweep
    import illposed
    bg = illposed.assemble_bertero_grunbaum(Interval(1.0, 2.0), 64)
    sweep = eigenfunction_sweep(laplace_M, bg, 10)
    fit = fit_constants_from_sweep(sweep, EXPONENTIAL)
    assert fit.r_squared >= 0.95
    ens = random_sine_series(Interval(1.0, 2.0), 60, make_rng(1))
    recs = verify_theorem(laplace_M, fit, ens)
    assert violation_count(recs) == 0


def test_violation_count_leaves_out_errors():
    # a record that raised is unsatisfied, but it is an error, not a violation
    nan = math.nan
    recs = [StabilityRecord("f0000", nan, nan, nan, False, error="boom"),
            StabilityRecord("f0001", 0.1, 1.0, 0.5, False),
            StabilityRecord("f0002", 1.0, 1.0, 0.5, True)]
    assert violation_count(recs) == 1


def test_verify_theorem_records_errors(laplace_M):
    fit = StabilityFit(1.0, 1.0, EXPONENTIAL, 1.0, "synthetic")
    bad = FunctionRep(FunctionKind.SINE_SERIES, [1.0], Interval(0.0, 1.0))
    good = FunctionRep(FunctionKind.SINE_SERIES, [1.0], Interval(1.0, 2.0))
    recs = verify_theorem(laplace_M, fit, [bad, good])
    assert recs[0].error is not None and not recs[0].satisfied
    assert recs[1].error is None


def test_scale_invariance_of_verdicts(laplace_M):
    fit = StabilityFit(0.06, 0.3, EXPONENTIAL, 0.98, "synthetic")
    f = FunctionRep(FunctionKind.SINE_SERIES, [0.2, -0.7, 0.4], Interval(1.0, 2.0))
    f17 = FunctionRep(FunctionKind.SINE_SERIES, 17.0 * f.payload, Interval(1.0, 2.0))
    r1 = verify_theorem(laplace_M, fit, [f])[0]
    r2 = verify_theorem(laplace_M, fit, [f17])[0]
    assert r1.satisfied == r2.satisfied
    assert r1.h1_ratio == pytest.approx(r2.h1_ratio, rel=1e-12)


def _reference_record(M, fit, f, i):
    """One record the per-function way: f sampled on M's grid, the half factor
    for ||T f||, and the closed-form derivatives for the oscillation ratio."""
    fid = f"f{i:04d}"
    try:
        l2_norm(f, M.grid)
    except InvalidArgumentError as exc:
        return fid, math.nan, math.nan, math.nan, False, str(exc)
    t, w = M.grid.nodes, M.grid.weights

    def norm(v, weight=1.0):
        return math.sqrt(float(np.dot(w, weight * v * v)))
    v = sample(f, t)
    if norm(v) == 0.0:
        return fid, 0.0, 0.0, 0.0, True, None
    Av = M.half_factor @ (np.sqrt(w) * v)
    lhs = math.sqrt(float(np.dot(Av, Av)))
    df = derivative_values(f, t)
    if isinstance(f, ExpPoly):  # Theorem 2's aggregate
        d2 = derivative_values(f, t, 2)
        ratio = (norm(d2, t ** 2) + norm(df, t ** 2) + norm(v, t ** 2) + norm(v)) / norm(v)
    else:
        ratio = norm(df) / norm(v)
    rhs = fit.lower_bounds([ratio], [norm(v)])[0]
    return fid, lhs, ratio, rhs, lhs >= rhs, None


def _check_against_reference(M, fit, ens):
    recs = verify_theorem(M, fit, ens)
    ref = [_reference_record(M, fit, f, i) for i, f in enumerate(ens)]
    assert [(r.function_id, r.satisfied, r.error) for r in recs] == \
        [(fid, ok, err) for fid, _, _, _, ok, err in ref]
    got = np.array([(r.lhs, r.h1_ratio, r.rhs_at_fit) for r in recs])
    want = np.array([row[1:4] for row in ref])
    ok = ~np.isnan(want)
    assert np.array_equal(np.isnan(got), ~ok)
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-13 * np.abs(want[ok]))
    return recs


def test_verify_theorem_batch_matches_per_function_reference(laplace_M, adjoint_M, ab):
    rng = make_rng(11)
    fit = StabilityFit(10.0, 0.3, EXPONENTIAL, 0.98, "synthetic")  # some verdicts fail
    # one group larger than a block, so a block boundary falls inside it
    ens = random_sine_series(ab, _BLOCK + 12, rng)
    for _ in range(20):  # 7-mode series, drawn as random_sine_series draws its 12 modes
        c = rng.standard_normal(7) / np.arange(1, 8.0) ** 2
        ens.append(FunctionRep(FunctionKind.SINE_SERIES,
                               c / (np.linalg.norm(c) * math.sqrt(ab.length / 2.0)), ab))
    ens += [FunctionRep(FunctionKind.COSINE_SERIES, [0.3, -0.2, 0.5], ab),
            FunctionRep(FunctionKind.SINE_SERIES, [1.0], UNIT),  # wrong domain
            FunctionRep(FunctionKind.SINE_SERIES, np.zeros(12), ab),
            ExpPoly([1.0], 1.0)]  # half-line function on an interval operator
    ens = [ens[i] for i in rng.permutation(len(ens))]
    recs = _check_against_reference(laplace_M, fit, ens)
    assert {r.satisfied for r in recs if r.error is None} == {True, False}
    assert sum(r.error is not None for r in recs) == 2

    adj = [ExpPoly(rng.standard_normal(d + 1) / 2.0 ** np.arange(d + 1),
                   float(rng.uniform(1.0, 2.0)))
           for d in range(6) for _ in range(5)]
    adj += [ExpPoly([0.0], 1.0), FunctionRep(FunctionKind.SINE_SERIES, [1.0], ab)]
    _check_against_reference(adjoint_M, StabilityFit(0.5, 0.5, EXPONENTIAL, 0.98, "synthetic"),
                             [adj[i] for i in rng.permutation(len(adj))])


def test_per_basis_images_match_the_per_sample_products(laplace_M, fourier_M, ab):
    # verify_theorem sums a series block's images as (A sqrt(w) T) C; the
    # per-sample order A (sqrt(w) T C) is the reference
    fit = StabilityFit(1.0, 1.0, EXPONENTIAL, 1.0, "synthetic")
    for M, dom in ((laplace_M, ab), (fourier_M, SYM)):
        ens = random_sine_series(dom, 2 * _BLOCK + 44, make_rng(17))
        got = np.array([r.lhs for r in verify_theorem(M, fit, ens)])
        t, w = M.grid.nodes, M.grid.weights
        images = M.half_factor @ (np.sqrt(w)[:, None] * np.array([sample(f, t) for f in ens]).T)
        want = np.sqrt(np.einsum("ij,ij->j", images, images))
        assert np.max(np.abs(got - want) / want) <= 1e-14, M.kind.to_string()


def test_random_sine_series_is_the_per_function_draw():
    # one (count, SINE_MODES) draw reads the stream as count draws of
    # SINE_MODES do, and each row keeps its own norm (an axis=1 norm sums in
    # another order: at this seed it moves the last bit of 1,450 of the norms)
    count, dom = 5000, Interval(1.0, 2.0)
    rng = make_rng(7)
    k = np.arange(1, SINE_MODES + 1, dtype=float)
    want = []
    for _ in range(count):
        c = rng.standard_normal(SINE_MODES) / k ** SINE_DECAY
        c /= np.linalg.norm(c) * math.sqrt(dom.length / 2.0)
        want.append(c)
    got = random_sine_series(dom, count, make_rng(7))
    assert len(got) == count
    assert all(f.domain == dom and f.kind is FunctionKind.SINE_SERIES for f in got)
    assert all(np.array_equal(f.payload, c) for f, c in zip(got, want))


def test_verify_theorem_memory_stays_flat(laplace_M, ab):
    # blocks keep the sample matrices small: one 256 x 4096 matrix is 8.4 MB
    ens = random_sine_series(ab, 4096, make_rng(5))
    fit = StabilityFit(0.06, 0.3, EXPONENTIAL, 0.98, "synthetic")
    tracemalloc.start()
    try:
        recs = verify_theorem(laplace_M, fit, ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(recs) == 4096 and peak < 8e6


def test_lemma_ensembles_zero_violations(ab):
    grid = make_grid(ab, 128)
    rng = make_rng(7)
    for f in random_sine_series(ab, 100, rng):
        assert verify_lemma2(f, grid).passed
    for f in random_nonnegative_series(ab, 100, rng):
        assert verify_lemma3(f, grid, c2=1.0).passed


def test_figure3_function_satisfies_theorem3(fourier_M, prolate128):
    from illposed.adversarial import FIGURES, FigureId
    from illposed.stability import eigenfunction_sweep
    sweep = eigenfunction_sweep(fourier_M, prolate128, 12)
    fit = fit_constants_from_sweep(sweep, POWER_OF_RATIO)
    f = FIGURES[FigureId.FIG3].function()
    rec = verify_theorem(fourier_M, fit, [f])[0]
    assert rec.satisfied  # large ratio makes the bound astronomically small
    # a near-invisible function: its image is 1.5e-6 of f, summed from term
    # images up to 5,000 times larger; the closed-form transform is the reference
    want = math.sqrt(fourier_image_energy(f, fourier_M.size))
    assert abs(rec.lhs - want) <= 5e-11 * want


# ----------------------------------------------------------------------------
# Eigenfunction sweeps keep only resolved modes
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["laplace", "fourier"])
def test_sweep_ratios_match_per_mode_functions(which, laplace_M, fourier_M,
                                               bg128, prolate128):
    M, diff = (laplace_M, bg128) if which == "laplace" else (fourier_M, prolate128)
    rep = match_eigenfunctions(M, diff, 12)
    sweep = sweep_from_report(M, diff, rep)
    # reference: each mode as a Legendre series, normed on the operator grid
    fit = StabilityFit(1.0, 1.0, EXPONENTIAL, 1.0, "synthetic")
    ref = [r.h1_ratio for r in verify_theorem(
        M, fit, [legendre(c, diff.basis.domain) for c in rep.vectors.T[:len(sweep.indices)]])]
    assert np.max(np.abs(sweep.ratios / ref - 1.0)) <= 1e-12


@pytest.mark.parametrize("text", ["laplace:a=1,b=2", "laplace:a=0.01,b=1", "fourier"])
def test_sweep_ratios_equal_those_on_a_gauss_grid_of_the_basis(text):
    # oracle: the matched modes on N + 8 Gauss nodes of the basis domain,
    # exact for the polynomial integrands, not on the Problem's grid
    p = Problem(parse_operator(text))
    U = p.report.vectors[:, :len(p.sweep.indices)]
    grid = make_grid(p.diff.basis.domain, p.diff.size + 8)
    f, df = (T @ U for T in p.diff.basis.tables(grid, (0, 1)))
    ref = np.sqrt((grid.weights @ df ** 2) / (grid.weights @ f ** 2))
    assert np.max(np.abs(p.sweep.ratios / ref - 1.0)) <= 1e-13


@pytest.mark.parametrize("text, tol", [("laplace-adjoint:a=1,b=2", 1e-13),
                                       ("laplace-adjoint:a=0.5,b=3", 1e-13),
                                       ("laplace-adjoint:a=0.1,b=1", 1e-10)])
def test_adjoint_sweep_ratios_equal_the_exact_laguerre_forms(text, tol):
    # oracle: ||t u^(r)|| over [0, inf) is ||X0 D^r c|| in the coefficients,
    # and ||u|| is ||c||, with no quadrature.  On [0.1, 1] the Problem's
    # 32 nodes per panel on [0, 400] resolve the modes to 2.5e-11
    p = Problem(parse_operator(text))
    U = p.report.vectors[:, :len(p.sweep.indices)]
    X0, D = p.diff.basis.times_t, p.diff.basis.derivative
    norm = np.linalg.norm(U, axis=0)
    ref = sum(np.linalg.norm(X0 @ np.linalg.matrix_power(D, k) @ U, axis=0)
              for k in (2, 1, 0)) / norm + 1.0
    assert np.max(np.abs(p.sweep.ratios / ref - 1.0)) <= tol


@pytest.mark.parametrize("text", ["laplace:a=1,b=2", "fourier", "laplace-adjoint:a=1,b=2"])
def test_sweep_modes_sit_above_the_solver_floor(text):
    p = Problem(parse_operator(text), 256, 128, 12)
    mu1 = decompose_operator(p.matrix).eigenvalues[0]
    assert np.all(p.sweep.lhs ** 2 > SVD_FLOOR * mu1)
    expected = 11 if text == "fourier" else 12  # Fourier resolves 11 modes at n = 256
    assert len(p.sweep.indices) == expected
    assert p.fit.ensemble_descriptor.endswith(f"m={expected}")


def test_fourier_power_fit_is_stable_under_grid_refinement():
    c1 = [Problem(parse_operator("fourier"), n, 128, 12).fit.c1 for n in (128, 256, 512)]
    assert (max(c1) - min(c1)) / min(c1) < 1e-5


def test_adjoint_block_builds_one_power_basis_and_one_envelope(adjoint_M, monkeypatch):
    # f, f' and f'' of an adjoint block come from one np.vander and one
    # envelope exp(-outer(t, rates)): two blocks, two of each
    rng = make_rng(3)
    ens = [ExpPoly(rng.standard_normal(4), float(rng.uniform(1.0, 2.0)))
           for _ in range(_BLOCK + 10)]
    calls = {"vander": 0, "outer": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    recs = verify_theorem(adjoint_M, StabilityFit(0.5, 0.5, EXPONENTIAL, 0.98, "synthetic"), ens)
    assert calls == {"vander": 2, "outer": 2}
    assert all(r.error is None for r in recs)


def test_verify_theorem_refuses_a_series_group_the_grid_does_not_resolve(ab):
    # 16 nodes resolve a 3-mode sine family but not a 12-mode one: each
    # function of the unresolved group gets the orthonormality error
    M = Problem(parse_operator("laplace:a=1,b=2"), 16).matrix
    sine = FunctionKind.SINE_SERIES
    with pytest.raises(InvalidArgumentError, match="not orthonormal"):
        check_orthonormal(sine, 12, M.grid)
    check_orthonormal(sine, 3, M.grid)
    ens = random_sine_series(ab, 5, make_rng(2))
    ens += [FunctionRep(sine, [0.3, -0.2, 0.1], ab) for _ in range(3)]
    recs = verify_theorem(M, StabilityFit(1.0, 1.0, EXPONENTIAL, 1.0, "synthetic"), ens)
    assert [r.error is None for r in recs] == [False] * 5 + [True] * 3
    assert all("not orthonormal" in r.error and math.isnan(r.lhs) for r in recs[:5])
    assert violation_count(recs) == 0


def test_verify_theorem_checks_each_series_group_once(ab, monkeypatch):
    # a group shares its kind, size and domain, so one check settles it,
    # whether the grid refuses it (12 modes on 16 nodes) or resolves it (3 modes)
    checks = []

    def counted(kind, size, grid):
        checks.append((kind, size))
        return check_orthonormal(kind, size, grid)
    monkeypatch.setattr(stability, "check_orthonormal", counted)
    M = Problem(parse_operator("laplace:a=1,b=2"), 16).matrix
    sine = FunctionKind.SINE_SERIES
    ens = random_sine_series(ab, 300, make_rng(4))
    ens += [FunctionRep(sine, [0.3, -0.2, 0.1], ab) for _ in range(200)]
    recs = verify_theorem(M, StabilityFit(1.0, 1.0, EXPONENTIAL, 1.0, "synthetic"), ens)
    assert checks == [(sine, 12), (sine, 3)]
    message = "sine-series basis of 12 functions is not orthonormal on the grid of 16 nodes"
    assert [r.error for r in recs] == [message] * 300 + [None] * 200


# ----------------------------------------------------------------------------
# Norms from forms against a sampled quadrature, one function at a time
# ----------------------------------------------------------------------------

_SERIES_FAMILIES = {  # kind, size, amplitude decay 1/k^decay
    "sine": (FunctionKind.SINE_SERIES, 12, 2.0),
    "cosine": (FunctionKind.COSINE_SERIES, 12, 2.0),
    "legendre": (FunctionKind.LEGENDRE_SERIES, 10, 2.0),
    "legendre-128": (FunctionKind.LEGENDRE_SERIES, 128, 1.0),
}


def _family(name, count, rng, ab):
    if name == "exp-poly":
        return random_exp_poly(count, rng)
    kind, size, decay = _SERIES_FAMILIES[name]
    k = np.arange(1, size + 1)
    return [FunctionRep(kind, rng.standard_normal(size) / k ** decay, ab) for _ in range(count)]


def _nonnegative(f):
    """f with its first coefficient raised until f >= 0: |sin k t| <= k sin t
    for a sine series, |P_k| <= sqrt((2k + 1)/L) for orthonormal Legendre."""
    c = f.payload.copy()
    k = np.arange(1, len(c))
    scale = k + 1.0 if f.kind is FunctionKind.SINE_SERIES else np.sqrt(2 * k + 1.0)
    c[0] = 1.0 + float(np.sum(np.abs(c[1:]) * scale))
    return FunctionRep(f.kind, c, f.domain)


def _sampled(f, grid, orders):
    """(||f||, ratio) from f's samples on grid, one weighted sum per norm:
    ||f'||/||f||, or with three orders the Theorem-2 aggregate."""
    w, t = grid.weights, grid.nodes
    v = [sample(f, t, k) for k in orders]
    norm = math.sqrt(np.dot(w, v[0] ** 2))
    if len(orders) == 3:
        top = sum(math.sqrt(np.dot(w * t ** 2, s ** 2)) for s in v[::-1]) + norm
    else:
        top = math.sqrt(np.dot(w, v[1] ** 2))
    return norm, top / norm


def _close(got, want, label, rel=1e-14):
    assert abs(got - want) <= rel * abs(want), (label, got, want)


@pytest.mark.parametrize("family", ["sine", "cosine", "legendre", "legendre-128", "exp-poly"])
def test_records_from_forms_match_a_sampled_quadrature(family, ab, laplace_M, adjoint_M):
    # the forms give what sampling each function on the grid gives, to 1e-14:
    # theorem lhs and ratio, and the bound at the sampled norm (the bound's
    # exponential magnifies a ratio's rounding by c2 times the ratio, up to
    # 400 for 128 Legendre terms, so the rhs is compared at the record's
    # ratio); Lemma 2's bound; Lemma 3's mass, bound and prefactor
    M = adjoint_M if family == "exp-poly" else laplace_M
    grid, orders = M.grid, M.kind.record.ratio_orders
    funcs = _family(family, 200, make_rng(17), ab)
    fit = StabilityFit(0.5, 0.3, EXPONENTIAL, 1.0, "synthetic")
    for f, rec in zip(funcs, verify_theorem(M, fit, funcs)):
        assert rec.error is None
        norm, ratio = _sampled(f, grid, orders)
        image = M.half_factor @ (np.sqrt(grid.weights) * sample(f, grid.nodes))
        _close(rec.lhs, math.sqrt(np.dot(image, image)), "lhs")
        _close(rec.h1_ratio, ratio, "ratio")
        _close(rec.rhs_at_fit, fit.lower_bounds([rec.h1_ratio], [norm])[0], "rhs")
    if family == "exp-poly":
        return
    length = ab.length
    for f in funcs:
        norm, ratio = _sampled(f, grid, (0, 1))
        _close(verify_lemma2(f, grid).bound, math.sqrt(length) * norm * ratio, "bound")
    if family == "cosine":  # a cosine series of k >= 1 has mean 0: never nonnegative
        return
    c1 = lemma3_prefactor(1.0, ab)
    for f in map(_nonnegative, funcs):
        rec = verify_lemma3(f, grid, 1.0)
        norm, ratio = _sampled(f, grid, (0, 1))
        assert rec.c1 == c1
        _close(rec.lhs, np.dot(grid.weights, sample(f, grid.nodes)), "mass")
        _close(rec.rhs, c1 * math.exp(-ratio) * norm, "rhs")


@pytest.mark.parametrize("family, c", [("legendre", 1.0), ("legendre-128", 0.5)])
def test_lemma1_from_coefficients_matches_a_sampled_projection(family, c, ab, bg128):
    # the reference samples each function on the operator's grid, projects
    # the samples on the trial basis and takes the ratio from the samples:
    # the same threshold, refusal and verdict as the record read from the
    # coefficients and the Gram forms, and the same mass to 1e-14 (each c
    # gives two outcomes: passed and failed for 10 terms, passed and refused
    # past the 128 trial modes for 128 terms)
    from illposed.diff_ops import project_coefficients
    dec, grid = bg128.eigensystem, bg128.grid
    outcomes = collections.Counter()
    for f in _family(family, 200, make_rng(19), ab):
        coeffs = project_coefficients(bg128, sample(f, grid.nodes))
        coeffs = coeffs / math.sqrt(np.dot(coeffs, coeffs))
        threshold = math.floor(c * _sampled(f, grid, (0, 1))[1])
        if threshold > dec.size:
            with pytest.raises(InsufficientDataError):
                verify_lemma1(f, bg128, dec, c)
            outcomes["refused"] += 1
            continue
        overlaps = dec.eigenvectors[:, :threshold].T @ coeffs
        mass = float(np.dot(overlaps, overlaps))
        rec = verify_lemma1(f, bg128, dec, c)
        assert rec.threshold_index == threshold
        assert abs(rec.low_freq_mass - mass) <= 1e-14, (rec.low_freq_mass, mass)
        assert rec.passed == (mass >= 0.5 - 1e-10)
        outcomes[rec.passed] += 1
    assert len(outcomes) >= 2, outcomes  # two of refused, passed and failed


@pytest.mark.parametrize("family", ["sine", "legendre", "exp-poly"])
def test_a_zero_function_in_a_block_has_a_zero_record(family, ab, laplace_M, adjoint_M):
    # its image is the zero column, and its ratio and bound are set to 0, not
    # divided: the suite turns a 0/0 RuntimeWarning into a failure
    M = adjoint_M if family == "exp-poly" else laplace_M
    rng = make_rng(5)
    if family == "exp-poly":
        funcs = [ExpPoly(rng.standard_normal(4), 1.5) for _ in range(6)]
        funcs.insert(3, ExpPoly(np.zeros(4), 1.5))
    else:
        funcs = _family(family, 6, rng, ab)
        funcs.insert(3, FunctionRep(funcs[0].kind, np.zeros(len(funcs[0].payload)), ab))
    recs = verify_theorem(M, StabilityFit(0.5, 0.3, EXPONENTIAL, 1.0, "synthetic"), funcs)
    zero = recs[3]
    assert (zero.lhs, zero.h1_ratio, zero.rhs_at_fit) == (0.0, 0.0, 0.0)
    assert zero.satisfied and zero.error is None
    assert all(r.lhs > 0.0 and r.h1_ratio > 0.0 and r.rhs_at_fit > 0.0
               for r in recs[:3] + recs[4:])
