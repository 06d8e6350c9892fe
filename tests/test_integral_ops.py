import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from illposed import (FunctionKind, FunctionRep, Interval,
                      InvalidArgumentError, OperatorKind, decompose_operator,
                      fourier_image_energy, gram_matrix, make_grid, parse_operator,
                      quadratic_form)
from illposed import integral_ops
from illposed.functions import check_orthonormal
from illposed.integral_ops import (FACTOR_RTOL, MAX_GRID_SIZE, PROJECTION_RTOL,
                                   REFINEMENT_SLACK, _adjoint_kernel, _half_factor, _trace_gap,
                                   resolved_count)
from illposed.problem import Problem

from conftest import decomposed, kernel_matrix

AB = Interval(1.0, 2.0)
SYM = Interval(-1.0, 1.0)

# 2-D adaptive quadrature oracle for <T*T 1, 1> on [1,2]^2 (= 10 ln 2 - 6 ln 3)
DBLQUAD_ONE_OVER_TPS = 0.3397980735907949


def one_on(domain):
    return FunctionRep(FunctionKind.LEGENDRE_SERIES, [np.sqrt(domain.length)], domain)


def test_kind_validation():
    with pytest.raises(InvalidArgumentError):
        OperatorKind.hilbert_truncated(Interval(0.0, 1.5), Interval(1.0, 2.0))
    with pytest.raises(InvalidArgumentError):
        OperatorKind.laplace_tt(Interval(-1.0, 2.0))
    with pytest.raises(InvalidArgumentError):
        OperatorKind(tag="fourier", source=Interval(-2.0, 2.0))
    OperatorKind.fourier_tt()


def test_parse_operator_strings():
    k = parse_operator("hilbert:I=0,1:J=2,3")
    assert k.source == Interval(0.0, 1.0) and k.target == Interval(2.0, 3.0)
    assert parse_operator("laplace:a=1,b=2").source == AB
    assert parse_operator("laplace-adjoint:a=1,b=2").half.s_max == 40.0
    assert parse_operator("fourier").tag == "fourier"
    with pytest.raises(InvalidArgumentError):
        parse_operator("banana:x=1")
    for text in ("laplace:a=x", "laplace:a=1,b=2,c=3", "laplace:a=1", "laplace:a=1,2,b=3",
                 "laplace:a=1,a=2", "fourier:x=1", "hilbert:I=0,1:J=2",
                 "hilbert:I=0,1:J=1,2"):
        with pytest.raises(InvalidArgumentError):
            parse_operator(text)


def test_operator_names_round_trip():
    # default names print as they always have; no endpoint loses a digit
    for text in ("laplace:a=1,b=2", "laplace-adjoint:a=1,b=2", "fourier",
                 "hilbert:I=0,1:J=2,3", "laplace:a=1e-09,b=2", "laplace:a=0.5,b=100000",
                 "laplace:a=1.0000001,b=2", "hilbert:I=0,1:J=1.000000001,2",
                 "laplace:a=0.1,b=0.30000000000000004"):
        assert parse_operator(text).to_string() == text


_ENDPOINT = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds("hilbert:I={!r},{!r}:J={!r},{!r}".format, _ENDPOINT, _ENDPOINT, _ENDPOINT,
              _ENDPOINT),
    st.builds("laplace:a={!r},b={!r}".format, _ENDPOINT, _ENDPOINT),
    st.builds("laplace-adjoint:a={!r},b={!r}".format, _ENDPOINT, _ENDPOINT),
    st.just("fourier")))
def test_operator_names_round_trip_on_random_endpoints(text):
    # each kind with finite endpoints either parses to a kind whose name parses
    # back to it, or is refused with a message; nothing else is raised
    try:
        kind = parse_operator(text)
    except InvalidArgumentError:
        return
    assert parse_operator(kind.to_string()) == kind


@pytest.mark.parametrize("text,n,resolved", [
    # the adjoint at a = 0.01 loses mode 40 on 128 image nodes; its trace gap
    # does not show it, the refinement check does
    ("laplace-adjoint:a=0.01,b=1", 1024, 40),
    ("hilbert:I=0,1:J=1.1,2", 1024, 15),
    ("laplace:a=1,b=2", 1024, 14),
    ("laplace:a=1,b=2", 512, 14),
    ("fourier", 512, 11),
    ("hilbert:I=0,1:J=2,3", 512, 9),
    # the four defaults, each refined from 16 image nodes at n = 256
    ("laplace:a=1,b=2", 256, 14),
    ("laplace-adjoint:a=1,b=2", 256, 14),
    ("fourier", 256, 11),
    ("hilbert:I=0,1:J=2,3", 256, 9),
    # the largest moves against the cap: a nearly degenerate [a, b], a narrow J
    ("laplace-adjoint:a=1,b=1.00001", 256, 3),
    ("hilbert:I=0,1:J=1.01,1.02", 1024, 11),
])
def test_refined_factor_matches_the_cap_rule(text, n, resolved):
    p = Problem(parse_operator(text), n)
    M = p.matrix
    mu = decompose_operator(M).eigenvalues
    cap = _half_factor(p.kind, p.grid, p.kind.record.image_cap(n))
    ref = np.linalg.svd(cap, compute_uv=False) ** 2
    assert resolved_count(mu) == resolved_count(ref) == resolved
    # accepted by refinement, or the cap rule itself
    assert M.image_refinement <= REFINEMENT_SLACK or M.image_nodes == cap.shape[0]
    k = resolved
    bound = REFINEMENT_SLACK * 2 * np.finfo(float).eps * np.sqrt(ref[0] / ref[:k])
    assert np.all(np.abs(mu[:k] / ref[:k] - 1.0) <= bound)
    assert abs(mu.sum() / ref.sum() - 1.0) <= 1e-14
    assert np.all(mu[M.image_nodes:] == 0.0)


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    st.builds(lambda tag, a, gap: f"{tag}:a={a!r},b={a * (1 + gap)!r}",
              st.sampled_from(["laplace", "laplace-adjoint"]), _log_uniform(1e-3, 1e2),
              _log_uniform(1e-5, 1e3)),
    st.builds(lambda gap, width: f"hilbert:I=0,1:J={1 + gap!r},{1 + gap + width!r}",
              _log_uniform(1e-5, 10.0), _log_uniform(1e-2, 10.0))))
@example("laplace:a=1.0,b=1.00001")
@example("laplace:a=0.001,b=0.00100001")
def test_the_ladder_accepts_what_the_cap_accepts(text):
    # at n = 256 the refined factor is accepted exactly when the cap rule
    # passes its trace check, and it resolves as many modes as the cap
    kind = parse_operator(text)
    p = Problem(kind, 256)
    cap = _half_factor(kind, p.grid, kind.record.image_cap(256))
    trace = float(np.dot(p.grid.weights, kind.record.diagonal(kind, p.grid.nodes)))
    cap_passes = _trace_gap(cap, trace) <= FACTOR_RTOL
    try:
        M = p.matrix
    except InvalidArgumentError:
        assert not cap_passes
        return
    assert cap_passes
    ref = np.linalg.svd(cap, compute_uv=False) ** 2
    assert resolved_count(M.singular_values ** 2) == resolved_count(ref)


@pytest.mark.parametrize("text,rows", [("laplace:a=1,b=2", 512), ("laplace-adjoint:a=1,b=2", 64),
                                       ("fourier", 64), ("hilbert:I=0,1:J=2,3", 64)])
def test_image_rules_stay_small(text, rows, svd_calls):
    # at n = 1024 refinement confirms a factor far below the cap (2048 rows
    # for Laplace, Fourier and Hilbert, 512 for the adjoint) in at most 3 SVDs
    p = Problem(parse_operator(text), 1024)
    M = gram_matrix(p.kind, p.grid)
    assert M.image_nodes <= rows and M.image_refinement <= REFINEMENT_SLACK
    assert len(svd_calls) <= 3


def test_no_rung_is_decomposed_before_its_trace_check(svd_calls):
    # each rung's trace gap is read before its SVD, and a rung that fails it
    # is never decomposed: an input the cap refuses takes no SVD, and one the
    # kernel resolves late (at n = 1024 only rungs of 1024 nodes and more
    # pass) decomposes exactly its passing rungs, the 1024-node rung and the cap
    kind = parse_operator("hilbert:I=0,1:J=1.0001,2")
    with pytest.raises(InvalidArgumentError, match="relative trace gap"):
        gram_matrix(kind, Problem(kind, 256).grid)
    assert svd_calls == []
    M = gram_matrix(kind, Problem(kind, 1024).grid)
    assert [len(a) for a in svd_calls] == [1024, 2048] and svd_calls[-1] is M.half_factor
    assert 0.0 <= M.image_refinement < np.inf
    # on the adjoint at a = 0.01 only the 128-node cap passes: the 64-node
    # rung before it is not decomposed, so the cap is compared with nothing
    # and its refinement is inf
    svd_calls.clear()
    kind = parse_operator("laplace-adjoint:a=0.01,b=1")
    M = gram_matrix(kind, Problem(kind, 256).grid)
    assert M.image_nodes == 128 and M.image_refinement == np.inf
    assert resolved_count(M.singular_values ** 2) == 39
    assert len(svd_calls) == 1 and svd_calls[0] is M.half_factor


def test_kernel_values():
    # the adjoint kernel agrees with the direct difference where that is accurate
    u = 0.999e-3
    direct = (np.exp(-1.0 * u) - np.exp(-2.0 * u)) / u
    assert _adjoint_kernel(np.array([u]), 1.0, 2.0)[0] == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.01, 1.0), (1e-3, 2.0), (100.0, 200.0),
                                 (1.0, 1.0000001)])
def test_adjoint_kernel_against_mpmath(a, b):
    # (e^{-au} - e^{-bu})/u at 50 digits, from the same binary a, b and u, over
    # the u of every interior node; below the smallest normal float only the
    # absolute floor applies, as subnormals carry fewer digits
    u = np.logspace(-12, 3, 301)
    with mpmath.workdps(50):
        ref = np.array([float((mpmath.exp(-mpmath.mpf(a) * mpmath.mpf(x))
                               - mpmath.exp(-mpmath.mpf(b) * mpmath.mpf(x))) / mpmath.mpf(x))
                        for x in u])
    got = _adjoint_kernel(u, a, b)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref) + np.finfo(float).tiny)


def test_gram_matrix_fourier_diagonal():
    grid = make_grid(SYM, 32)
    M = gram_matrix(OperatorKind.fourier_tt(), grid)
    assert np.diag(kernel_matrix(M.kind, grid)) == pytest.approx(2.0 * grid.weights, rel=1e-14)
    # the diagonal of A^T A: squared column norms of the half factor
    col = np.sum(M.half_factor ** 2, axis=0)
    assert col == pytest.approx(2.0 * grid.weights, rel=1e-14)


def test_gram_matrix_laplace_quadratic_form_oracle():
    grid = make_grid(AB, 64)
    M = gram_matrix(OperatorKind.laplace_tt(AB), grid)
    got = quadratic_form(M, one_on(AB))
    # independent oracle: adaptive 2-D quadrature (recomputed here)
    val, err = integrate.dblquad(lambda s, t: 1.0 / (t + s), 1, 2, 1, 2,
                                 epsabs=1e-12, epsrel=1e-12)
    assert val == pytest.approx(DBLQUAD_ONE_OVER_TPS, abs=1e-12)
    assert got == pytest.approx(DBLQUAD_ONE_OVER_TPS, abs=1e-8)


def test_gram_matrices_are_symmetric_psd():
    for kind, grid in [
        (OperatorKind.laplace_tt(AB), make_grid(AB, 48)),
        (OperatorKind.fourier_tt(), make_grid(SYM, 48)),
        (OperatorKind.hilbert_truncated(Interval(0, 1), Interval(2, 3)),
         make_grid(Interval(0.0, 1.0), 48)),
    ]:
        M = kernel_matrix(kind, grid)
        assert np.max(np.abs(M - M.T)) <= 1e-13 * np.max(np.abs(M))
        w = np.linalg.eigvalsh(M)
        assert w[0] >= -1e-10 * w[-1]


@pytest.mark.parametrize("n", [48, 256])
@pytest.mark.parametrize("text", ["laplace:a=1,b=2", "laplace-adjoint:a=1,b=2", "fourier",
                                  "hilbert:I=0,1:J=2,3"])
def test_half_factor_reproduces_the_kernel_matrix(text, n):
    # A^T A against the kernel formulas entry by entry; the Hilbert oracle is
    # the closed-form integral over J, not a quadrature like A's rows
    M = Problem(parse_operator(text), n).matrix
    A = M.half_factor
    gap = np.max(np.abs(kernel_matrix(M.kind, M.grid) - A.T @ A))
    assert gap <= 1e-16 * M.singular_values[0] ** 2


def test_half_factor_agrees_with_kernel_matrix(laplace_M, fourier_M, adjoint_M):
    # sum mu_n = ||A||_F^2 must equal trace(M)
    for M in (laplace_M, fourier_M, adjoint_M):
        trace = np.trace(kernel_matrix(M.kind, M.grid))
        assert abs(np.vdot(M.half_factor, M.half_factor) - trace) <= 1e-13 * trace
    # Hilbert's M is A^T A; its trace is int_I (1/(2-s) - 1/(3-s)) ds / pi^2
    # = ln(4/3) / pi^2 for I = [0, 1], J = [2, 3]
    M = Problem(parse_operator("hilbert:I=0,1:J=2,3")).matrix
    hs = np.log(4.0 / 3.0) / np.pi ** 2
    assert abs(np.vdot(M.half_factor, M.half_factor) - hs) <= 1e-13 * hs
    # image-side rules that miss the kernel mass near the origin, or near
    # the end of I that J almost touches
    for text in ("laplace:a=1e-9,b=2", "laplace-adjoint:a=1e-3,b=2",
                 "hilbert:I=0,1:J=1.0001,2", "hilbert:I=0,1:J=1.000000001,2"):
        kind = parse_operator(text)
        with pytest.raises(InvalidArgumentError, match="disagrees with its kernel matrix "
                                                       "at n = 256"):
            gram_matrix(kind, Problem(kind, 256, 128, 12).grid)
    # 512 output nodes resolve the adjoint kernel at a = 1e-3
    M = Problem(parse_operator("laplace-adjoint:a=1e-3,b=2"), 1024, 128, 12).matrix
    trace = np.trace(kernel_matrix(M.kind, M.grid))
    assert abs(np.vdot(M.half_factor, M.half_factor) - trace) <= FACTOR_RTOL * trace
    # and 2048 output nodes resolve the Hilbert kernel at a gap of 1e-4
    Problem(parse_operator("hilbert:I=0,1:J=1.0001,2"), 1024).matrix


@pytest.mark.parametrize("text", ["laplace:a=1,b=2", "laplace-adjoint:a=1,b=2", "fourier",
                                  "hilbert:I=0,1:J=2,3"])
def test_gram_matrix_holds_only_its_half_factor(text):
    # no n x n array survives: at n = 1024 one would hold 8 MB
    p = Problem(parse_operator(text), 1024)
    grid = p.grid
    tracemalloc.start()
    try:
        M = gram_matrix(p.kind, grid)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= M.half_factor.nbytes + 2 ** 20


def test_zero_function_maps_to_zero():
    grid = make_grid(AB, 32)
    M = gram_matrix(OperatorKind.laplace_tt(AB), grid)
    zero = FunctionRep(FunctionKind.SINE_SERIES, [0.0], AB)
    assert quadratic_form(M, zero) == 0.0


def test_grid_domain_mismatch():
    with pytest.raises(InvalidArgumentError):
        gram_matrix(OperatorKind.laplace_tt(AB), make_grid(Interval(0.0, 1.0), 16))


def test_self_adjoint_bilinearity(laplace_M, ab):
    # parallelogram law: ||T(f+g)||^2 + ||T(f-g)||^2 = 2 ||Tf||^2 + 2 ||Tg||^2
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(10):
        cf, cg = rng.standard_normal(6), rng.standard_normal(6)
        q = [quadratic_form(laplace_M, FunctionRep(FunctionKind.SINE_SERIES, c, ab))
             for c in (cf + cg, cf - cg, cf, cg)]
        assert q[0] + q[1] == pytest.approx(2.0 * (q[2] + q[3]), rel=1e-10, abs=1e-13)


def test_grid_refinement_stability(ab):
    f = FunctionRep(FunctionKind.SINE_SERIES, [0.4, -0.8, 0.2], ab)
    vals = []
    for n in (128, 256):
        M = gram_matrix(OperatorKind.laplace_tt(ab), make_grid(ab, n))
        vals.append(quadratic_form(M, f))
    assert abs(vals[0] - vals[1]) <= 1e-8 * abs(vals[1])


def test_fourier_form_matches_direct_transform(fourier_M):
    f = FunctionRep(FunctionKind.SINE_SERIES, [0.7, -0.2, 0.05], SYM)
    form = quadratic_form(fourier_M, f)
    direct = fourier_image_energy(f, fourier_M.size)
    assert form == pytest.approx(direct, rel=1e-6)
    with pytest.raises(InvalidArgumentError):  # closed forms exist for trig series only
        fourier_image_energy(one_on(SYM), fourier_M.size)


@pytest.mark.parametrize("text, refined", [("laplace:a=1,b=2", False), ("fourier", True)])
def test_singular_values_are_built_with_the_factor(text, refined, svd_calls):
    # gram_matrix takes the accepted factor's SVD once, last, and the matrix
    # holds it as a read-only field, bit for bit that SVD, both for a cap rule
    # built directly (Laplace at n = 128) and for a rule that refinement
    # confirmed (Fourier at n = 256); reading it computes nothing.  Fourier's
    # 64 rows leave no input range below half the rows: the SVD is A's own.
    # Laplace's is that of A on its first 32 input Legendre modes
    kind = parse_operator(text)
    M = gram_matrix(kind, make_grid(kind.input_domain, 256 if refined else 128))
    assert (M.image_refinement is not None) == refined
    assert M.input_modes == {"laplace": 32, "fourier": None}[kind.tag]
    B = decomposed(M)
    assert sum(np.array_equal(a, B) for a in svd_calls) == 1
    assert np.array_equal(svd_calls[-1], B)
    calls = len(svd_calls)
    s = M.singular_values
    assert len(svd_calls) == calls and not s.flags.writeable
    assert np.array_equal(s, np.linalg.svd(B, compute_uv=False))


def test_an_unresolved_input_range_is_not_used():
    # negative control: on [0.01, 1] the kernel rows e^{-st}, s up to 4000,
    # need more than 32 Legendre modes in t.  The 32-mode range fails its
    # residual, and would lose 12 of the 40 resolved modes; the factor keeps
    # the SVD of A itself, which resolves what the plain path does
    p = Problem(parse_operator("laplace:a=0.01,b=1"), 256)
    M = p.matrix
    A = M.half_factor
    table = check_orthonormal(FunctionKind.LEGENDRE_SERIES, 32, p.grid.domain, p.grid)
    Q = np.sqrt(p.grid.weights)[:, None] * table
    C = A @ Q
    assert np.linalg.norm(A - C @ Q.T) > PROJECTION_RTOL * np.linalg.norm(A)
    assert M.input_modes is None
    plain = np.linalg.svd(A, compute_uv=False) ** 2
    assert np.array_equal(M.singular_values ** 2, plain)
    assert resolved_count(M.singular_values ** 2) == resolved_count(plain) == 40
    assert resolved_count(np.linalg.svd(C, compute_uv=False) ** 2) < 40


@pytest.mark.parametrize("text, resolved", [
    ("laplace:a=1,b=2", 14), ("laplace-adjoint:a=1,b=2", 14), ("fourier", 11),
    ("hilbert:I=0,1:J=2,3", 9), ("laplace:a=0.1,b=1", 25)])
def test_the_ladder_outcomes_across_n(text, resolved, monkeypatch):
    # with and without input ranges, each n from 128 to 1024 resolves the
    # same modes, and every factor that refinement accepted moved by at most
    # REFINEMENT_SLACK bounds
    kind = parse_operator(text)
    for n in (128, 256, 512, 1024):
        grid = Problem(kind, n).grid
        with monkeypatch.context() as plain_path:
            plain_path.setattr(integral_ops, "INPUT_MODES", MAX_GRID_SIZE)
            plain = gram_matrix(kind, grid)
        M = gram_matrix(kind, grid)
        assert plain.input_modes is None
        for got in (M, plain):
            assert resolved_count(got.singular_values ** 2) == resolved
            assert got.image_refinement is None or got.image_refinement <= REFINEMENT_SLACK


@pytest.mark.parametrize("text", ["laplace:a=1.0,b=1.00001", "laplace:a=0.001,b=0.00100001"])
def test_a_range_the_grid_cannot_hold_falls_back_to_the_plain_svd(text):
    # on a narrow interval check_orthonormal refuses the 32 input Legendre
    # functions; the factor is still accepted and keeps svd(A) bit for bit
    kind = parse_operator(text)
    for n in (128, 256, 1024):
        M = gram_matrix(kind, Problem(kind, n).grid)
        assert M.input_modes is None
        assert np.array_equal(M.singular_values,
                              np.linalg.svd(M.half_factor, compute_uv=False))
        assert resolved_count(M.singular_values ** 2) == 3


# Every decision of the ladder on a few inputs: (image rows, input modes, the
# class of image_refinement, resolved modes).  The refinement class is None
# for a cap built directly, "ok" within REFINEMENT_SLACK, "cap" for a cap that
# moved by more (accepted on its trace check alone), and "inf" for a cap whose
# rung before failed its trace check.
LADDER_DECISIONS = [
    ("laplace:a=1,b=2", 128, 256, 32, None, 14),
    ("laplace:a=1,b=2", 512, 256, 32, "ok", 14),
    ("laplace-adjoint:a=1,b=2", 256, 64, None, "ok", 14),
    ("fourier", 256, 64, None, "ok", 11),
    ("hilbert:I=0,1:J=2,3", 256, 32, None, "ok", 9),
    ("laplace:a=1,b=1.00001", 256, 256, None, "ok", 3),
    ("laplace:a=0.01,b=1", 256, 512, None, "ok", 40),
    ("laplace-adjoint:a=0.01,b=1", 256, 128, None, "inf", 39),
    ("laplace-adjoint:a=0.01,b=1", 512, 256, None, "cap", 40),
    ("hilbert:I=0,1:J=1.001,1.101", 128, 256, None, "cap", 21),
    ("hilbert:I=0,1:J=2,12", 256, 128, None, "ok", 10),
]


def _refinement_class(refinement):
    if refinement is None:
        return None
    if refinement == np.inf:
        return "inf"
    return "ok" if refinement <= REFINEMENT_SLACK else "cap"


def test_the_ladder_decision_table():
    got = []
    for text, n, *_ in LADDER_DECISIONS:
        kind = parse_operator(text)
        M = gram_matrix(kind, Problem(kind, n).grid)
        got.append((text, n, M.image_nodes, M.input_modes,
                    _refinement_class(M.image_refinement),
                    resolved_count(M.singular_values ** 2)))
    assert got == LADDER_DECISIONS
