import ast
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from illposed import (ExpPoly, FunctionKind, FunctionRep, HalfLineDomain, Interval,
                      InvalidArgumentError, OperatorKind, decompose_operator,
                      fourier_image_energy, gram_matrix, make_grid, parse_operator,
                      quadratic_form)
from illposed import integral_ops
from illposed.integral_ops import (FIRST_IMAGE_NODES, REFINEMENT_SLACK, SVD_FLOOR,
                                   _adjoint_kernel, _half_factor, _log_ratio,
                                   _pivoted_half_factor, cauchy_factor, certify,
                                   resolved_count)
from illposed.problem import Problem

from conftest import decomposed, kernel_matrix

AB = Interval(1.0, 2.0)
SYM = Interval(-1.0, 1.0)

# What each refusal of gram_matrix says: the grid's closed-form trace gate, no
# image rule passing its trace check, no two successive rules agreeing
REFUSALS = ("misses its closed-form trace", "disagrees with its kernel matrix",
            "is not confirmed by refinement")

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


def _rule_nodes(M):
    """Image nodes of the rule a ladder factor was built on (Fourier takes
    two rows per node)."""
    rows_per_node = len(_half_factor(M.kind, M.grid, FIRST_IMAGE_NODES)) // FIRST_IMAGE_NODES
    return M.image_nodes // rows_per_node


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
    # the largest moves against the finer rule: a nearly degenerate [a, b], a narrow J
    ("laplace-adjoint:a=1,b=1.00001", 256, 3),
    ("hilbert:I=0,1:J=1.01,1.02", 1024, 11),
])
def test_refined_factor_matches_the_cap_rule(text, n, resolved, monkeypatch):
    # a Laplace factor is checked against its Cauchy factorization run to the
    # last pivot, a ladder factor, which refinement accepted, against the rule
    # on 4 times its image nodes
    p = Problem(parse_operator(text), n)
    M = p.matrix
    mu = decompose_operator(M).eigenvalues
    if M.image_refinement is not None:
        assert M.image_refinement <= REFINEMENT_SLACK
        reference = _half_factor(p.kind, p.grid, 4 * _rule_nodes(M))
    else:
        with monkeypatch.context() as complete:
            complete.setattr(integral_ops, "SVD_FLOOR", 0.0)
            G, rest = cauchy_factor(p.grid.nodes, p.grid.weights)
        assert rest == 0.0
        reference = np.linalg.qr(G.T, mode="r")
    ref = np.linalg.svd(reference, compute_uv=False) ** 2
    assert resolved_count(mu) == resolved_count(ref) == resolved
    k = resolved
    bound = REFINEMENT_SLACK * 2 * np.finfo(float).eps * np.sqrt(ref[0] / ref[:k])
    assert np.all(np.abs(mu[:k] / ref[:k] - 1.0) <= bound)
    assert abs(mu.sum() / ref.sum() - 1.0) <= 1e-14
    assert np.all(mu[M.image_nodes:] == 0.0)


@pytest.mark.parametrize("ab", ["a=1,b=2", "a=0.1,b=1", "a=0.01,b=1", "a=1,b=1.00001"])
def test_laplace_and_its_adjoint_share_their_spectrum(ab):
    # laplace is T*T and laplace-adjoint TT* for the same T, so they share
    # their nonzero spectrum: on every mode both resolve, mu_n agree within
    # REFINEMENT_SLACK times the sum of their SVD bounds 2 eps sqrt(mu_1 mu_n).
    # n = 128 is left out: its input grids do not resolve [0.1, 1] or [0.01, 1]
    eps = np.finfo(float).eps
    for n in (256, 512, 1024):
        mu = [Problem(parse_operator(f"{tag}:{ab}"), n).matrix.singular_values ** 2
              for tag in ("laplace", "laplace-adjoint")]
        k = min(map(resolved_count, mu))
        L, A = (m[:k] for m in mu)
        bound = 2.0 * eps * (np.sqrt(L[0] * L) + np.sqrt(A[0] * A))
        assert np.all(np.abs(L - A) <= REFINEMENT_SLACK * bound)


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    st.builds(lambda a, gap: f"laplace-adjoint:a={a!r},b={a * (1 + gap)!r}",
              _log_uniform(1e-3, 1e2), _log_uniform(1e-5, 1e3)),
    st.builds(lambda gap, width: f"hilbert:I=0,1:J={1 + gap!r},{1 + gap + width!r}",
              _log_uniform(1e-5, 10.0), _log_uniform(1e-2, 10.0))))
def test_the_ladder_accepts_what_the_cap_accepts(text):
    # at n = 256 each input is refused by one of the named checks, or its
    # factor is accepted within REFINEMENT_SLACK and resolves as many modes
    # as the rule on 4 times its image nodes
    kind = parse_operator(text)
    p = Problem(kind, 256)
    try:
        M = p.matrix
    except InvalidArgumentError as exc:
        assert any(f"{what} at n = 256" in str(exc) for what in REFUSALS)
        return
    assert M.image_refinement <= REFINEMENT_SLACK
    ref = np.linalg.svd(_half_factor(kind, p.grid, 4 * _rule_nodes(M)), compute_uv=False) ** 2
    assert resolved_count(M.singular_values ** 2) == resolved_count(ref)


@settings(max_examples=25, deadline=None)
@given(_log_uniform(1e-3, 1e2), _log_uniform(1e-5, 1e7))
def test_a_laplace_input_is_gated_or_matches_its_kernel_matrix(a, gap):
    # at n = 256 each interval is refused by its closed-form trace, or its
    # Cauchy factor gives the leading eigenvalues of the dense kernel matrix
    # (eigvalsh's absolute error is ~n eps mu_1, so only modes above 1e-6 mu_1)
    kind = parse_operator(f"laplace:a={a!r},b={a * (1 + gap)!r}")
    grid = Problem(kind, 256).grid
    try:
        M = gram_matrix(kind, grid)
    except InvalidArgumentError as exc:
        assert "misses its closed-form trace at n = 256" in str(exc)
        return
    ref = np.linalg.eigvalsh(kernel_matrix(kind, grid))[::-1]
    k = int(np.count_nonzero(ref > 1e-6 * ref[0]))
    assert M.image_refinement is None and M.image_nodes > k
    assert np.all(np.abs(M.singular_values[:k] ** 2 / ref[:k] - 1.0) <= 1e-6)


@pytest.mark.parametrize("text,rows", [("laplace:a=1,b=2", 23), ("laplace-adjoint:a=1,b=2", 64),
                                       ("fourier", 64), ("hilbert:I=0,1:J=2,3", 64)])
def test_image_rules_stay_small(text, rows, svd_calls):
    # at n = 1024 refinement confirms a factor far below IMAGE_CAP (2048
    # image nodes) in at most 3 SVDs; the Laplace Cauchy factor stops at 23
    # pivots and takes two SVDs, of its R and of the R of the factor on 2n
    # nodes that certifies it
    p = Problem(parse_operator(text), 1024)
    M = gram_matrix(p.kind, p.grid)
    assert M.image_nodes <= rows
    if M.image_refinement is not None:
        assert M.image_refinement <= REFINEMENT_SLACK and len(svd_calls) <= 3
    else:
        assert len(svd_calls) == 2


def test_no_rung_is_decomposed_before_its_trace_check(svd_calls):
    # each rung's trace gap is read before its SVD, and a rung that fails it
    # is never decomposed: a grid the closed-form gate refuses takes no SVD,
    # and an input the kernel resolves late (at n = 1024 only rungs of 1024
    # nodes and more pass) decomposes exactly its passing rungs, the
    # 1024-node rung and the 2048-node cap, and is refused when they disagree
    kind = parse_operator("hilbert:I=0,1:J=1.0001,2")
    with pytest.raises(InvalidArgumentError, match="misses its closed-form trace at n = 256"):
        gram_matrix(kind, Problem(kind, 256).grid)
    assert svd_calls == []
    with pytest.raises(InvalidArgumentError,
                       match="is not confirmed by refinement at n = 1024: last move 178 bounds"):
        gram_matrix(kind, Problem(kind, 1024).grid)
    assert [len(a) for a in svd_calls] == [1024, 2048]
    # on the adjoint at a = 0.01 the rungs of 16-64 nodes fail their trace
    # check and are not decomposed; 128, 256 and 512 pass, and 512 is confirmed
    svd_calls.clear()
    kind = parse_operator("laplace-adjoint:a=0.01,b=1")
    M = gram_matrix(kind, Problem(kind, 256).grid)
    assert M.image_nodes == 512 and 0.0 <= M.image_refinement <= REFINEMENT_SLACK
    assert resolved_count(M.singular_values ** 2) == 40
    assert [len(a) for a in svd_calls] == [128, 256, 512] and svd_calls[-1] is M.half_factor


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


def test_one_way_into_the_half_factor_and_one_way_out():
    # gram_matrix is the one caller of a kind's engine, its record's factor,
    # and outside integral_ops only match_eigenfunctions, which also applies
    # A^T, reads the half factor: every other image is OperatorMatrix.image
    engines, readers = set(), set()
    for path in sorted(Path(integral_ops.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "factor":
                    engines.add(where)
                if getattr(node, "attr", None) == "half_factor" and path.stem != "integral_ops":
                    readers.add(where)
    assert engines == {("integral_ops", "gram_matrix")}
    assert readers == {("spectral", "match_eigenfunctions")}


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
    # no image-side rule up to the cap holds the kernel mass of a J that
    # reaches 1e6
    kind = parse_operator("hilbert:I=0,1:J=1.001,1e6")
    with pytest.raises(InvalidArgumentError, match="disagrees with its kernel matrix "
                                                   "at n = 256: relative trace gap 0.626"):
        gram_matrix(kind, Problem(kind, 256, 128, 12).grid)
    # input grids that miss the mass near the origin, or near the end of I
    # that J almost touches, are refused by their closed-form trace, before
    # anything is factored
    for text in ("laplace:a=1e-9,b=2", "hilbert:I=0,1:J=1.0001,2",
                 "hilbert:I=0,1:J=1.000000001,2"):
        kind = parse_operator(text)
        with pytest.raises(InvalidArgumentError, match="misses its closed-form trace at n = 256"):
            gram_matrix(kind, Problem(kind, 256, 128, 12).grid)
    # rules that pass their trace check, but no two successive ones agree:
    # the adjoint at a = 1e-3 and the Hilbert gap of 1e-4 at n = 1024
    for text in ("laplace-adjoint:a=1e-3,b=2", "hilbert:I=0,1:J=1.0001,2"):
        kind = parse_operator(text)
        with pytest.raises(InvalidArgumentError, match="is not confirmed by refinement "
                                                       "at n = 1024"):
            gram_matrix(kind, Problem(kind, 1024, 128, 12).grid)


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
    # the refusal prints both domains, each as its repr
    for kind, domain, message in (
            (OperatorKind.laplace_tt(AB), Interval(0.0, 1.0), "grid domain Interval(a=0.0, "
             "b=1.0) does not match operator input Interval(a=1.0, b=2.0)"),
            (OperatorKind.laplace_adjoint_tt(AB), HalfLineDomain(20.0), "grid domain "
             "HalfLineDomain(s_max=20.0) does not match operator input "
             "HalfLineDomain(s_max=40.0)")):
        with pytest.raises(InvalidArgumentError) as exc:
            gram_matrix(kind, make_grid(domain, 16))
        assert str(exc.value) == message


@pytest.mark.parametrize("f, message", [
    (FunctionRep(FunctionKind.SINE_SERIES, [1.0, 0.2], Interval(0.0, 1.0)),
     "function domain does not match grid domain"),
    (ExpPoly([1.0, 0.5], 1.0), "ExpPoly functions live on a half-line grid"),
], ids=["sine-on-0-1", "exp-poly"])
def test_quadratic_form_refuses_a_function_from_another_domain(laplace_M, f, message):
    # a function sampled on a grid it does not live on gives a confident
    # wrong ||T f||^2: refused with the texts l2_norm gives
    with pytest.raises(InvalidArgumentError) as exc:
        quadratic_form(laplace_M, f)
    assert str(exc.value) == message


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
    # gram_matrix takes the accepted factor's SVD once, and the matrix holds
    # it as a read-only field, bit for bit that SVD, both for a factor with no
    # image rule (Laplace at n = 128, whose SVD is that of its R) and for a
    # rule that refinement confirmed (Fourier at n = 256, A's own); reading
    # it computes nothing.  A refined factor's SVD is the last one taken; a
    # Cauchy factor's is followed by one more, of the R of its factor on 2n
    # nodes, which certifies its modes
    kind = parse_operator(text)
    M = gram_matrix(kind, make_grid(kind.input_domain, 256 if refined else 128))
    assert (M.image_refinement is not None) == refined
    B = decomposed(M)
    assert sum(np.array_equal(a, B) for a in svd_calls) == 1
    assert np.array_equal(svd_calls[-1 if refined else -2], B)
    if not refined:
        fine = make_grid(kind.source, 256)
        G2 = cauchy_factor(fine.nodes, fine.weights)[0]
        assert len(svd_calls) == 2
        assert np.array_equal(svd_calls[-1], np.linalg.qr(G2.T, mode="r"))
    calls = len(svd_calls)
    s = M.singular_values
    assert len(svd_calls) == calls and not s.flags.writeable
    assert np.array_equal(s, np.linalg.svd(B, compute_uv=False))


@pytest.mark.parametrize("text, resolved", [
    ("laplace:a=1,b=2", 14), ("laplace-adjoint:a=1,b=2", 14), ("fourier", 11),
    ("hilbert:I=0,1:J=2,3", 9), ("laplace:a=0.1,b=1", 25)])
def test_the_ladder_outcomes_across_n(text, resolved):
    # each n from 128 to 1024 resolves the same modes, and every factor that
    # refinement accepted moved by at most REFINEMENT_SLACK bounds
    kind = parse_operator(text)
    for n in (128, 256, 512, 1024):
        M = gram_matrix(kind, Problem(kind, n).grid)
        assert resolved_count(M.singular_values ** 2) == resolved
        assert M.image_refinement is None or M.image_refinement <= REFINEMENT_SLACK


@pytest.mark.parametrize("text", ["laplace:a=1.0,b=1.00001", "laplace:a=0.001,b=0.00100001"])
def test_a_narrow_laplace_interval_takes_the_cauchy_factor(text):
    # a nearly degenerate [a, b] passes the closed-form trace gate at every n,
    # and its Cauchy factor resolves 3 modes from 4 pivots
    kind = parse_operator(text)
    for n in (128, 256, 1024):
        M = gram_matrix(kind, Problem(kind, n).grid)
        assert M.image_nodes == 4 and M.image_refinement is None
        assert np.array_equal(M.singular_values,
                              np.linalg.svd(decomposed(M), compute_uv=False))
        assert resolved_count(M.singular_values ** 2) == 3


def test_certify_counts_leading_modes_and_reads_every_miss():
    # the count stops at the first miss, mode 3, though mode 4 agrees again;
    # worst is the largest miss in units of tol over every mode compared,
    # here mode 5's, past the count; tol is one number or one per mode (every
    # number is a binary fraction, so each miss is exact)
    fine = 2.0 ** -np.arange(5.0)
    coarse = fine + np.array([0.0, 1.0, 3.0, 0.0, 7.0]) * 2.0 ** -30
    assert certify(coarse, fine, 2.0 ** -29) == (2, 3.5)
    assert certify(coarse, fine, 2.0 ** -29 * fine) == (2, 56.0)
    assert certify(coarse, fine, 2.0 ** -26) == (5, 0.4375)
    assert certify(coarse[:2], fine[:2], 2.0 ** -30) == (2, 1.0)
    assert certify(coarse[:0], fine[:0], 1.0) == (0, 0.0)


def _mpmath_eigenvalues(grid, dps=120):
    """Eigenvalues of M = sqrt(w_i w_j) / (x_i + x_j) on grid, descending, in
    dps-digit arithmetic from the same binary nodes and weights."""
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in grid.nodes]
        w = [mpmath.sqrt(mpmath.mpf(float(v))) for v in grid.weights]
        M = mpmath.matrix(grid.size, grid.size)
        for i in range(grid.size):
            for j in range(grid.size):
                M[i, j] = w[i] * w[j] / (x[i] + x[j])
        return np.array(sorted((float(e) for e in mpmath.eigsy(M, eigvals_only=True)),
                               reverse=True))


@pytest.mark.parametrize("text,n,resolved", [("laplace:a=1,b=2", 40, 14),
                                             ("laplace:a=0.01,b=1", 48, 30)])
def test_cauchy_factor_against_mpmath_eigenvalues(text, n, resolved):
    # every resolved mode of the factor within 1e-14 relative of the
    # 120-digit eigenvalues of the same M, down to mu_n / mu_1 = 1e-28.
    # [0.01, 1] at n = 48 misses the closed-form trace, so the factor is
    # built as gram_matrix builds it, past the gate
    kind = parse_operator(text)
    grid = make_grid(kind.source, n)
    trace = float(np.dot(grid.weights, 1.0 / (2.0 * grid.nodes)))
    s = _pivoted_half_factor(kind, grid, trace)[1]
    mu, ref = s ** 2, _mpmath_eigenvalues(grid)
    assert resolved_count(mu) == resolved_count(ref) == resolved
    assert np.max(np.abs(mu[:resolved] / ref[:resolved] - 1.0)) <= 1e-14


@pytest.mark.parametrize("text", ["laplace:a=1,b=2", "laplace:a=0.1,b=1", "laplace:a=0.01,b=1",
                                  "laplace:a=1e-3,b=2"])
@pytest.mark.parametrize("n", [128, 1024])
def test_cauchy_factor_keeps_the_trace(text, n):
    # M = G^T G + S exactly, so ||G||_F^2 + trace(S) is the grid's trace up
    # to rounding, and trace(S) is below eps SVD_FLOOR times the first pivot.
    # Both sums are correctly rounded (fsum), so the gap is the factor's own
    grid = make_grid(parse_operator(text).source, n)
    x, w = grid.nodes, grid.weights
    G, rest = cauchy_factor(x, w)
    trace = math.fsum(w / (2.0 * x))
    assert abs(math.fsum((G * G).ravel()) + rest - trace) <= 1e-15 * trace
    assert 0.0 <= rest <= np.finfo(float).eps * SVD_FLOOR * np.max(w / (2.0 * x))


def test_laplace_spectra_are_scale_free():
    # the factor reads only scale-free ratios, so [2^k, 2^(k+1)] gives
    # [1, 2]'s factor and spectrum bit for bit, down to k = -1000, where
    # u_i^2 = w_i times a deep pivot would underflow
    base = Problem(parse_operator("laplace:a=1,b=2"), 256).matrix
    for k in (-1000, -100, -10, 10, 100, 1000):
        M = Problem(parse_operator(f"laplace:a={2.0 ** k!r},b={2.0 ** (k + 1)!r}"), 256).matrix
        assert np.array_equal(M.half_factor, base.half_factor)
        assert np.array_equal(M.singular_values, base.singular_values)


@pytest.mark.parametrize("a,b", [(1.0, 2.0), (1.0, 1.0 + 2.0 ** -40), (1e-300, 1e300),
                                 (5e-324, 1.0), (1e-3, 1e308), (0.1, 0.30000000000000004)])
def test_closed_form_trace_against_mpmath(a, b):
    # ln(b/a) from the same binary a and b, to 2 ulps: no cancellation as
    # b -> a, no overflow of b/a
    with mpmath.workdps(50):
        ref = float(mpmath.log(mpmath.mpf(b) / mpmath.mpf(a)))
    assert abs(_log_ratio(Interval(a, b)) - ref) <= 4.5e-16 * ref


# Relative gaps between the grid's trace sum w / (2x) and ln(b/a)/2 at
# n = 128 / 256 / 512 / 1024 (measured): [1e-9, 2] 0.49 / 0.43 / 0.36 / 0.30;
# [1e-3, 2] 8.0e-6 / 8.8e-11 / 2.6e-15 / 2.9e-15; [1e-3, 1.001] 7.7e-8 /
# 6.3e-15 / 2.3e-15 / 1.5e-15; the accepted intervals at most 6e-16.
@pytest.mark.parametrize("text,accepted", [
    ("laplace:a=1e-9,b=2", ()),
    ("laplace:a=1e-300,b=1e300", ()),
    ("laplace:a=1e-3,b=2", (512, 1024)),
    ("laplace:a=1e-3,b=1.001", (256, 512, 1024)),
    ("laplace:a=1,b=2", (128, 256, 512, 1024)),
    ("laplace:a=0.1,b=1", (128, 256, 512, 1024)),
    ("laplace:a=0.01,b=1", (128, 256, 512, 1024)),
    ("laplace:a=1,b=1.00001", (128, 256, 512, 1024)),
    ("laplace:a=1e-3,b=0.101", (128, 256, 512, 1024)),
])
def test_the_closed_form_trace_gate(text, accepted, svd_calls):
    # a Laplace grid whose trace misses ln(b/a)/2 by more than FACTOR_RTOL is
    # refused before anything is factored; the others are factored
    kind = parse_operator(text)
    for n in (128, 256, 512, 1024):
        svd_calls.clear()
        if n in accepted:
            gram_matrix(kind, Problem(kind, n).grid)
            continue
        with pytest.raises(InvalidArgumentError,
                           match=f"misses its closed-form trace at n = {n}: relative trace gap"):
            gram_matrix(kind, Problem(kind, n).grid)
        assert svd_calls == []


# Every decision of the ladder on a few inputs: (image rows, the class of
# image_refinement, resolved modes), or the check that refused the input.
# The refinement class is None for a Laplace Cauchy factor, whose rows are
# its pivots, and "ok" for a ladder factor, which is accepted only within
# REFINEMENT_SLACK.
LADDER_DECISIONS = [
    ("laplace:a=1,b=2", 128, 22, None, 14),
    ("laplace:a=1,b=2", 512, 22, None, 14),
    ("laplace-adjoint:a=1,b=2", 256, 64, "ok", 14),
    ("fourier", 256, 64, "ok", 11),
    ("fourier", 16, 64, "ok", 11),
    ("hilbert:I=0,1:J=2,3", 256, 32, "ok", 9),
    ("laplace:a=1,b=1.00001", 256, 4, None, 3),
    ("laplace:a=0.01,b=1", 256, 66, None, 40),
    ("laplace-adjoint:a=0.01,b=1", 256, 512, "ok", 40),
    ("laplace-adjoint:a=0.01,b=1", 512, 512, "ok", 40),
    ("laplace-adjoint:a=1e-3,b=2", 256, "is not confirmed by refinement"),
    ("hilbert:I=0,1:J=1.001,1.101", 128, "misses its closed-form trace"),
    ("hilbert:I=0,1:J=1.001,1.101", 256, 512, "ok", 24),
    ("hilbert:I=0,1:J=1.001,1e6", 256, "disagrees with its kernel matrix"),
    ("hilbert:I=0,1:J=2,12", 256, 128, "ok", 10),
]


def _decision(text, n):
    kind = parse_operator(text)
    try:
        M = gram_matrix(kind, Problem(kind, n).grid)
    except InvalidArgumentError as exc:
        return (text, n) + tuple(what for what in REFUSALS if what in str(exc))
    refinement = M.image_refinement
    if refinement is not None and refinement <= REFINEMENT_SLACK:
        refinement = "ok"
    return text, n, M.image_nodes, refinement, resolved_count(M.singular_values ** 2)


def test_the_ladder_decision_table():
    assert [_decision(text, n) for text, n, *_ in LADDER_DECISIONS] == LADDER_DECISIONS
