import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import derivative_values
from illposed import (ExpPoly, FunctionKind, FunctionRep, Interval,
                      InvalidArgumentError, h1_seminorm, l2_norm, make_grid, sample)
from illposed import functions
from illposed.domains import HalfLineDomain
from illposed.functions import (basis_table, check_orthonormal, exp_poly_columns,
                                legendre_tables)
from illposed.adversarial import FIGURES
from illposed.stability import EXPONENTIAL, StabilityFit, verify_theorem


UNIT = Interval(0.0, 1.0)


def sine(coeffs, domain=UNIT):
    return FunctionRep(FunctionKind.SINE_SERIES, coeffs, domain)


def inner_product(f, g, grid):
    """Discrete L2 pairing sum_i w_i f(x_i) g(x_i), the one l2_norm squares."""
    return float(np.dot(grid.weights, sample(f, grid.nodes) * sample(g, grid.nodes)))


def test_inner_product_constants():
    grid = make_grid(UNIT, 8)
    one = FunctionRep(FunctionKind.LEGENDRE_SERIES, [1.0], UNIT)
    assert inner_product(one, one, grid) == pytest.approx(1.0, rel=1e-14)


def test_sine_orthogonality_and_norm():
    grid = make_grid(UNIT, 16)
    s = sine([1.0])
    c = FunctionRep(FunctionKind.COSINE_SERIES, [np.pi], UNIT)  # s' = pi cos(pi x)
    assert inner_product(s, c, grid) == pytest.approx(0.0, abs=1e-12)
    assert inner_product(s, s, grid) == pytest.approx(0.5, abs=1e-12)


def test_l2_h1_closed_forms():
    grid = make_grid(UNIT, 32)
    s = sine([1.0])
    assert l2_norm(s, grid) == pytest.approx(np.sqrt(0.5), rel=1e-13)
    assert h1_seminorm(s, grid) == pytest.approx(np.pi * np.sqrt(0.5), rel=1e-13)
    one = FunctionRep(FunctionKind.LEGENDRE_SERIES, [1.0], UNIT)
    assert l2_norm(one, grid) == pytest.approx(1.0, rel=1e-14)
    assert h1_seminorm(one, grid) == pytest.approx(0.0, abs=1e-13)
    zero = sine([0.0])
    assert l2_norm(zero, grid) == 0.0 and h1_seminorm(zero, grid) == 0.0


def test_only_functions_reads_a_grid_norm_from_forms_or_samples():
    # one norm path per representation: series_gram is called only by
    # functions' norm reader, check_orthonormal's identity test and the
    # lemmas' read-out builder; form_norm, the one norm from Gram products,
    # only by that norm reader and by Lemmas 2 and 3 on their read-out; and
    # weighted_norm, the one sampled norm, only by that reader's ExpPoly
    # branch and by the verifiers' sampled oscillation ratios, so every
    # other module reads a norm through l2_norm, h1_seminorm, _series_norm,
    # read_series or weighted_norm, and a second sampled or form-based norm
    # cannot come back unnoticed
    readers = {"series_gram", "form_norm", "weighted_norm"}
    calls = set()
    for path in sorted(Path(functions.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name in readers:
                        calls.add((path.stem, getattr(top, "name", "<module>"), name))
    assert calls == {("functions", "_series_norm", "series_gram"),
                     ("functions", "check_orthonormal", "series_gram"),
                     ("functions", "_read_out", "series_gram"),
                     ("functions", "_series_norm", "form_norm"),
                     ("stability", "verify_lemma2", "form_norm"),
                     ("stability", "verify_lemma3", "form_norm"),
                     ("functions", "_norm", "weighted_norm"),
                     ("stability", "_oscillation_ratios", "weighted_norm")}


def test_domain_mismatch_rejected():
    grid = make_grid(UNIT, 8)
    other = sine([1.0], Interval(1.0, 2.0))
    with pytest.raises(InvalidArgumentError):
        l2_norm(other, grid)
    with pytest.raises(InvalidArgumentError):  # ExpPoly lives on the half line
        l2_norm(ExpPoly([1.0], 1.0), grid)


def test_empty_payload_rejected():
    with pytest.raises(InvalidArgumentError):
        FunctionRep(FunctionKind.SINE_SERIES, [], UNIT)


def test_weighted_norms_gamma_oracle(adjoint_M):
    # Theorem-2 aggregate of e^{-x}: ||e^-x|| = sqrt(1/2), and each of
    # ||x f''||, ||x f'||, ||x f|| is sqrt(int x^2 e^{-2x}) = sqrt(1/4) = 1/2
    f = ExpPoly([1.0], 1.0)
    expect = (1.5 + np.sqrt(0.5)) / np.sqrt(0.5)  # 1 + 1.5 sqrt(2)
    fit = StabilityFit(1.0, 1.0, EXPONENTIAL, 1.0, "synthetic")
    recs = verify_theorem(adjoint_M, fit, [f, ExpPoly([0.0], 1.0)])
    assert recs[0].h1_ratio == pytest.approx(expect, rel=1e-6)
    assert recs[1].h1_ratio == 0.0


def test_exp_poly_derivative_exact():
    f = ExpPoly([1.0, 2.0], 1.5)  # (1 + 2x) e^{-1.5x}
    x = np.linspace(0.0, 3.0, 7)
    expect = (2.0 - 1.5 * (1.0 + 2.0 * x)) * np.exp(-1.5 * x)
    assert sample(f, x, 1) == pytest.approx(expect, rel=1e-14)
    assert derivative_values(f, x) == pytest.approx(expect, rel=1e-14)
    # (1 + 2x)'' e^{-1.5x} terms: p'' - 3 p' + 2.25 p with p = 1 + 2x
    expect2 = (-6.0 + 2.25 * (1.0 + 2.0 * x)) * np.exp(-1.5 * x)
    assert sample(f, x, 2) == pytest.approx(expect2, rel=1e-14)
    assert derivative_values(f, x, 2) == pytest.approx(expect2, rel=1e-14)


@pytest.mark.parametrize("kind, size", [
    (FunctionKind.SINE_SERIES, 12), (FunctionKind.COSINE_SERIES, 7),
    (FunctionKind.LEGENDRE_SERIES, 10), (FunctionKind.LEGENDRE_SERIES, 5)])
def test_a_read_out_gives_what_the_separate_products_give(kind, size):
    # read_series at the lemmas' 4n + 1 sup-norm points: its mass row is the
    # grid's m = T^T w, so the mass m.c is bit for bit that of the separate
    # products; its values and Gram products are rows of one product with
    # R, and each is within the rounding of a K-term dot product, 2 K eps
    # |A| |c|, of the separate product A @ c (A the table at the points, G_0
    # or G_1).  The read-out is built once per basis and point rule
    from illposed.stability import _sup_points
    dom = Interval(0.5, 2.0)
    grid = make_grid(dom, 64)
    x = _sup_points(grid)
    table = basis_table(kind, size, dom, 0, x)
    node_table = basis_table(kind, size, dom, 0, grid.nodes)
    forms = [functions.series_gram(kind, size, k, grid) for k in (0, 1)]
    tol = 2 * size * np.finfo(float).eps
    for c in np.random.default_rng(size).standard_normal((50, size)):
        values, mass_row, products, d_products = functions.read_series(
            FunctionRep(kind, c, dom), grid, _sup_points)
        assert float(mass_row.dot(c)) == float(grid.weights @ node_table @ c)
        assert len(values) == len(x) == 4 * 64 + 1
        for got, A in ((values, table), (products, forms[0]), (d_products, forms[1])):
            assert np.all(np.abs(got - A @ c) <= tol * (np.abs(A) @ np.abs(c)))
    assert [k for k in grid.series_tables if k[-1] is _sup_points] == [(kind, size, _sup_points)]


def test_series_tables_refuse_higher_derivatives():
    # a series table holds orders 0 and 1 only: order 2 is refused, not
    # answered with the first derivative; ExpPoly takes every order
    x = np.array([0.25, 0.5])
    for f in (sine([1.0]), FunctionRep(FunctionKind.COSINE_SERIES, [1.0, 0.5], UNIT),
              FunctionRep(FunctionKind.LEGENDRE_SERIES, [0.2, -0.5, 1.0], UNIT)):
        with pytest.raises(InvalidArgumentError):
            sample(f, x, 2)
    g = ExpPoly([0.5, -1.0, 0.25], 1.2)
    assert sample(g, x, 2) == pytest.approx(derivative_values(g, x, 2), rel=1e-14)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 64, 512])
def test_legendre_tables_are_the_loop_recurrence_bit_for_bit(size):
    # oracle: P_{k+1}' = P_{k-1}' + (2k+1) P_k, one column at a time
    dom = Interval(1.0, 2.25)
    x = np.linspace(1.0, 2.25, 97)
    V = np.polynomial.legendre.legvander((2.0 * x - dom.a - dom.b) / dom.length, size - 1)
    D = np.zeros_like(V)
    if size > 1:
        D[:, 1] = 1.0
    for k in range(1, size - 1):
        D[:, k + 1] = D[:, k - 1] + (2 * k + 1) * V[:, k]
    norms = np.sqrt((2 * np.arange(size) + 1) / dom.length)
    expected = [V * norms[None, :], D * norms[None, :] * (2.0 / dom.length)]
    leg = FunctionKind.LEGENDRE_SERIES
    for k in (0, 1):
        assert np.array_equal(basis_table(leg, size, dom, k, x), expected[k])
    for got, want in zip(legendre_tables(size, dom, x, (0, 1)), expected):
        assert np.array_equal(got, want)
        # products with a table read its layout: legvander's, a transposed array
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
            want.flags.c_contiguous, want.flags.f_contiguous)


def test_sample_at_arbitrary_points_matches_the_closed_form():
    # sample builds its table at any points, off every grid: values and
    # first derivatives against the closed-form oracle
    f = sine([0.3, -1.0, 0.5])
    ends = [0.6, 0.9]
    for head in ([0.1], [0.2], [0.1, 0.3], [0.15]):
        x = np.array(head + ends)
        assert sample(f, x) == pytest.approx(derivative_values(f, x, 0), abs=1e-14)
        assert sample(f, x, 1) == pytest.approx(derivative_values(f, x, 1), abs=1e-13)


def test_derivative_consistency_series():
    # sampled derivatives and the h1 seminorm against the closed-form oracle
    for f in (sine([0.3, -1.2, 0.0, 0.7]),
              FunctionRep(FunctionKind.COSINE_SERIES, [0.5, 0.25, -1.0], Interval(1.0, 2.5)),
              sine([0.0, 0.4, -0.6], Interval(1.0, 2.0)),
              FunctionRep(FunctionKind.LEGENDRE_SERIES, [0.2, -0.5, 1.0, 0.3], Interval(1.0, 2.0))):
        grid = make_grid(f.domain, 64)
        oracle = derivative_values(f, grid.nodes)
        gap = np.max(np.abs(sample(f, grid.nodes, 1) - oracle))
        assert gap <= 1e-12 * np.max(np.abs(oracle)), f
        norm = np.sqrt(np.dot(grid.weights, oracle ** 2))
        assert h1_seminorm(f, grid) == pytest.approx(norm, rel=1e-12)


@pytest.mark.parametrize("fid", list(FIGURES), ids=lambda fid: f"figure{fid.value}")
def test_figure_function_is_the_printed_series(fid):
    # each figure prints sum_k c_k trig(k pi x) on the raw coordinate; its
    # function is the standard series of its domain, equal at every point
    spec = FIGURES[fid]
    f = spec.function()
    dom = spec.operator.input_domain
    x = np.linspace(dom.a, dom.b, 1001)
    trig = np.sin if spec.basis_kind is FunctionKind.SINE_SERIES else np.cos
    printed = sum(c * trig(k * np.pi * x)
                  for k, c in enumerate(spec.coefficients, start=spec.first_mode))
    assert f.domain == dom
    assert np.max(np.abs(sample(f, x) - printed)) <= 1e-14


def test_legendre_series_derivative():
    dom = Interval(1.0, 2.0)
    grid = make_grid(dom, 32)
    # phi_1(t) = sqrt(3) * (2t - 3) on [1,2]; derivative 2 sqrt(3)
    f = FunctionRep(FunctionKind.LEGENDRE_SERIES, [0.0, 1.0], dom)
    assert h1_seminorm(f, grid) == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.lists(st.floats(-5, 5), min_size=1, max_size=6))
def test_cauchy_schwarz(cf, cg):
    grid = make_grid(UNIT, 32)
    f, g = sine(np.array(cf)), sine(np.array(cg))
    lhs = abs(inner_product(f, g, grid))
    assert lhs <= l2_norm(f, grid) * l2_norm(g, grid) * (1.0 + 1e-12) + 1e-12


def test_sine_basis_orthonormal():
    # sqrt(2/L) sin(k pi (x-a)/L), the family build_gramian minimizes over
    dom = Interval(1.0, 2.0)
    grid = make_grid(dom, 64)
    basis = [sine(np.sqrt(2.0) * np.eye(6)[k, :k + 1], dom) for k in range(6)]
    G = np.array([[inner_product(a, b, grid) for b in basis] for a in basis])
    assert np.max(np.abs(G - np.eye(6))) < 1e-12


def test_a_basis_larger_than_the_grid_is_refused_before_its_table(monkeypatch):
    # a grid Gram matrix has rank at most the node count, so 300 sines are
    # never orthonormal on 256 nodes: no table is built to find that out (the
    # grid is new, so its table memo cannot answer)
    dom = Interval(3.0, 7.5)
    calls = []
    monkeypatch.setattr(functions, "basis_table",
                        lambda *args: calls.append(args) or basis_table(*args))
    grid = make_grid(dom, 256)
    with pytest.raises(InvalidArgumentError, match=r"^sine-series basis of 300 functions is "
                                                   "not orthonormal on the grid of 256 nodes$"):
        check_orthonormal(FunctionKind.SINE_SERIES, 300, grid)
    assert calls == []
    assert check_orthonormal(FunctionKind.SINE_SERIES, 12, grid).shape == (256, 12)
    assert len(calls) == 1


def test_a_basis_size_is_an_integer_from_one_to_what_the_grid_resolves(monkeypatch):
    # check_orthonormal is the one reader of a basis size: a size below 1 or
    # not an integer is refused by name before any table is built, and the
    # grid's own rule is the only other bound, 144 sines on 256 Gauss nodes
    grid = make_grid(Interval(-3.0, 4.5), 256)
    calls = []
    monkeypatch.setattr(functions, "basis_table",
                        lambda *args: calls.append(args) or basis_table(*args))
    for size, message in ((0, "basis size must be >= 1"), (-2, "basis size must be >= 1"),
                          (2.5, "basis size must be an integer, got 2.5"),
                          (np.float64(3.0), "basis size must be an integer, got "
                                            f"{np.float64(3.0)!r}")):
        with pytest.raises(InvalidArgumentError) as exc:
            check_orthonormal(FunctionKind.SINE_SERIES, size, grid)
        assert str(exc.value) == message
    assert calls == []
    table = check_orthonormal(FunctionKind.SINE_SERIES, np.int64(144), grid)
    assert table.shape == (256, 144)
    with pytest.raises(InvalidArgumentError, match="basis of 145 functions is not orthonormal"):
        check_orthonormal(FunctionKind.SINE_SERIES, 145, grid)


def _per_order_products(funcs, x, order):
    """The order-th derivatives of an ExpPoly block the per-order way: the
    coefficients differentiated order times, on a power basis built for this
    order alone, times an envelope built for this order alone."""
    P = np.column_stack([g.poly for g in funcs])
    rates = np.array([g.rate for g in funcs])
    for _ in range(order):
        D = -rates * P
        D[:-1] += np.arange(1, len(P))[:, None] * P[1:]
        P = D
    return (np.vander(x, len(P), increasing=True) @ P) * np.exp(-np.outer(x, rates))


# The ids are the ones these cases had while the sampler they check also took
# series blocks, whose cases left with it.
@pytest.mark.parametrize("orders", [pytest.param((0, 1, 2), id="exp-poly-orders2"),
                                    pytest.param((2, 0), id="exp-poly-orders3")])
def test_sample_columns_is_the_per_order_products(orders):
    # an ExpPoly block's every order from one call, each array bit for bit
    # the per-order product (a series block is not sampled: its norms are
    # forms in its coefficients)
    rng = np.random.default_rng(5)
    funcs = [ExpPoly(rng.standard_normal(4), float(rng.uniform(1.0, 2.0))) for _ in range(9)]
    x = make_grid(HalfLineDomain(30.0), 32).nodes
    got = exp_poly_columns(funcs, x, orders)
    assert len(got) == len(orders)
    for k, values in zip(orders, got):
        assert np.array_equal(values, _per_order_products(funcs, x, k)), k
        assert values[:, 3] == pytest.approx(derivative_values(funcs[3], x, k), rel=1e-9, abs=1e-9)
