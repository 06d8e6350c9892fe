import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed import (ExpPoly, FunctionKind, FunctionRep, Interval,
                      InvalidArgumentError, h1_seminorm, l2_norm,
                      linear_combination, make_grid, make_sine_basis)
from illposed.stability import oscillation_ratio


UNIT = Interval(0.0, 1.0)


def sine(coeffs, domain=UNIT, raw=False):
    return FunctionRep(FunctionKind.SINE_SERIES, coeffs, domain, raw_x=raw)


def inner_product(f, g, grid):
    """Discrete L2 pairing sum_i w_i f(x_i) g(x_i), the one l2_norm squares."""
    return float(np.dot(grid.weights, f.values(grid.nodes) * g.values(grid.nodes)))


def test_inner_product_constants():
    grid = make_grid(UNIT, 8)
    one = FunctionRep(FunctionKind.LEGENDRE_SERIES, [1.0], UNIT)
    assert inner_product(one, one, grid) == pytest.approx(1.0, rel=1e-14)


def test_sine_orthogonality_and_norm():
    grid = make_grid(UNIT, 16)
    s = sine([1.0])
    c = s.derivative()  # pi cos(pi x)
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
    assert oscillation_ratio(adjoint_M, f) == pytest.approx(expect, rel=1e-6)
    assert oscillation_ratio(adjoint_M, ExpPoly([0.0], 1.0)) == 0.0


def test_exp_poly_derivative_exact():
    f = ExpPoly([1.0, 2.0], 1.5)  # (1 + 2x) e^{-1.5x}
    df = f.derivative()
    x = np.linspace(0.0, 3.0, 7)
    expect = (2.0 - 1.5 * (1.0 + 2.0 * x)) * np.exp(-1.5 * x)
    assert df.values(x) == pytest.approx(expect, rel=1e-14)


def test_derivative_consistency_series():
    # h1 seminorm of a sine series equals the l2 norm of its cosine derivative
    grid = make_grid(UNIT, 64)
    f = sine([0.3, -1.2, 0.0, 0.7])
    assert h1_seminorm(f, grid) == pytest.approx(l2_norm(f.derivative(), grid), rel=1e-12)


def test_raw_basis_matches_shifted_identity():
    # on [1,2]: sin(k pi x) = (-1)^k sin(k pi (x-1))
    dom = Interval(1.0, 2.0)
    raw = sine([0.0, 1.0], dom, raw=True)         # sin(2 pi x)
    shifted = sine([0.0, 1.0], dom)               # sin(2 pi (x-1))
    x = np.linspace(1.0, 2.0, 17)
    assert raw.values(x) == pytest.approx(shifted.values(x), abs=1e-14)


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
    grid = make_grid(Interval(1.0, 2.0), 64)
    basis = make_sine_basis(Interval(1.0, 2.0), 6)
    G = np.array([[inner_product(a, b, grid) for b in basis] for a in basis])
    assert np.max(np.abs(G - np.eye(6))) < 1e-12


def test_linear_combination_series():
    basis = make_sine_basis(UNIT, 3)
    f = linear_combination(basis, [1.0, 0.0, -2.0])
    x = np.linspace(0.0, 1.0, 9)
    expect = basis[0].values(x) - 2.0 * basis[2].values(x)
    assert f.values(x) == pytest.approx(expect, abs=1e-14)
    with pytest.raises(InvalidArgumentError):  # no common series to sum into
        linear_combination([basis[0], basis[1].derivative()], [1.0, 1.0])
