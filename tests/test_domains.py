import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed import (HalfLineDomain, Interval, InvalidArgumentError, OperatorKind, SignVariant,
                      assemble_bertero_grunbaum, assemble_fourth_order, make_grid)
from illposed.domains import gauss_legendre, half_line_for


def test_interval_validation():
    with pytest.raises(InvalidArgumentError):
        Interval(2.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        Interval(1.0, 1.0)
    assert Interval(1.0, 2.0).length == 1.0


def test_an_interval_wider_than_the_float_range_is_refused_by_name():
    # b - a overflows to inf, and no grid could be built on it
    with pytest.raises(InvalidArgumentError,
                       match=r"^interval \[-1.7e\+308, 1.7e\+308\] is wider than the float range$"):
        Interval(-1.7e308, 1.7e308)
    assert Interval(-8e307, 8e307).length == 1.6e308


def test_half_line_validation():
    with pytest.raises(InvalidArgumentError):
        HalfLineDomain(-1.0)
    # inf is positive: the refusal names the condition it fails
    with pytest.raises(InvalidArgumentError, match=r"^s_max must be finite and positive, got inf$"):
        HalfLineDomain(float("inf"))
    d = half_line_for(Interval(1.0, 2.0))
    assert d.s_max == 40.0 and d.panel_count == 8
    edges = d.breakpoints()
    assert edges[0] == 0.0 and edges[-1] == 40.0
    assert np.all(np.diff(edges) > 0)


def test_one_point_rule_is_midpoint():
    g = make_grid(Interval(-1.0, 1.0), 1)
    assert g.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert g.weights[0] == pytest.approx(2.0, abs=1e-15)


def test_two_point_rule():
    # moment equations for the 2-point rule give nodes +-1/sqrt(3), weights 1
    g = make_grid(Interval(-1.0, 1.0), 2)
    assert g.nodes == pytest.approx([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
    assert g.weights == pytest.approx([1.0, 1.0])


def test_weights_sum_to_length():
    for n in (1, 3, 17, 64):
        g = make_grid(Interval(1.0, 2.0), n)
        assert g.weights @ np.ones(g.size) == pytest.approx(1.0, rel=1e-14)
    h = make_grid(half_line_for(Interval(1.0, 2.0)), 16)
    assert h.weights.sum() == pytest.approx(40.0, rel=1e-13)


def test_invalid_grid_arguments():
    with pytest.raises(InvalidArgumentError):
        make_grid(Interval(0.0, 1.0), 0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=24), k=st.integers(min_value=0, max_value=47))
def test_gauss_exactness_on_monomials(n, k):
    # exact for degree <= 2n-1
    if k > 2 * n - 1:
        return
    g = make_grid(Interval(0.0, 1.0), n)
    exact = 1.0 / (k + 1)
    assert g.weights @ g.nodes ** k == pytest.approx(exact, rel=1e-12)


def test_half_line_panels_integrate_decaying_kernel():
    h = make_grid(half_line_for(Interval(1.0, 2.0)), 32)
    # int_0^inf e^{-2s} ds = 1/2, truncation tail below 1e-34
    assert h.weights @ np.exp(-2.0 * h.nodes) == pytest.approx(0.5, rel=1e-13)


def _mp_gauss_node(n, x0):
    """40-digit Newton on the Legendre recurrence from x0: node and weight."""
    def newton_terms(x):
        p_prev, p = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (p_prev - x * p) / (1 - x * x)

    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(5):
            p, dp = newton_terms(x)
            x -= p / dp
        _, dp = newton_terms(x)
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [512, 2048])
def test_gauss_legendre_against_mpmath(n):
    # the independent leggauss rule only seeds the 40-digit Newton; its own
    # endpoint weights are off by 6e-8 relative at n = 2048
    seeds = np.polynomial.legendre.leggauss(n)[0]
    x, w = gauss_legendre(n)
    for i in (0, 1, n // 4, n // 2):
        node, weight = _mp_gauss_node(n, seeds[i])
        assert abs(x[i] - node) <= 2 * abs(np.spacing(float(node))), i
        assert abs(w[i] / float(weight) - 1.0) <= 1e-9, i


def test_gauss_legendre_odd_middle_node_is_zero():
    for n in (1, 3, 17, 255, 1025):
        x, w = gauss_legendre(n)
        assert x[n // 2] == 0.0
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_gauss_legendre_arrays_are_read_only():
    x, w = gauss_legendre(16)
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_grids_of_one_size_share_one_rule():
    gauss_legendre.cache_clear()
    half = half_line_for(Interval(1.0, 2.0))
    first = make_grid(half, 24)
    second = make_grid(half, 24)
    assert gauss_legendre.cache_info().misses == 1
    assert np.array_equal(first.nodes, second.nodes)


@pytest.mark.parametrize("a", [0.0, -1.0])
def test_every_reader_of_a_laplace_interval_refuses_a_with_one_text(a):
    # the 0 < a rule is one check in domains; each kind, the half line and
    # both assemblers call it
    readers = (OperatorKind.laplace_tt, OperatorKind.laplace_adjoint_tt, half_line_for,
               lambda ab: assemble_bertero_grunbaum(ab, 8),
               lambda ab: assemble_fourth_order(ab, HalfLineDomain(40.0), 8,
                                                SignVariant.AS_PROOF_BOUND))
    for read in readers:
        with pytest.raises(InvalidArgumentError) as exc:
            read(Interval(a, 1.0))
        assert str(exc.value) == "Laplace operators require 0 < a < b"


@pytest.mark.parametrize("a,shown", [(5e-324, "4.94066e-324"), (1e-310, "1e-310")])
def test_half_line_for_refuses_a_half_line_past_the_float_range(a, shown):
    # 40/a overflows for a below about 2.2e-307; a is named by its shortest
    # form that reads back as it
    with pytest.raises(InvalidArgumentError) as exc:
        half_line_for(Interval(a, 1.0))
    assert str(exc.value) == f"a = {shown} is too small: the half line [0, 40/a] overflows"
    assert half_line_for(Interval(1e-300, 1.0)).s_max == 40.0 / 1e-300
