import re

import numpy as np
import pytest

from illposed import (FigureId, FunctionKind, FunctionRep, Interval,
                      InvalidArgumentError, OperatorKind, build_gramian,
                      gram_matrix, l2_norm, make_grid, quadratic_form,
                      reproduce_figure, worst_function)
from illposed.adversarial import FIGURES
from illposed.problem import Problem
from illposed.spectral import SVD_FLOOR

HILBERT = OperatorKind.hilbert_truncated(Interval(0.0, 1.0), Interval(2.0, 3.0))
UNIT = Interval(0.0, 1.0)

# printed-coefficient figure ratios, frozen from 40-digit quadrature oracles
FIG1_PRINTED_RATIO = 2.5971582e-3
FIG3_PRINTED_RATIO = 2.1683345e-12


@pytest.fixture(scope="module")
def hilbert_M():
    return gram_matrix(HILBERT, make_grid(UNIT, 256))


def image_matrix(M, size):
    """AV: the half-factor images of sqrt(2/L) sin(k pi (x-a)/L), k = 1..size,
    sampled with np.sin on M's grid."""
    grid, dom = M.grid, M.grid.domain
    k = np.arange(1, size + 1)
    V = np.sqrt(2.0 / dom.length) * np.sin(np.outer(grid.nodes - dom.a, k * np.pi / dom.length))
    return M.half_factor @ (np.sqrt(grid.weights)[:, None] * V)


def image_gramian(M, size):
    """G = (AV)^T AV, the Gramian of the half-factor images of the sine family."""
    AV = image_matrix(M, size)
    return AV.T @ AV


def test_gramian_matches_a_gramian_built_from_np_sin(hilbert_M):
    for size in range(1, 13):
        rep = build_gramian(hilbert_M, size)
        s = np.linalg.svd(image_matrix(hilbert_M, size), compute_uv=False)
        top = s[0] ** 2
        assert abs(rep.min_eigenvalue - s[-1] ** 2) <= 1e-15 * top, size
        assert rep.below_floor == bool(s[-1] ** 2 <= SVD_FLOOR * top), size
        # the minimizer attains the minimum on the test's own Gramian
        a = rep.minimizer_coefficients
        assert float(a @ image_gramian(hilbert_M, size) @ a) == \
            pytest.approx(s[-1] ** 2, rel=1e-6, abs=1e-15 * top), size
        assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-14)
        assert a[np.argmax(np.abs(a))] > 0
    # the minimum crosses SVD_FLOOR * top between 8 and 9 sines
    assert not build_gramian(hilbert_M, 8).below_floor
    assert build_gramian(hilbert_M, 9).below_floor


def test_gramian_requires_orthonormal_basis(ab):
    # 64 Gauss nodes cannot resolve 100 sines: their grid Gram is not the identity
    M = gram_matrix(OperatorKind.laplace_tt(ab), make_grid(ab, 64))
    with pytest.raises(InvalidArgumentError, match="not orthonormal"):
        build_gramian(M, 100)
    with pytest.raises(InvalidArgumentError, match="basis size"):
        build_gramian(M, 0)


def test_gramian_needs_an_interval_domain(adjoint_M):
    with pytest.raises(InvalidArgumentError, match="needs an interval domain"):
        build_gramian(adjoint_M, 4)


def test_gramian_single_function():
    M = gram_matrix(HILBERT, make_grid(UNIT, 64))
    rep = build_gramian(M, 1)
    G = image_gramian(M, 1)
    assert G.shape == (1, 1)
    assert rep.minimizer_coefficients == pytest.approx([1.0])
    assert rep.min_eigenvalue == pytest.approx(G[0, 0], rel=1e-12)


def test_hilbert_sine_family_reaches_1e_minus_7(hilbert_M):
    rep = build_gramian(hilbert_M, 5)
    assert rep.min_eigenvalue <= 1e-7


def test_worst_function_achieves_min_eigenvalue(ab, laplace_M):
    rep = build_gramian(laplace_M, 4)
    f = worst_function(rep)
    assert f.kind is FunctionKind.SINE_SERIES and f.domain == ab and len(f.payload) == 4
    ratio = quadratic_form(laplace_M, f) / l2_norm(f, laplace_M.grid) ** 2
    assert ratio == pytest.approx(rep.min_eigenvalue, rel=1e-9)
    # paper-scale magnitude: within a factor 30 of 1e-8
    assert 1e-8 / 30 <= ratio <= 30e-8


def test_min_eigenvalue_weakly_decreasing_in_basis_size(hilbert_M):
    vals = [build_gramian(hilbert_M, n).min_eigenvalue for n in range(1, 7)]
    assert all(a >= b * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))


def test_gramian_matches_direct_quadratic_form(ab):
    M = gram_matrix(OperatorKind.laplace_tt(ab), make_grid(ab, 128))
    rep = build_gramian(M, 5)
    G = image_gramian(M, 5)
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(50):
        a = rng.standard_normal(5)
        f = FunctionRep(FunctionKind.SINE_SERIES, np.sqrt(2.0 / ab.length) * a, ab)
        direct = quadratic_form(M, f)
        through_g = float(a @ G @ a)
        assert through_g == pytest.approx(direct, rel=1e-9, abs=1e-30)
        # the reported minimum bounds every Rayleigh quotient of G from below
        assert rep.min_eigenvalue * float(a @ a) <= through_g * (1.0 + 1e-9)


def figure(fid):
    """The figure's record on its operator's Problem at the default size."""
    return reproduce_figure(fid, Problem(FIGURES[fid].operator))


def test_figure2_reproduces():
    rec = figure(FigureId.FIG2)
    assert rec["pass"] is True
    assert 1e-8 / 30 <= rec["computed_ratio"] <= 30e-8


def test_figure1_matches_oracle_value():
    # the printed coefficients do NOT reproduce the captioned 1e-7 (see the
    # acceptance notes); the computed ratio must match the independent
    # 40-digit quadrature oracle for the printed function
    rec = figure(FigureId.FIG1)
    assert rec["computed_ratio"] == pytest.approx(FIG1_PRINTED_RATIO, rel=1e-6)


def test_figure3_matches_oracle_value():
    rec = figure(FigureId.FIG3)
    assert rec["computed_ratio"] == pytest.approx(FIG3_PRINTED_RATIO, rel=1e-6)


def test_unknown_figure_rejected():
    with pytest.raises(InvalidArgumentError, match="unknown figure id"):
        reproduce_figure(7, Problem(HILBERT))


@pytest.mark.parametrize("fid, other", [
    (FigureId.FIG1, OperatorKind.laplace_tt(Interval(1.0, 2.0))),
    (FigureId.FIG2, OperatorKind.laplace_tt(Interval(1.0, 3.0))),
    (FigureId.FIG3, HILBERT),
])
def test_a_figure_refuses_another_operators_problem(fid, other):
    # a figure is read on its own operator: a Problem of another kind, or of
    # the same kind on other intervals, is refused before anything is built
    p = Problem(other, 64)
    own = FIGURES[fid].operator.to_string()
    text = f"figure {fid.value} is read on {own}, not {other.to_string()}"
    with pytest.raises(InvalidArgumentError, match=re.escape(text)):
        reproduce_figure(fid, p)
    assert "grid" not in vars(p) and "matrix" not in vars(p)
