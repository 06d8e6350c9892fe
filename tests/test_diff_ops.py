import numpy as np
import pytest
from numpy.polynomial import laguerre as nplag

from illposed import (ExpPoly, FunctionKind, FunctionRep, Interval,
                      InvalidArgumentError, RepresentationError, SignVariant,
                      assemble_bertero_grunbaum, assemble_fourth_order,
                      assemble_prolate, eig_sym, h1_seminorm, l2_norm)
from illposed.diff_ops import project_coefficients
from illposed.domains import half_line_for

AB = Interval(1.0, 2.0)


def dirichlet_form(op, f):
    """<D f, f> through the trial-space quadratic form."""
    c = project_coefficients(op, f)
    return float(c @ op.stiffness @ c)


def test_bg_requires_positive_a():
    with pytest.raises(InvalidArgumentError):
        assemble_bertero_grunbaum(Interval(-1.0, 2.0), 16)
    with pytest.raises(InvalidArgumentError):
        assemble_bertero_grunbaum(AB, 3)


def test_bg_symmetric_positive_definite():
    op = assemble_bertero_grunbaum(AB, 32)
    S = op.stiffness
    assert np.max(np.abs(S - S.T)) <= 1e-12 * np.max(np.abs(S))
    assert np.linalg.eigvalsh(S)[0] > 0


def test_bg_constant_function_oracle():
    # <D 1, 1> = 2 int_1^2 (t^2 - 1) dt = 8/3
    op = assemble_bertero_grunbaum(AB, 32)
    one = FunctionRep(FunctionKind.LEGENDRE_SERIES, [1.0], AB)
    assert dirichlet_form(op, one) == pytest.approx(8.0 / 3.0, rel=1e-13)


def test_dirichlet_form_rayleigh_at_eigenvector():
    op = assemble_bertero_grunbaum(AB, 32)
    dec = eig_sym(op.stiffness)
    f = FunctionRep(FunctionKind.LEGENDRE_SERIES, dec.eigenvectors[:, 0], AB)
    assert dirichlet_form(op, f) == pytest.approx(dec.eigenvalues[0], rel=1e-12)


def test_dirichlet_upper_bound_inequality():
    # <Df,f> <= (b^2-a^2)^2 ||f_x||^2 + 2 (b^2-a^2) ||f||^2
    op = assemble_bertero_grunbaum(AB, 48)
    grid = op.grid
    bound_k = (AB.b ** 2 - AB.a ** 2)
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(100):
        c = rng.standard_normal(10) / (np.arange(1, 11) ** 1.5)
        f = FunctionRep(FunctionKind.SINE_SERIES, c, AB)
        lhs = dirichlet_form(op, f)
        rhs = bound_k ** 2 * h1_seminorm(f, grid) ** 2 + 2 * bound_k * l2_norm(f, grid) ** 2
        assert lhs <= rhs * (1.0 + 1e-10)


def test_projection_residual_guard():
    op = assemble_bertero_grunbaum(AB, 6)  # tiny trial space
    spiky = FunctionRep(FunctionKind.SINE_SERIES, np.ones(14), AB)
    with pytest.raises(RepresentationError):
        dirichlet_form(op, spiky)


def test_prolate_constant_oracle():
    # f = 1/sqrt(2): <Df,f> = int x^2 / 2 dx = 1/3
    op = assemble_prolate(32)
    f = FunctionRep(FunctionKind.LEGENDRE_SERIES, [1.0], Interval(-1.0, 1.0))
    assert dirichlet_form(op, f) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_prolate_eigenvalues_near_legendre():
    # x^2 perturbs -((1-x^2)u')' whose eigenvalues are (n-1)n, 1-indexed
    op = assemble_prolate(64)
    lam = np.linalg.eigvalsh(op.stiffness)
    for n in range(6, 13):
        legendre = (n - 1) * n
        assert abs(lam[n - 1] - legendre) <= 0.05 * legendre


def test_prolate_eigenvector_parity():
    op = assemble_prolate(48)
    dec = eig_sym(op.stiffness)
    # reflection x -> -x flips odd Legendre coefficients
    signs = (-1.0) ** np.arange(48)
    for n in range(10):
        v = dec.eigenvectors[:, n]
        overlap = float(v @ (signs * v))
        assert abs(abs(overlap) - 1.0) <= 1e-10


def test_fourth_order_symmetry_and_proof_variant_pd():
    half = half_line_for(AB)
    for variant in SignVariant:
        op = assemble_fourth_order(AB, half, 32, variant)
        S = op.stiffness
        assert np.max(np.abs(S - S.T)) <= 1e-12 * np.max(np.abs(S))
    proof = assemble_fourth_order(AB, half, 32, SignVariant.AS_PROOF_BOUND)
    assert np.linalg.eigvalsh(proof.stiffness)[0] > 0


def test_fourth_order_exp_oracle():
    # f = e^{-t}, a=1, b=2: 1/4 + 5*(1/4) + (4*(1/4) + 2*(1/2)) = 7/2
    half = half_line_for(AB)
    op = assemble_fourth_order(AB, half, 48, SignVariant.AS_PROOF_BOUND)
    got = dirichlet_form(op, ExpPoly([1.0], 1.0))
    assert got == pytest.approx(3.5, rel=1e-4)


def laguerre_raw_reference(basis, x, order):
    """Raw trial functions and derivatives, one lagval/lagder per degree."""
    sigma = basis.sigma
    u = 2.0 * sigma * x
    env = np.sqrt(2.0 * sigma) * np.exp(-sigma * x)
    out = np.empty((len(x), basis.size))
    for k in range(basis.size):
        ck = np.zeros(k + 1)
        ck[k] = 1.0
        L0 = nplag.lagval(u, ck)
        if order == 0:
            out[:, k] = env * L0
            continue
        L1 = nplag.lagval(u, nplag.lagder(ck)) if k >= 1 else np.zeros_like(u)
        if order == 1:
            out[:, k] = env * (2.0 * sigma * L1 - sigma * L0)
        else:
            L2 = nplag.lagval(u, nplag.lagder(ck, 2)) if k >= 2 else np.zeros_like(u)
            out[:, k] = env * (4.0 * sigma ** 2 * L2 - 4.0 * sigma ** 2 * L1
                               + sigma ** 2 * L0)
    return out


@pytest.mark.parametrize("N", [32, 64, 128])
def test_laguerre_vandermonde_matches_per_degree_reference(N):
    op = assemble_fourth_order(AB, half_line_for(AB), N, SignVariant.AS_PROOF_BOUND)
    t = op.grid.nodes
    for order in (0, 1, 2):
        ref = laguerre_raw_reference(op.basis, t, order)
        err = np.max(np.abs(op.basis._raw(t, order) - ref))
        assert err <= 1e-11 * np.max(np.abs(ref)), (N, order)


def test_fourth_order_invalid_variant():
    with pytest.raises(InvalidArgumentError):
        assemble_fourth_order(AB, half_line_for(AB), 32, "proof")
