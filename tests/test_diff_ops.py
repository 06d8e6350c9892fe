import warnings

import numpy as np
import pytest
from numpy.polynomial import laguerre as nplag

from illposed import (ExpPoly, FunctionKind, FunctionRep, Interval,
                      InvalidArgumentError, RepresentationError, SignVariant,
                      assemble_bertero_grunbaum, assemble_fourth_order,
                      assemble_prolate, converged_mode_count, eig_sym,
                      h1_seminorm, l2_norm, sample)
from illposed.spectral import CONVERGENCE_RTOL
from illposed.diff_ops import MIN_TRIAL, eigvals_sym, project_coefficients
from illposed.domains import HalfLineDomain, half_line_for, make_grid
from illposed.functions import legendre_tables

AB = Interval(1.0, 2.0)


def dirichlet_form(op, f):
    """<D f, f> through the trial-space quadratic form."""
    c = project_coefficients(op, sample(f, op.grid.nodes))
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


@pytest.mark.parametrize("ab", [(1.0, 2.0), (0.5, 3.0), (2.0, 5.0)])
@pytest.mark.parametrize("N", [32, 64])
def test_printed_fourth_order_variant_converges_on_no_mode(ab, N):
    # the negative control behind a Problem assembling AS_PROOF_BOUND alone:
    # the printed operator's leading eigenvalues all move under N -> 2N,
    # while the proof's quadratic form settles on every mode counted
    ab = Interval(*ab)
    lemma, proof = (assemble_fourth_order(ab, half_line_for(ab), N, variant)
                    for variant in (SignVariant.AS_LEMMA, SignVariant.AS_PROOF_BOUND))
    assert converged_mode_count(lemma) == 0
    assert converged_mode_count(proof) == N // 4


def test_fourth_order_exp_oracle():
    # f = e^{-t}, a=1, b=2: 1/4 + 5*(1/4) + (4*(1/4) + 2*(1/2)) = 7/2
    half = half_line_for(AB)
    op = assemble_fourth_order(AB, half, 48, SignVariant.AS_PROOF_BOUND)
    got = dirichlet_form(op, ExpPoly([1.0], 1.0))
    assert got == pytest.approx(3.5, rel=1e-12)


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


def whole_basis_operator(N):
    """The fourth-order operator at N on a half line out past the mass of
    every trial function, and a Gauss grid on that half line: the Laguerre
    function of degree k carries mass out to u = 2 sigma t ~ 4k + 2.  The
    half line is only the basis domain; the stiffness does not read it."""
    sigma = 0.5 * (AB.a + AB.b)
    s_max = 1.25 * (4.0 * N + 2.0) / (2.0 * sigma)
    half = HalfLineDomain(max(half_line_for(AB).s_max, s_max))
    op = assemble_fourth_order(AB, half, N, SignVariant.AS_PROOF_BOUND)
    return op, make_grid(half, max(48, N))


@pytest.mark.parametrize("N", [32, 64, 128])
def test_laguerre_vandermonde_matches_per_degree_reference(N):
    op, grid = whole_basis_operator(N)
    for order, table in zip((0, 1, 2), op.basis.tables(grid, (0, 1, 2))):
        ref = laguerre_raw_reference(op.basis, grid.nodes, order)
        err = np.max(np.abs(table - ref))
        assert err <= 1e-11 * np.max(np.abs(ref)), (N, order)


def test_laguerre_tables_take_one_vandermonde():
    op, grid = whole_basis_operator(32)
    for orders in ((0,), (0, 1), (0, 1, 2), (2,)):
        assert len(op.basis.tables(grid, orders)) == len(orders), orders
    full = op.basis.tables(grid, (0, 1, 2))
    assert np.array_equal(op.basis.tables(grid, (2,))[0], full[2])
    assert all(not table.flags.writeable for table in full)


@pytest.mark.parametrize("variant", list(SignVariant), ids=[v.value for v in SignVariant])
@pytest.mark.parametrize("N", [8, 32, 64])
def test_fourth_order_stiffness_matches_gauss_laguerre(N, variant):
    # oracle: the weak form's integrals over [0, inf) by (N+4)-point
    # Gauss-Laguerre in u = 2 sigma t, exact for its polynomial integrands,
    # on the per-degree reference functions
    op = assemble_fourth_order(AB, half_line_for(AB), N, variant)
    sigma = op.basis.sigma
    u, w = nplag.laggauss(N + 4)
    t, w = u / (2.0 * sigma), w * np.exp(u) / (2.0 * sigma)
    V, D1, D2 = (laguerre_raw_reference(op.basis, t, order) for order in (0, 1, 2))
    s = 1.0 if variant is SignVariant.AS_PROOF_BOUND else -1.0
    a2, b2 = AB.a ** 2, AB.b ** 2
    ref = (D2.T @ ((w * t ** 2)[:, None] * D2)
           + s * (a2 + b2) * (D1.T @ ((w * t ** 2)[:, None] * D1))
           + V.T @ ((w * (s * a2 * b2 * t ** 2 + 2.0 * a2))[:, None] * V))
    assert np.max(np.abs(op.stiffness - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("assemble", [lambda N: assemble_bertero_grunbaum(AB, N),
                                      assemble_prolate], ids=["bertero-grunbaum", "prolate"])
def test_legendre_operator_reads_the_sampling_tables(assemble):
    # a Legendre series sampled on the operator's grid reads the very tables
    # its trial basis gives there: one copy of each in the grid's memo, not
    # two equal ones
    from illposed.functions import grid_values
    op = assemble(24)
    f = FunctionRep(FunctionKind.LEGENDRE_SERIES, np.ones(24), op.basis.domain)
    grid_values(f, op.grid)
    grid_values(f, op.grid, 1)
    read = list(op.grid.series_tables.values())
    tables = op.basis.tables(op.grid, (0, 1))
    assert len(read) == 2 and read[0] is tables[0] and read[1] is tables[1]
    assert len(op.grid.series_tables) == 2
    assert all(not table.flags.writeable for table in tables)


def test_fourth_order_invalid_variant():
    with pytest.raises(InvalidArgumentError):
        assemble_fourth_order(AB, half_line_for(AB), 32, "proof")


@pytest.mark.parametrize("assemble", [
    lambda N: assemble_bertero_grunbaum(AB, N),
    assemble_prolate,
    lambda N: assemble_fourth_order(AB, half_line_for(AB), N, SignVariant.AS_LEMMA),
], ids=["bertero-grunbaum", "prolate", "fourth-order"])
def test_operator_keeps_its_decompositions(assemble):
    # the operator holds its eigensystems; which derivative tables a caller
    # reads is the caller's choice, so neither it nor its basis holds any
    op = assemble(16)
    assert not hasattr(op, "tables") and not hasattr(op.basis, "orders")
    dec = op.eigensystem
    assert dec is op.eigensystem and not dec.eigenvectors.flags.writeable
    ref = eig_sym(op.stiffness)
    assert np.array_equal(dec.eigenvalues, ref.eigenvalues)
    assert np.array_equal(dec.eigenvectors, ref.eigenvectors)
    assert op.stiffness.flags.c_contiguous and not op.stiffness.flags.writeable
    lam2 = op.refined_eigenvalues
    assert lam2 is op.refined_eigenvalues and not lam2.flags.writeable
    refined = assemble(32)
    assert (refined.name, refined.sign_variant) == (op.name, op.sign_variant)
    assert np.array_equal(op.refined_stiffness, refined.stiffness)
    assert not op.refined_stiffness.flags.writeable
    assert np.array_equal(lam2, eigvals_sym(op.refined_stiffness))


def test_fourth_order_assembles_past_the_laguerre_overflow():
    # Laguerre polynomials overflow near u ~ 5N on a quadrature grid; the
    # closed-form stiffness never evaluates them, so it stays finite, silent,
    # and converged on every counted mode
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for N in (320, 512):
            op = assemble_fourth_order(AB, half_line_for(AB), N, SignVariant.AS_PROOF_BOUND)
            assert converged_mode_count(op) == N // 4, N


def test_fourth_order_overflow_fails_loudly():
    # a^2 b^2 = 4e320 overflows the float range: the stiffness would be NaN,
    # and the overflow must not leak out as a RuntimeWarning either.
    ab = Interval(1e80, 2e80)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidArgumentError, match="fourth-order.*N=320"):
            assemble_fourth_order(ab, half_line_for(ab), 320, SignVariant.AS_PROOF_BOUND)


def test_converged_count_names_the_refinement_that_overflows():
    # X0^T X0 ~ (N/sigma)^2 stays finite at 256 for sigma = 3.75e-152 and
    # overflows at 512: N = 128's refinement is finite, and the N = 256
    # assembly, which is its own 2N = 512 refinement, is refused by that size
    ab = Interval(2.5e-152, 5e-152)
    op = assemble_fourth_order(ab, half_line_for(ab), 128, SignVariant.AS_PROOF_BOUND)
    assert op.refined_stiffness.shape == (256, 256)
    assert np.all(np.isfinite(op.refined_stiffness))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidArgumentError, match="fourth-order.*N=512"):
            assemble_fourth_order(ab, half_line_for(ab), 256, SignVariant.AS_PROOF_BOUND)


@pytest.mark.parametrize("assemble", [
    lambda N: assemble_bertero_grunbaum(AB, N),
    lambda N: assemble_bertero_grunbaum(Interval(0.01, 1.0), N),
    lambda N: assemble_bertero_grunbaum(Interval(0.1, 1.0), N),
    lambda N: assemble_bertero_grunbaum(Interval(100.0, 200.0), N),
    assemble_prolate,
    lambda N: assemble_fourth_order(AB, half_line_for(AB), N, SignVariant.AS_LEMMA),
    lambda N: assemble_fourth_order(AB, half_line_for(AB), N, SignVariant.AS_PROOF_BOUND),
], ids=["bertero-grunbaum", "bertero-grunbaum-0.01-1", "bertero-grunbaum-0.1-1",
        "bertero-grunbaum-100-200", "prolate", "fourth-order-lemma", "fourth-order-proof"])
def test_operator_at_n_is_the_leading_block_at_2n(assemble):
    # every trial basis is nested, so the stiffness at N is, bit for bit,
    # the leading N x N block of the stiffness at 2N: the invariant that lets
    # one assembly at 2N be both the operator and its refinement
    for N in (4, 8, 16, 32, 64, 128, 256):
        assert np.array_equal(assemble(N).stiffness, assemble(2 * N).stiffness[:N, :N]), N


@pytest.mark.parametrize("assemble, N", [
    (lambda N: assemble_bertero_grunbaum(AB, N), 64),
    (assemble_prolate, 64),
    (lambda N: assemble_fourth_order(AB, half_line_for(AB), N, SignVariant.AS_LEMMA), 32),
    (lambda N: assemble_fourth_order(AB, half_line_for(AB), N, SignVariant.AS_PROOF_BOUND), 32),
], ids=["bertero-grunbaum", "prolate", "fourth-order-lemma", "fourth-order-proof"])
def test_assembly_and_its_refinement_build_one_grid(assemble, N, monkeypatch):
    # the stiffness is exact and the 2N refinement is a matrix the operator
    # already holds: assembling and reading the converged count build no grid
    from illposed import diff_ops
    built, make_grid = [], diff_ops.make_grid

    def counted(domain, n):
        built.append(n)
        return make_grid(domain, n)
    monkeypatch.setattr(diff_ops, "make_grid", counted)
    op = assemble(N)
    converged_mode_count(op)
    assert built == [] and op.size == op.basis.size == N


@pytest.mark.parametrize("assemble", [
    lambda N: assemble_bertero_grunbaum(AB, N),
    lambda N: assemble_bertero_grunbaum(Interval(0.01, 1.0), N),
    lambda N: assemble_bertero_grunbaum(Interval(0.1, 1.0), N),
    assemble_prolate,
    lambda N: assemble_fourth_order(AB, half_line_for(AB), N, SignVariant.AS_LEMMA),
    lambda N: assemble_fourth_order(AB, half_line_for(AB), N, SignVariant.AS_PROOF_BOUND),
], ids=["bertero-grunbaum", "bertero-grunbaum-0.01-1", "bertero-grunbaum-0.1-1",
        "prolate", "fourth-order-lemma", "fourth-order-proof"])
@pytest.mark.parametrize("N", [16, 32, 64, 128])
def test_converged_count_matches_a_full_eigensolve_at_2n(assemble, N):
    # oracle: eigenvalues at N and 2N from full eigh (vectors and all), the
    # count being the leading k <= N/4 that agree to CONVERGENCE_RTOL; the
    # small-a intervals give counts strictly between 0 and N/4
    op = assemble(N)
    lam = np.linalg.eigh(op.stiffness)[0]
    lam2 = np.linalg.eigh(assemble(2 * N).stiffness)[0]
    kmax = N // 4
    stable = np.abs(lam[:kmax] - lam2[:kmax]) <= CONVERGENCE_RTOL * np.abs(lam2[:kmax])
    expected = kmax if stable.all() else int(np.argmin(stable))
    assert converged_mode_count(op) == expected


def legendre_weak_form_by_quadrature(ab, N, p, q):
    """Oracle: the weak form of -(p u')' + q u over N orthonormal Legendre
    functions on ab by (N+8)-point Gauss-Legendre quadrature, exact for the
    degree-2N integrands of a quartic p and a quadratic q."""
    grid = make_grid(ab, N + 8)
    t, w = grid.nodes, grid.weights
    V, D = legendre_tables(N, ab, t, (0, 1))
    S = D.T @ ((w * p(t))[:, None] * D) + V.T @ ((w * q(t))[:, None] * V)
    return 0.5 * (S + S.T)


def bertero_grunbaum_by_quadrature(ab, N):
    a, b = ab.a, ab.b
    return legendre_weak_form_by_quadrature(ab, N, lambda t: (t * t - a * a) * (b * b - t * t),
                                            lambda t: 2.0 * (t * t - a * a))


@pytest.mark.parametrize("operator, oracle", [
    *[(lambda N, ab=Interval(*ab): assemble_bertero_grunbaum(ab, N),
       lambda N, ab=Interval(*ab): bertero_grunbaum_by_quadrature(ab, N))
      for ab in ((1.0, 2.0), (0.01, 1.0), (0.1, 1.0), (100.0, 200.0))],
    (assemble_prolate,
     lambda N: legendre_weak_form_by_quadrature(Interval(-1.0, 1.0), N, lambda x: 1.0 - x * x,
                                                lambda x: x * x)),
], ids=["bertero-grunbaum-1-2", "bertero-grunbaum-0.01-1", "bertero-grunbaum-0.1-1",
        "bertero-grunbaum-100-200", "prolate"])
@pytest.mark.parametrize("N", [8, 32, 128, 512])
def test_legendre_stiffness_matches_gauss_quadrature(operator, oracle, N):
    # the closed form from the Jacobi matrices against the quadrature form
    # it replaced: entries to roundoff, and the leading N/4 eigenvalues
    S, ref = operator(N).stiffness, oracle(N)
    assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref))
    lam, lam_ref = np.linalg.eigvalsh(S)[:N // 4], np.linalg.eigvalsh(ref)[:N // 4]
    assert np.all(np.abs(lam - lam_ref) <= 1e-10 * np.abs(lam_ref))


@pytest.mark.parametrize("assemble", [lambda N: assemble_bertero_grunbaum(AB, N),
                                      assemble_prolate], ids=["bertero-grunbaum", "prolate"])
def test_legendre_assembly_evaluates_no_vandermonde(assemble, monkeypatch):
    from numpy.polynomial import legendre
    calls, legvander = [], legendre.legvander

    def counted(*args, **kwargs):
        calls.append(args)
        return legvander(*args, **kwargs)
    monkeypatch.setattr(legendre, "legvander", counted)
    op = assemble(512)
    op.refined_eigenvalues
    assert calls == [] and op.size == 512


@pytest.mark.parametrize("k", [-260, -20, 20, 200])
def test_bertero_grunbaum_rescales_exactly(k):
    # t -> 2^k t scales every coefficient of the weak form by 4^k: the
    # assembly must reproduce that bit for bit, with no underflow of
    # p(t) ~ t^4 at k = -260
    S = assemble_bertero_grunbaum(Interval(1.0, 2.0), 64).stiffness
    scaled = assemble_bertero_grunbaum(Interval(2.0 ** k, 2.0 ** (k + 1)), 64).stiffness
    assert np.array_equal(scaled, S * 4.0 ** k)


@pytest.mark.parametrize("N", [8, 33, 128])
def test_prolate_parity_blocks_are_the_closed_form_tridiagonals(N):
    # at bandwidth c = 1, the prolate stiffness within each parity is
    # tridiagonal with diagonal d_k = k(k+1) + c^2 (2k(k+1) - 1)/((2k+3)(2k-1))
    # and off-diagonal o_k = c^2 (k+1)(k+2)/((2k+3) sqrt((2k+1)(2k+5)))
    S = assemble_prolate(N).stiffness
    k = np.arange(N, dtype=float)
    d = k * (k + 1) + (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
    o = (k + 1) * (k + 2) / ((2 * k + 3) * np.sqrt((2 * k + 1) * (2 * k + 5)))
    assert not np.any(S[0::2, 1::2]) and not np.any(S[1::2, 0::2])
    for parity in (0, 1):
        block, dk, ok = S[parity::2, parity::2], d[parity::2], o[parity::2][:-1]
        expected = np.diag(dk) + np.diag(ok, 1) + np.diag(ok, -1)
        assert np.all(np.abs(block - expected) <= 1e-14 * np.abs(expected)), parity


@pytest.mark.parametrize("N", [16, 64, 257])
def test_parity_blocked_eigensystem_matches_a_full_solve(N):
    # oracle: eigh of the whole prolate stiffness; the blocked solve gives
    # the same eigenpairs, each vector with exact zeros in the other parity
    S = assemble_prolate(N).stiffness
    dec, (lam, vecs) = eig_sym(S), np.linalg.eigh(S)
    for values in (dec.eigenvalues, eigvals_sym(S)):
        assert np.all(np.abs(values - lam) <= 1e-13 * np.abs(lam))
    overlap = np.abs(np.sum(dec.eigenvectors * vecs, axis=0))
    assert np.all(np.abs(overlap - 1.0) <= 1e-12)
    parity = np.arange(N) % 2
    for v in dec.eigenvectors.T:
        assert not np.any(v[parity != parity[np.argmax(np.abs(v))]])


def test_every_assembly_reads_one_trial_size_floor():
    assemblers = (lambda N: assemble_bertero_grunbaum(AB, N), assemble_prolate,
                  lambda N: assemble_fourth_order(AB, half_line_for(AB), N,
                                                  SignVariant.AS_PROOF_BOUND))
    for assemble in assemblers:
        with pytest.raises(InvalidArgumentError, match=r"^trial space needs N >= 4$"):
            assemble(MIN_TRIAL - 1)
        assert assemble(MIN_TRIAL).size == MIN_TRIAL
