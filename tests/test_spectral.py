import functools
import sys

import mpmath
import numpy as np
import pytest

from illposed import (FunctionKind, FunctionRep, InsufficientDataError,
                      Interval, InvalidArgumentError, ModeRangeError,
                      converged_mode_count, decompose_operator, eig_sym,
                      fit_decay, growth_check, match_eigenfunctions,
                      parse_operator, quadratic_form, sample)
from illposed.acceptance import Suite, criterion_07, criterion_09
from illposed.integral_ops import REFINEMENT_SLACK, OperatorKind, OperatorMatrix, gram_matrix
from illposed.output import write_csv
from illposed.problem import Problem
from illposed.diff_ops import GalerkinOperator, SignVariant, assemble_bertero_grunbaum
from illposed.spectral import (EXP_DECAY, SUPER_EXP, SVD_FLOOR, IntegralSpectrum,
                               MatchReport, ModeMatch)

from conftest import decomposed, kernel_matrix

OPERATORS = ("laplace:a=1,b=2", "laplace-adjoint:a=1,b=2", "fourier",
             "hilbert:I=0,1:J=2,3")


def test_eig_sym_identity():
    dec = eig_sym(np.eye(5))
    assert dec.eigenvalues == pytest.approx(np.ones(5))


def test_eig_sym_2x2_hand_oracle():
    # char poly of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l in {1, 3}
    dec = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert dec.eigenvalues == pytest.approx([1.0, 3.0])


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(InvalidArgumentError):
        eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eig_sym_reconstruction_and_signs():
    rng = np.random.Generator(np.random.PCG64(3))
    A = rng.standard_normal((12, 12))
    M = A + A.T
    dec = eig_sym(M)
    V, lam = dec.eigenvectors, dec.eigenvalues
    assert np.max(np.abs(V.T @ V - np.eye(12))) <= 1e-10
    assert np.max(np.abs(M - V @ np.diag(lam) @ V.T)) <= 1e-10 * np.max(np.abs(M))
    for j in range(12):
        i = np.argmax(np.abs(V[:, j]))
        assert V[i, j] > 0


def test_orthonormal_gram_identity_spectrum():
    rng = np.random.Generator(np.random.PCG64(5))
    Q, _ = np.linalg.qr(rng.standard_normal((20, 8)))
    dec = eig_sym(Q.T @ Q)
    assert dec.eigenvalues == pytest.approx(np.ones(8), abs=1e-12)


@pytest.mark.parametrize("text", OPERATORS)
def test_decompose_operator_matches_full_svd(text):
    M = Problem(parse_operator(text), 256, 128, 12).matrix
    mu = decompose_operator(M).eigenvalues
    # reference: the with-vectors SVD of the half factor
    _, s, Vt = np.linalg.svd(M.half_factor, full_matrices=False)
    ref = np.concatenate([s ** 2, np.zeros(M.size - len(s))])
    assert mu.shape == (M.size,)
    keep = mu > SVD_FLOOR * mu[0]
    assert np.array_equal(keep, ref > SVD_FLOOR * ref[0])
    if M.image_refinement is not None:
        assert np.max(np.abs(mu[keep] / ref[keep] - 1.0)) <= 1e-11
    else:
        # a Cauchy factor's values come from the R of its QR: within 2 SVD
        # perturbation bounds of its own, and exact zeros past its rows
        bound = 2 * np.finfo(float).eps * np.sqrt(ref[0] / ref[keep])
        assert np.all(np.abs(mu[keep] / ref[keep] - 1.0) <= 2 * bound)
        assert np.all(mu[M.image_nodes:] == 0.0)
    K = kernel_matrix(M.kind, M.grid)
    assert float(np.sum(mu)) == pytest.approx(float(np.trace(K)), rel=1e-13)
    assert np.all(np.diff(mu) <= 0) and np.all(mu >= 0)
    # the reference vectors with these values reconstruct M
    M2 = (Vt.T * mu[:len(s)]) @ Vt
    assert np.max(np.abs(K - M2)) <= 1e-10 * mu[0]


@pytest.mark.parametrize("text", OPERATORS[:3])
def test_one_svd_of_the_half_factor_per_problem(svd_calls, text):
    # one SVD of the accepted factor, or of the R of its QR (Laplace)
    p = Problem(parse_operator(text), 128, 64, 12)
    p.fit  # grid, matrix, commuting operator, match, sweep and fit
    decompose_operator(p.matrix)
    assert (p.matrix.image_refinement is None) == (p.kind.tag == "laplace")
    B = decomposed(p.matrix)
    assert sum(np.array_equal(a, B) for a in svd_calls) == 1


def test_one_svd_of_a_refined_half_factor(svd_calls):
    # Fourier at n = 256 compares the 16- and 32-node image rules and keeps
    # the second: two SVDs in all, the accepted factor's read by every layer
    p = Problem(parse_operator("fourier"), 256, 64, 12)
    p.fit
    decompose_operator(p.matrix)
    assert p.matrix.image_nodes == 64 and p.matrix.image_refinement is not None
    assert len(svd_calls) == 2 and svd_calls[1] is p.matrix.half_factor


@functools.cache
def _fourier_nystrom_reference():
    """Eigenvalues of the Fourier composition, descending: Nystrom on 40
    Gauss-Legendre nodes in 50-digit arithmetic."""
    nodes = 40
    with mpmath.workdps(50):
        xs, ws = [], []
        for seed in np.polynomial.legendre.leggauss(nodes)[0]:
            x = mpmath.findroot(lambda t: mpmath.legendre(nodes, t), mpmath.mpf(seed))
            xs.append(x)
            ws.append(2 * (1 - x * x) / (nodes * mpmath.legendre(nodes - 1, x)) ** 2)
        K = mpmath.matrix(nodes, nodes)
        for i in range(nodes):
            for j in range(nodes):
                d = xs[i] - xs[j]
                K[i, j] = mpmath.sqrt(ws[i] * ws[j]) * (2 if i == j else 2 * mpmath.sin(d) / d)
        mu = mpmath.eigsy(K, eigvals_only=True)
        return np.array(sorted((float(m) for m in mu), reverse=True))


@pytest.mark.parametrize("n", [256, 1024])
def test_fourier_spectrum_against_50_digit_reference(n):
    spec = decompose_operator(Problem(parse_operator("fourier"), n).matrix)
    k = spec.resolved
    mu, ref = spec.eigenvalues[:k], _fourier_nystrom_reference()[:k]
    bound = REFINEMENT_SLACK * 2 * np.finfo(float).eps * np.sqrt(mu[0] / mu)
    assert k == 11 and np.all(np.abs(mu / ref - 1.0) <= bound)


def test_one_eigensystem_per_stiffness(monkeypatch):
    ab = Interval(1.0, 2.0)
    ctx = Suite(0, Problem(OperatorKind.laplace_tt(ab), 128, 64, 12),
                Problem(OperatorKind.fourier_tt(), 128, 64, 12),
                Problem(OperatorKind.laplace_adjoint_tt(ab), 128, 64, 12))
    seen = []

    def counting(solve):
        def wrapped(a, *args, **kwargs):
            seen.append(np.asarray(a).tobytes())
            return solve(a, *args, **kwargs)
        return wrapped
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    ctx.laplace.fit  # converged modes, match, sweep and fit
    assert criterion_07(ctx).passed and criterion_09(ctx).passed
    # Bertero-Grunbaum stiffness at N and at 2N, and each parity block of
    # the prolate stiffness at N and at 2N: no stiffness or block twice
    assert len(seen) == len(set(seen)) == 6


@pytest.mark.parametrize("N, N4", [(4, 32), (128, 64), (512, 64)])
def test_adjoint_report_assembles_the_proof_variant_at_n4_and_2n4(monkeypatch, N, N4):
    # N4 = N/2 clamped to [32, 64], assembled once: that assembly holds its
    # own 2N refinement, so nothing else is built
    import illposed.diff_ops
    original, built = illposed.diff_ops.assemble_fourth_order, []

    def recorded(ab, half, N, sign_variant):
        built.append((N, sign_variant))
        return original(ab, half, N, sign_variant)
    for name, module in list(sys.modules.items()):
        if name.startswith("illposed") and getattr(module, "assemble_fourth_order", None) is original:
            monkeypatch.setattr(module, "assemble_fourth_order", recorded)
    p = Problem(OperatorKind.laplace_adjoint_tt(Interval(1.0, 2.0)), 128, N, 12)
    assert len(p.report.records) == min(12, N4 // 4)
    assert built == [(N4, SignVariant.AS_PROOF_BOUND)]


def test_commutation_is_scale_free_and_refuses_a_zero_image(laplace_M, bg128):
    # the commutation residual is a ratio of norms whose squares leave the
    # float range when T*T is scaled by 4^-300 or the stiffness (with its 2N
    # refinement, whose leading block it is) by 4^500:
    # it must stay a number (power-of-two scaling of A keeps its very bits),
    # and a half factor that is all zeros is refused by name
    ref = match_eigenfunctions(laplace_M, bg128, 8).commutation_residual
    M = laplace_M
    tiny = OperatorMatrix(M.grid, M.kind, M.half_factor * 2.0 ** -300,
                          M.singular_values * 2.0 ** -300, M.image_refinement)
    assert match_eigenfunctions(tiny, bg128, 8, converged=8).commutation_residual == ref
    huge = GalerkinOperator(bg128.refined_stiffness * 4.0 ** 500, bg128.name, bg128.basis,
                            bg128.sign_variant)
    assert match_eigenfunctions(laplace_M, huge, 8, converged=8).commutation_residual <= 1e-14
    zero = OperatorMatrix(M.grid, M.kind, np.zeros_like(M.half_factor), M.singular_values,
                          M.image_refinement)
    with pytest.raises(InvalidArgumentError,
                       match="laplace:a=1,b=2: image of the matched modes is zero"):
        match_eigenfunctions(zero, bg128, 8, converged=8)


def test_match_examples(laplace_M, fourier_M, bg128, prolate128):
    rep = match_eigenfunctions(fourier_M, prolate128, 10)
    assert rep.max_residual() <= 1e-6  # threshold fixed by convergence study
    rep2 = match_eigenfunctions(laplace_M, bg128, 8)
    ray = [r.rayleigh for r in rep2.records]
    assert all(a > b for a, b in zip(ray, ray[1:]))  # integral-descending order


@pytest.mark.parametrize("text", OPERATORS[:3])
def test_match_through_the_factor_agrees_with_the_kernel_matrix(text):
    # residuals and the commutator through A^T A, against the same quantities
    # through the kernel matrix built from the kernel formulas
    p = Problem(parse_operator(text), 256)
    M, rep = p.matrix, p.report
    K = kernel_matrix(M.kind, M.grid)
    BU = np.sqrt(M.grid.weights)[:, None] * p.diff.basis.tables(M.grid, (0,))[0] @ rep.vectors
    mu1 = M.singular_values[0] ** 2
    for r, v in zip(rep.records, (BU / np.linalg.norm(BU, axis=0)).T):
        assert abs(r.residual - np.linalg.norm(K @ v - r.rayleigh * v) / mu1) <= 1e-15
    C = BU.T @ K @ BU
    lam = np.diag(p.diff.eigensystem.eigenvalues[:len(rep.records)])
    comm = np.linalg.norm(C @ lam - lam @ C) / (np.linalg.norm(C) * np.linalg.norm(lam))
    assert abs(rep.commutation_residual - comm) <= 1e-15


def test_match_negative_control(ab, grid_ab, bg128):
    # mismatched pair on one interval: frozen from the negative-control run (6.1e-3)
    M = gram_matrix(OperatorKind.hilbert_truncated(ab, Interval(3.0, 4.0)), grid_ab)
    rep = match_eigenfunctions(M, bg128, 10)
    assert rep.commutation_residual >= 1e-3
    assert not rep.passed


@pytest.mark.parametrize("residual,commutation,passed", [
    (1e-6, 1e-8, True), (1.01e-6, 1e-8, False), (1e-6, 1.01e-8, False)])
def test_match_report_passed_thresholds(residual, commutation, passed):
    # coincidence: every mode's residual within 1e-6, the commutator within 1e-8
    records = (ModeMatch(1, 1.0, 0.5, 1e-16), ModeMatch(2, 4.0, 0.1, residual))
    rep = MatchReport(records, commutation, "laplace:a=1,b=2", "bertero-grunbaum",
                      np.eye(2))
    assert rep.passed is passed


def test_match_refuses_a_basis_on_another_domain(laplace_M):
    # a trial basis is never remapped onto the integral operator's grid
    op = assemble_bertero_grunbaum(Interval(0.5, 3.0), 32)
    with pytest.raises(InvalidArgumentError, match="basis lives on"):
        match_eigenfunctions(laplace_M, op, 4)


def test_match_mode_range_guard(laplace_M, bg128):
    with pytest.raises(ModeRangeError):
        match_eigenfunctions(laplace_M, bg128, 1000)


def test_converged_mode_count(bg128):
    conv = converged_mode_count(bg128)
    assert 10 <= conv <= 32


def test_fit_decay_synthetic_exact():
    n = np.arange(1, 21)
    dec = IntegralSpectrum(3.0 * np.exp(-2.0 * n))
    fit = fit_decay(dec, EXP_DECAY, (1, 20))
    assert fit.c1 == pytest.approx(3.0, rel=1e-10)
    assert fit.c2 == pytest.approx(2.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_decay_laplace(laplace_M):
    fit = fit_decay(decompose_operator(laplace_M), EXP_DECAY, (2, 25))
    assert fit.r_squared >= 0.99 and fit.c2 > 0


def test_fit_decay_fourier_superexp(fourier_M):
    dec = decompose_operator(fourier_M)
    fit_a = fit_decay(dec, SUPER_EXP, (4, 12))
    fit_b = fit_decay(dec, SUPER_EXP, (8, 16))
    assert fit_a.slope < 0 and fit_b.slope < 0
    assert abs(fit_a.slope - fit_b.slope) <= 0.15 * abs(fit_a.slope)


def test_fit_decay_insufficient_data():
    dec = IntegralSpectrum([1.0, 0.5, 0.1])
    with pytest.raises(InsufficientDataError):
        fit_decay(dec, EXP_DECAY, (1, 3))


def test_growth_check_legendre_spectrum():
    lam = np.array([(n - 1) * n for n in range(2, 30)], dtype=float)
    assert growth_check(lam) > 0


def test_growth_check_negative_control():
    lam = np.arange(1, 101, dtype=float)  # lambda_n = n: ratio 1/n -> 0
    assert growth_check(lam, 20) < growth_check(lam, 5)


def test_growth_check_refuses_an_empty_window():
    # on [0.01, 1] at N = 16 no Galerkin mode survives N -> 2N
    op = assemble_bertero_grunbaum(Interval(0.01, 1.0), 16)
    conv = converged_mode_count(op)
    assert conv == 0
    with pytest.raises(InsufficientDataError, match="no modes"):
        growth_check(op.eigensystem.eigenvalues, conv)
    with pytest.raises(InsufficientDataError):
        growth_check(np.array([]))


def test_parseval_and_quadratic_form_identity(laplace_M, ab):
    mu = decompose_operator(laplace_M).eigenvalues
    _, _, Vt = np.linalg.svd(laplace_M.half_factor, full_matrices=False)
    f = FunctionRep(FunctionKind.SINE_SERIES, [0.6, -0.3, 0.1], ab)
    v = np.sqrt(laplace_M.grid.weights) * sample(f, laplace_M.grid.nodes)
    coeffs = Vt @ v
    norm2 = float(v @ v)
    assert float(coeffs @ coeffs) == pytest.approx(norm2, rel=1e-10)
    total = float(np.sum(mu[:len(coeffs)] * coeffs ** 2))
    assert quadratic_form(laplace_M, f) == pytest.approx(total, rel=1e-8)


def test_spectrum_csv(tmp_path):
    path = tmp_path / "spectrum.csv"
    write_csv(str(path), ("n", "eigenvalue"),
              enumerate(IntegralSpectrum([2.0, 1.0]).eigenvalues, start=1))
    text = path.read_text()
    assert text.splitlines()[0] == "n,eigenvalue"
    assert text.splitlines()[1] == "1,2"
