import numpy as np
import pytest

from illposed import (FunctionKind, FunctionRep, InsufficientDataError,
                      Interval, InvalidArgumentError, ModeRangeError,
                      converged_mode_count, decompose_operator, eig_sym,
                      fit_decay, growth_check, match_eigenfunctions,
                      parse_operator, quadratic_form, spectrum_to_csv)
from illposed.acceptance import Suite, criterion_07, criterion_09
from illposed.integral_ops import OperatorKind
from illposed.problem import Problem
from illposed.spectral import (EXP_DECAY, SUPER_EXP, SVD_FLOOR, IntegralSpectrum,
                               SpectralDecomposition)

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
    assert np.max(np.abs(mu[keep] / ref[keep] - 1.0)) <= 1e-11
    assert float(np.sum(mu)) == pytest.approx(float(np.trace(M.entries)), rel=1e-13)
    assert np.all(np.diff(mu) <= 0) and np.all(mu >= 0)
    # the reference vectors with these values reconstruct M
    M2 = (Vt.T * mu[:len(s)]) @ Vt
    assert np.max(np.abs(M.entries - M2)) <= 1e-10 * mu[0]


@pytest.mark.parametrize("text", OPERATORS[:3])
def test_one_svd_of_the_half_factor_per_problem(monkeypatch, text):
    p = Problem(parse_operator(text), 128, 64, 12)
    svd, seen = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        seen.append(a)
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    p.fit  # grid, matrix, commuting operator, match, sweep and fit
    decompose_operator(p.matrix)
    assert sum(a is p.matrix.half_factor for a in seen) == 1


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
    # Bertero-Grunbaum and prolate stiffness, each at N and at 2N
    assert len(seen) == len(set(seen)) == 4


def test_match_examples(laplace_M, fourier_M, bg128, prolate128):
    rep = match_eigenfunctions(fourier_M, prolate128, 10)
    assert rep.max_residual() <= 1e-6  # threshold fixed by convergence study
    rep2 = match_eigenfunctions(laplace_M, bg128, 8)
    ray = [r.rayleigh for r in rep2.records]
    assert all(a > b for a, b in zip(ray, ray[1:]))  # integral-descending order


def test_match_negative_control(laplace_M, prolate128):
    # mismatched pair: frozen from the negative-control run (4.2e-3)
    rep = match_eigenfunctions(laplace_M, prolate128, 10)
    assert rep.commutation_residual >= 1e-3


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
    dec = SpectralDecomposition(lam, np.eye(len(lam)))
    assert growth_check(dec) > 0


def test_growth_check_negative_control():
    lam = np.arange(1, 101, dtype=float)  # lambda_n = n: ratio 1/n -> 0
    dec = SpectralDecomposition(lam, np.eye(100))
    assert growth_check(dec, 20) < growth_check(dec, 5)


def test_parseval_and_quadratic_form_identity(laplace_M, ab):
    mu = decompose_operator(laplace_M).eigenvalues
    _, _, Vt = np.linalg.svd(laplace_M.half_factor, full_matrices=False)
    f = FunctionRep(FunctionKind.SINE_SERIES, [0.6, -0.3, 0.1], ab)
    v = np.sqrt(laplace_M.grid.weights) * f.values(laplace_M.grid.nodes)
    coeffs = Vt @ v
    norm2 = float(v @ v)
    assert float(coeffs @ coeffs) == pytest.approx(norm2, rel=1e-10)
    total = float(np.sum(mu[:len(coeffs)] * coeffs ** 2))
    assert quadratic_form(laplace_M, f) == pytest.approx(total, rel=1e-8)


def test_spectrum_csv():
    text = spectrum_to_csv(IntegralSpectrum([2.0, 1.0]))
    assert text.splitlines()[0] == "n,eigenvalue"
    assert text.splitlines()[1] == "1,2"
