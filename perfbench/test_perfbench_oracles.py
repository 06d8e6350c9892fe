"""Each benchmark oracle against mpmath or scipy.integrate."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

import oracles

OPS = ("laplace:a=1,b=2", "laplace-adjoint:a=1,b=2", "fourier", "hilbert:I=0,1:J=2,3")


def test_trace_closed_forms():
    laplace = mpmath.quad(lambda t, s: mpmath.exp(-2 * s * t), [1, 2], [0, mpmath.inf])
    frullani = mpmath.quad(lambda s: (mpmath.exp(-2 * s) - mpmath.exp(-4 * s)) / (2 * s),
                           [0, 1, mpmath.inf])
    hilbert = mpmath.quad(lambda x, y: 1 / (mpmath.pi ** 2 * (y - x) ** 2), [0, 1], [2, 3])
    fourier = mpmath.quad(lambda x, xi: 1, [-1, 1], [-1, 1])
    for op, ref in zip(OPS, (laplace, frullani, fourier, hilbert)):
        assert oracles.hs_norm_sq(op) == pytest.approx(float(ref), rel=1e-14)
        # the independent kernel matrix carries the same trace
        assert np.trace(oracles.kernel_matrix(op)) == pytest.approx(float(ref), rel=1e-12)
    mirrored = oracles.hs_norm_sq("hilbert:I=2,3:J=0,1")
    assert mirrored == pytest.approx(oracles.hs_norm_sq(OPS[3]), rel=1e-14)


@pytest.mark.parametrize("op", OPS)
def test_kernel_entries_are_the_integrals(op):
    if op.startswith("laplace"):
        lo, hi = 1.0, 2.0
        kernel = lambda x, y: integrate.quad(lambda s: math.exp(-s * (x + y)), 0, np.inf)[0]
    elif op == "fourier":
        lo, hi = -1.0, 1.0
        kernel = lambda x, y: integrate.quad(lambda xi: math.cos(xi * (x - y)), -1, 1)[0]
    else:
        lo, hi = 0.0, 1.0
        kernel = lambda x, y: integrate.quad(
            lambda t: 1 / (math.pi ** 2 * (t - x) * (t - y)), 2, 3)[0]
    n = 6
    x, w = oracles.gauss(lo, hi, n)
    K = oracles.kernel_matrix(op, n) / np.sqrt(np.outer(w, w))
    ref = np.array([[kernel(a, b) for b in x] for a in x])
    assert np.allclose(K, ref, rtol=1e-12, atol=0)
    # mu_1 has converged at the default size
    assert oracles.top_eigenvalues(op, 48)[0] == pytest.approx(
        oracles.top_eigenvalues(op)[0], rel=1e-13)


def test_prolate_matrix_entries():
    def pbar(k, x):
        return mpmath.sqrt(k + mpmath.mpf(1) / 2) * mpmath.legendre(k, x)

    def dpbar(k, x):
        return mpmath.diff(lambda t: pbar(k, t), x)

    S = oracles.prolate_galerkin_matrix(5)
    for i in range(5):
        for j in range(i, 5):
            ref = mpmath.quad(lambda x: (1 - x ** 2) * dpbar(i, x) * dpbar(j, x)
                              + x ** 2 * pbar(i, x) * pbar(j, x), [-1, 1])
            assert S[i, j] == pytest.approx(float(ref), rel=1e-13, abs=1e-14)


def test_laplace_image_of_sine_series():
    c = np.array([0.3, -0.5, 0.2])
    for raw_x in (False, True):
        omega = np.arange(1, 4) * math.pi
        phase = 0.0 if raw_x else -omega * 1.0
        f = lambda t: float(np.sin(omega * t + phase) @ c)
        ref = integrate.dblquad(lambda t, u: f(t) * f(u) / (t + u), 1, 2, 1, 2,
                                epsabs=1e-14, epsrel=1e-12)[0]
        got = oracles.laplace_image_norm_sq(c, 1.0, 2.0, raw_x=raw_x)[0]
        assert got == pytest.approx(ref, rel=1e-10)


def test_fourier_image_and_figure3_ratio():
    c = np.array([0.4, 0.0, -0.3])
    f = lambda x: float(np.sin(np.arange(1, 4) * math.pi * (x + 1) / 2) @ c)

    def energy(xi):
        re = integrate.quad(lambda x: f(x) * math.cos(xi * x), -1, 1, epsabs=1e-15)[0]
        im = integrate.quad(lambda x: f(x) * math.sin(xi * x), -1, 1, epsabs=1e-15)[0]
        return re * re + im * im

    ref = integrate.quad(energy, -1, 1, epsabs=1e-15)[0]
    assert oracles.fourier_image_norm_sq(c)[0] == pytest.approx(ref, rel=1e-10)
    # figure 3: cosine series, deep cancellation; 30-digit closed form
    mpmath.mp.dps = 30
    try:
        coeffs = [mpmath.mpf(v) for v in oracles.FIGURES[3]["coeffs"]]

        def fhat(xi):  # int_{-1}^{1} sum_k c_k cos(k pi x) cos(xi x) dx
            return sum(ck * (mpmath.sinc(k * mpmath.pi - xi) + mpmath.sinc(k * mpmath.pi + xi))
                       for k, ck in enumerate(coeffs, start=1))

        ratio = mpmath.quad(lambda xi: fhat(xi) ** 2, [-1, 1]) / sum(ck ** 2 for ck in coeffs)
    finally:
        mpmath.mp.dps = 15
    assert oracles.figure_ratio(3) == pytest.approx(float(ratio), rel=1e-8)


def test_hilbert_image_and_gramian():
    c = np.array([1.0, 0.5])
    f = lambda x: float(np.sin(np.arange(1, 3) * math.pi * x) @ c)
    Hf = lambda y: integrate.quad(lambda x: f(x) / (y - x), 0, 1, epsabs=1e-15)[0] / math.pi
    ref = integrate.quad(lambda y: Hf(y) ** 2, 2, 3, epsabs=1e-16)[0]
    got = oracles.hilbert_image_norm_sq(c, (0.0, 1.0), (2.0, 3.0))[0]
    assert got == pytest.approx(ref, rel=1e-10)
    phi = [lambda x, k=k: math.sqrt(2) * math.sin(k * math.pi * x) for k in (1, 2)]
    H = [lambda y, p=p: integrate.quad(lambda x: p(x) / (y - x), 0, 1,
                                       epsabs=1e-15)[0] / math.pi for p in phi]
    G = np.array([[integrate.quad(lambda y: H[i](y) * H[j](y), 2, 3, epsabs=1e-16)[0]
                   for j in range(2)] for i in range(2)])
    assert oracles.hilbert_sine_gramian_min((0.0, 1.0), (2.0, 3.0), 2) == pytest.approx(
        np.linalg.eigvalsh(G)[0], rel=1e-8)


def test_figure_ratios_against_quadrature():
    fig = oracles.FIGURES[2]
    c = np.concatenate([np.zeros(fig["first"] - 1), fig["coeffs"]])
    f = lambda t: float(np.sin(np.arange(1, len(c) + 1) * math.pi * t) @ c)
    image = integrate.dblquad(lambda t, u: f(t) * f(u) / (t + u), 1, 2, 1, 2,
                              epsabs=1e-16, epsrel=1e-12)[0]
    norm2 = integrate.quad(lambda t: f(t) ** 2, 1, 2)[0]
    assert oracles.figure_ratio(2) == pytest.approx(image / norm2, rel=1e-6)


def test_expoly_closed_forms():
    poly, rate = np.array([0.7, -0.4, 0.15]), 1.3
    g = lambda s: sum(p * s ** k for k, p in enumerate(poly)) * mpmath.exp(-rate * s)
    lstar = lambda t: mpmath.quad(lambda s: mpmath.exp(-s * t) * g(s), [0, mpmath.inf])
    ref = mpmath.quad(lambda t: lstar(t) ** 2, [1, 2])
    got = oracles.lstar_expoly_norm_sq(poly, rate, 1.0, 2.0)
    assert got == pytest.approx(float(ref), rel=1e-12)
    P = np.polynomial.Polynomial(poly)
    h0 = lambda x: P(x) * math.exp(-rate * x)
    h1 = lambda x: (P.deriv()(x) - rate * P(x)) * math.exp(-rate * x)
    h2 = lambda x: ((P.deriv(2)(x) - 2 * rate * P.deriv()(x) + rate ** 2 * P(x))
                    * math.exp(-rate * x))
    norm = lambda h, p: math.sqrt(integrate.quad(lambda x: x ** (2 * p) * h(x) ** 2, 0, np.inf,
                                                 epsabs=1e-15, epsrel=1e-13)[0])
    ref_norm = norm(h0, 0)
    ref_ratio = (norm(h2, 1) + norm(h1, 1) + norm(h0, 1) + ref_norm) / ref_norm
    got_norm, got_ratio = oracles.expoly_ratio(poly, rate)
    assert got_norm == pytest.approx(ref_norm, rel=1e-11)
    assert got_ratio == pytest.approx(ref_ratio, rel=1e-10)


def test_series_norms_and_sup():
    c = np.array([[0.5], [-0.2], [0.1]])
    w = np.arange(1, 4) * math.pi
    f = lambda x: float(np.sin(w * (x - 1)) @ c[:, 0])
    df = lambda x: float((w * np.cos(w * (x - 1))) @ c[:, 0])
    l2 = lambda h: math.sqrt(integrate.quad(lambda x: h(x) ** 2, 1, 2)[0])
    norm, dnorm = oracles.sine_series_norms(c, 1.0, 2.0)
    assert norm[0] == pytest.approx(l2(f), rel=1e-12)
    assert dnorm[0] == pytest.approx(l2(df), rel=1e-12)
    assert oracles.sine_series_sup(c, 1.0, 2.0)[0] == pytest.approx(
        max(abs(f(x)) for x in np.linspace(1, 2, 20001)), rel=1e-6)

    leg = np.array([1.2, 0.3, -0.1, 0.05])
    mass, lnorm, ldnorm = oracles.legendre_series_norms(leg, 1.0, 2.0)
    k = np.arange(4)
    g = lambda x: float(np.polynomial.legendre.legval(2 * x - 3, leg * np.sqrt(2 * k + 1)))
    g_mp = lambda x: sum(c * mpmath.sqrt(2 * i + 1) * mpmath.legendre(i, 2 * x - 3)
                         for i, c in enumerate(leg))
    dg = lambda x: float(mpmath.diff(g_mp, x))
    assert mass == pytest.approx(integrate.quad(g, 1, 2)[0], rel=1e-12)
    assert lnorm == pytest.approx(l2(g), rel=1e-12)
    assert ldnorm == pytest.approx(l2(dg), rel=1e-9)


@pytest.mark.parametrize("c2, length", [(1.0, 1.0), (0.3, 2.0), (10.0, 1.0)])
def test_lemma3_prefactor_is_the_minimum(c2, length):
    h = lambda x: x / 2 * mpmath.exp(c2 / (2 * mpmath.sqrt(x * length)))
    grid = [length * mpmath.mpf(10) ** (-e / mpmath.mpf(200)) for e in range(0, 1601)]
    brute = min(min(h(x) for x in grid), mpmath.mpf(length) / 4)
    got = oracles.lemma3_prefactor(c2, length)
    assert got ** 2 <= float(brute) * (1 + 1e-12)
    assert got ** 2 == pytest.approx(float(brute), rel=1e-4)
