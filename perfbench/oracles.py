"""Reference values for the benchmark's correctness checks, computed apart
from the program.

Nothing here imports ``illposed``.  Each value comes from a closed form or
from quadrature written in this file, so a wrong answer from the program
cannot also be its own reference.  Only numpy is used, so the checks add no
dependency to a benchmark run; ``test_perfbench_oracles.py`` checks every
function here against mpmath or scipy.integrate.

Operators are named by the program's CLI strings: ``laplace:a=1,b=2``,
``laplace-adjoint:a=1,b=2``, ``fourier`` and ``hilbert:I=0,1:J=2,3``.
"""

from __future__ import annotations

import math

import numpy as np

# The stability verifiers relax fitted constants before checking an
# ensemble: c1 -> SAFETY_C1 * c1 and c2 -> SAFETY_C2 * c2 (see the
# illposed.stability module documentation).
SAFETY_C1 = 0.5
SAFETY_C2 = 2.0

# Composite Gauss panels for integrals over s in [0, inf) of Laplace images:
# the integrand decays like e^{-2 a s}, so for a >= 1 the tail past 128 is
# below e^{-256}.
_S_EDGES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def gauss(lo: float, hi: float, n: int):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _composite_s_rule(per_panel: int = 48):
    parts = [gauss(lo, hi, per_panel) for lo, hi in zip(_S_EDGES[:-1], _S_EDGES[1:])]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def parse_operator(text: str) -> dict:
    """Split a CLI operator string into its tag and interval endpoints."""
    tag, *fields = text.split(":")
    spec = {"tag": tag}
    for field in fields:
        for item in field.split(","):
            if "=" in item:
                key, value = item.split("=")
                spec[key] = [float(value)]
            else:
                spec[key].append(float(item))
    return spec


# ----------------------------------------------------------------------------
# Spectra of T*T
# ----------------------------------------------------------------------------

def hs_norm_sq(text: str) -> float:
    """||T||_HS^2 = trace(T*T) = sum of all eigenvalues, in closed form.

    Laplace and its adjoint: int_0^inf (e^{-2as} - e^{-2bs})/(2s) ds
    = ln(b/a)/2 (Frullani).  Fourier: the kernel 2 sinc(x-y) is 2 on the
    diagonal of [-1, 1], so the trace is 4.  Hilbert from I = [a, b] to
    J = [c, d] (disjoint): (1/pi^2) int_I int_J (y-x)^{-2} dy dx.
    """
    spec = parse_operator(text)
    tag = spec["tag"]
    if tag in ("laplace", "laplace-adjoint"):
        return 0.5 * math.log(spec["b"][0] / spec["a"][0])
    if tag == "fourier":
        return 4.0
    if tag == "hilbert":
        (a, b), (c, d) = spec["I"], spec["J"]
        if b > c:  # mirror so that J lies to the right of I
            (a, b), (c, d) = (-d, -c), (-b, -a)
        return (math.log((c - a) / (c - b)) - math.log((d - a) / (d - b))) / math.pi ** 2
    raise ValueError(f"no closed-form trace for {text!r}")


def kernel_matrix(text: str, n: int = 96) -> np.ndarray:
    """W^{1/2} K W^{1/2} for T*T on n Gauss nodes of the input interval.

    The adjoint Laplace composition L L* acts on the half line, but its
    nonzero spectrum is that of L* L, whose kernel is 1/(t + t') on [a, b];
    that kernel is used for both Laplace kinds.  The Hilbert kernel is
    (1/pi^2) int_J dy / ((y-x)(y-x')), a divided difference of
    g(x) = ln((d-x)/(c-x)).
    """
    spec = parse_operator(text)
    tag = spec["tag"]
    if tag in ("laplace", "laplace-adjoint"):
        x, w = gauss(spec["a"][0], spec["b"][0], n)
        K = 1.0 / (x[:, None] + x[None, :])
    elif tag == "fourier":
        x, w = gauss(-1.0, 1.0, n)
        d = x[:, None] - x[None, :]
        off = d != 0.0
        K = np.full_like(d, 2.0)
        K[off] = 2.0 * np.sin(d[off]) / d[off]
    elif tag == "hilbert":
        (a, b), (c, dd) = spec["I"], spec["J"]
        x, w = gauss(a, b, n)
        g = np.log((dd - x) / (c - x))
        dg = 1.0 / (c - x) - 1.0 / (dd - x)
        diff = x[:, None] - x[None, :]
        same = np.eye(n, dtype=bool)
        K = np.empty_like(diff)
        K[~same] = ((g[:, None] - g[None, :])[~same]) / diff[~same]
        K[same] = dg
        K /= math.pi ** 2
    else:
        raise ValueError(f"unknown operator {text!r}")
    sw = np.sqrt(w)
    M = sw[:, None] * K * sw[None, :]
    return 0.5 * (M + M.T)


def top_eigenvalues(text: str, n: int = 96) -> np.ndarray:
    """Eigenvalues of the independent kernel matrix, largest first.

    eigvalsh is accurate to about 1e-16 * mu_1 in absolute terms, so only
    values well above that are usable as references.
    """
    return np.linalg.eigvalsh(kernel_matrix(text, n))[::-1]


def prolate_galerkin_matrix(N: int) -> np.ndarray:
    """-d/dx((1-x^2) d/dx) + x^2 on the first N orthonormal Legendre functions.

    The derivative part is diagonal, n(n+1); x^2 couples n with n and n+2
    through the classical recurrence x P_n = ((n+1) P_{n+1} + n P_{n-1})/(2n+1).
    """
    k = np.arange(N, dtype=float)
    S = np.diag(k * (k + 1.0) + (2 * k * k + 2 * k - 1) / ((2 * k - 1) * (2 * k + 3)))
    j = k[:-2]
    off = (j + 1) * (j + 2) / ((2 * j + 3) * np.sqrt((2 * j + 1) * (2 * j + 5)))
    S[np.arange(N - 2), np.arange(2, N)] = off
    S[np.arange(2, N), np.arange(N - 2)] = off
    return S


def prolate_eigenvalues(N: int) -> np.ndarray:
    """Galerkin eigenvalues of the prolate operator, ascending."""
    return np.linalg.eigvalsh(prolate_galerkin_matrix(N))


# ----------------------------------------------------------------------------
# Images of explicit functions
# ----------------------------------------------------------------------------

def trig_terms(coeffs, lo: float, hi: float, raw_x: bool = False):
    """(omega_k, phase_k) of the series sum_k c_k trig(omega_k x + phase_k).

    Standard convention: trig(k pi (x - lo)/L); raw: trig(k pi x).
    """
    k = np.arange(1, len(coeffs) + 1, dtype=float)
    if raw_x:
        return k * math.pi, np.zeros_like(k)
    omega = k * math.pi / (hi - lo)
    return omega, -omega * lo


def trig_values(C, omega, phase, x, sine: bool = True) -> np.ndarray:
    """Samples of series with coefficient columns C (k x F) at points x."""
    arg = np.outer(x, omega) + phase[None, :]
    return (np.sin(arg) if sine else np.cos(arg)) @ C


def laplace_image_norm_sq(C, lo: float, hi: float, raw_x: bool = False) -> np.ndarray:
    """||L f||^2 = int_0^inf |int_lo^hi e^{-st} f(t) dt|^2 ds for sine series.

    Each column of C is one function.  The inner integral is exact:
    int e^{-st} sin(wt + p) dt = -e^{-st} (s sin(wt+p) + w cos(wt+p))/(s^2+w^2);
    the outer one uses composite Gauss panels on [0, 128].
    """
    C = np.asarray(C, dtype=float).reshape(len(C), -1)
    omega, phase = trig_terms(C[:, 0], lo, hi, raw_x)
    s, ws = _composite_s_rule()

    def antideriv(t):
        arg = omega[None, :] * t + phase[None, :]
        return (-np.exp(-s * t)[:, None]
                * (s[:, None] * np.sin(arg) + omega[None, :] * np.cos(arg))
                / (s[:, None] ** 2 + omega[None, :] ** 2))

    image = (antideriv(hi) - antideriv(lo)) @ C
    return ws @ image ** 2


def fourier_image_norm_sq(C, raw_x: bool = False, sine: bool = True) -> np.ndarray:
    """int_{-1}^{1} |f_hat(xi)|^2 d xi for trig series on [-1, 1].

    f_hat is computed by Gauss quadrature in x (the integrand is entire and
    its frequencies stay below 40), then integrated over xi in [-1, 1].
    """
    C = np.asarray(C, dtype=float).reshape(len(C), -1)
    omega, phase = trig_terms(C[:, 0], -1.0, 1.0, raw_x)
    x, wx = gauss(-1.0, 1.0, 128)
    xi, wxi = gauss(-1.0, 1.0, 64)
    F = trig_values(C, omega, phase, x, sine) * wx[:, None]
    re = np.cos(np.outer(xi, x)) @ F
    im = np.sin(np.outer(xi, x)) @ F
    return wxi @ (re ** 2 + im ** 2)


def hilbert_image_matrix(I, J, n_in: int = 128, n_out: int = 96):
    """Quadrature of (Hf)(y) = (1/pi) int_I f(x)/(y - x) dx, squared over J.

    Returns (x, B) with ||H f||^2 = ||B f(x)||^2 for any smooth f sampled at
    the nodes x of I.
    """
    x, wx = gauss(I[0], I[1], n_in)
    y, wy = gauss(J[0], J[1], n_out)
    B = np.sqrt(wy)[:, None] * (1.0 / math.pi) / (y[:, None] - x[None, :]) * wx[None, :]
    return x, B


def hilbert_image_norm_sq(C, I, J, raw_x: bool = False, sine: bool = True) -> np.ndarray:
    """||H f||^2 for trig series on I, through hilbert_image_matrix."""
    C = np.asarray(C, dtype=float).reshape(len(C), -1)
    omega, phase = trig_terms(C[:, 0], I[0], I[1], raw_x)
    x, B = hilbert_image_matrix(I, J)
    image = B @ trig_values(C, omega, phase, x, sine)
    return np.sum(image ** 2, axis=0)


def hilbert_sine_gramian_min(I, J, size: int) -> float:
    """Smallest eigenvalue of G_ij = <H phi_i, H phi_j> over the first `size`
    L2-orthonormal sines sqrt(2/L) sin(k pi (x - a)/L) on I."""
    length = I[1] - I[0]
    C = np.eye(size) * math.sqrt(2.0 / length)
    omega, phase = trig_terms(C[:, 0], I[0], I[1])
    x, B = hilbert_image_matrix(I, J)
    s = np.linalg.svd(B @ trig_values(C, omega, phase, x), compute_uv=False)
    return float(s[-1] ** 2)


def sine_series_norms(C, lo: float, hi: float):
    """(||f||, ||f'||) of standard-convention sine series, exactly.

    The sines are orthogonal on [lo, hi] with squared norm L/2 each.
    """
    C = np.asarray(C, dtype=float).reshape(len(C), -1)
    omega, _ = trig_terms(C[:, 0], lo, hi)
    half = 0.5 * (hi - lo)
    return (np.sqrt(half * np.sum(C ** 2, axis=0)),
            np.sqrt(half * np.sum((omega[:, None] * C) ** 2, axis=0)))


def sine_series_sup(C, lo: float, hi: float, points: int = 8193) -> np.ndarray:
    """max |f| over a fine uniform sample (a lower bound on the true sup)."""
    C = np.asarray(C, dtype=float).reshape(len(C), -1)
    omega, phase = trig_terms(C[:, 0], lo, hi)
    x = np.linspace(lo, hi, points)
    return np.max(np.abs(trig_values(C, omega, phase, x)), axis=0)


# ----------------------------------------------------------------------------
# Polynomial-times-exponential functions on the half line
# ----------------------------------------------------------------------------

def lstar_expoly_norm_sq(poly, rate: float, a: float, b: float) -> float:
    """||L* g||^2 over [a, b] for g(s) = p(s) e^{-rate s}.

    (L* g)(t) = int_0^inf e^{-st} g(s) ds = sum_k p_k k! / (t + rate)^{k+1}.
    """
    t, w = gauss(a, b, 64)
    u = t + rate
    image = sum(p * math.factorial(k) / u ** (k + 1) for k, p in enumerate(poly))
    return float(w @ image ** 2)


def _expoly_derivative(poly, rate: float) -> np.ndarray:
    """Coefficients q with (p e^{-rx})' = q e^{-rx}: q = p' - rate p."""
    poly = np.asarray(poly, dtype=float)
    out = -rate * poly.copy()
    out[:-1] += poly[1:] * np.arange(1, len(poly))
    return out


def expoly_weighted_norm(poly, rate: float, power: int) -> float:
    """|| x^power p(x) e^{-rate x} || over [0, inf), from Gamma moments:
    int_0^inf x^m e^{-2 rate x} dx = m! / (2 rate)^{m+1}."""
    poly = np.asarray(poly, dtype=float)
    total = 0.0
    for i, pi in enumerate(poly):
        for j, pj in enumerate(poly):
            m = i + j + 2 * power
            total += pi * pj * math.factorial(m) / (2.0 * rate) ** (m + 1)
    return math.sqrt(max(total, 0.0))


def expoly_ratio(poly, rate: float):
    """(||g||, (||x g''|| + ||x g'|| + ||x g|| + ||g||)/||g||): the Theorem-2
    oscillation aggregate of g = p e^{-rate x}."""
    d1 = _expoly_derivative(poly, rate)
    d2 = _expoly_derivative(d1, rate)
    norm = expoly_weighted_norm(poly, rate, 0)
    num = (expoly_weighted_norm(d2, rate, 1) + expoly_weighted_norm(d1, rate, 1)
           + expoly_weighted_norm(poly, rate, 1) + norm)
    return norm, num / norm


# ----------------------------------------------------------------------------
# Stability constants and verdicts
# ----------------------------------------------------------------------------

def theorem_bound(c1: float, c2: float, form: str, ratio: float, norm: float) -> float:
    """The relaxed lower bound for ||T f||: exponential or power-of-ratio."""
    c1, c2 = SAFETY_C1 * c1, SAFETY_C2 * c2
    if form == "exponential":
        return c1 * math.exp(-c2 * ratio) * norm
    x = c2 * ratio
    return c1 * x ** (-x) * norm


def lemma3_prefactor(c2: float, length: float) -> float:
    """c1(c2) of the nonnegative-mass lemma in closed form.

    c1^2 = min(L/4, min_{0 < x <= L} h(x)), h(x) = (x/2) e^{c2/(2 sqrt(x L))}.
    h has one stationary point, x* = c2^2/(16 L), where h(x*) = x* e^2 / 2;
    if x* > L the minimum over (0, L] sits at x = L.
    """
    x_star = c2 ** 2 / (16.0 * length)
    x = min(x_star, length)
    h = 0.5 * x * math.exp(c2 / (2.0 * math.sqrt(x * length)))
    return math.sqrt(min(length / 4.0, h))


def legendre_series_norms(coeffs, lo: float, hi: float):
    """(mass, ||f||, ||f'||) of an orthonormal-Legendre series on [lo, hi],
    or of each column of a coefficient matrix.

    Only the constant function has nonzero mass, sqrt(L) c_0; the norm is
    the coefficient norm; f' comes from numpy's Legendre derivative and is
    integrated exactly by Gauss quadrature.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    length = hi - lo
    k = np.arange(len(coeffs)).reshape(-1, *[1] * (coeffs.ndim - 1))
    plain = coeffs * np.sqrt((2 * k + 1) / length)
    dplain = np.polynomial.legendre.legder(plain) * (2.0 / length)
    xi, w = np.polynomial.legendre.leggauss(len(coeffs) + 1)
    dvals = np.polynomial.legendre.legval(xi, dplain)  # one row per column
    dnorm = np.sqrt(dvals ** 2 @ w * length / 2.0)
    return math.sqrt(length) * coeffs[0], np.linalg.norm(coeffs, axis=0), dnorm


# ----------------------------------------------------------------------------
# The program's documented seeded ensembles (numpy PCG64)
# ----------------------------------------------------------------------------

def sine_series_ensemble(rng, count: int, length: float,
                         n_modes: int = 12, decay: float = 2.0) -> np.ndarray:
    """Coefficient columns of the unit-norm sine ensemble drawn from the
    numpy Generator `rng`, one function after another:
    c = N(0, 1)/k^decay, scaled to unit L2 norm."""
    k = np.arange(1, n_modes + 1, dtype=float)
    C = rng.standard_normal((count, n_modes)).T / k[:, None] ** decay
    norms = np.array([np.linalg.norm(c) for c in C.T])  # rounded as one vector each
    return C / (norms * math.sqrt(length / 2.0))


# ----------------------------------------------------------------------------
# The source paper's worst-case figures
# ----------------------------------------------------------------------------

# Printed plot coefficients on raw bases trig(k pi x), k = first, first+1, ...
FIGURES = {
    1: {"coeffs": (-0.15269, 0.4830, 0.3084, 0.80509), "first": 2, "sine": True,
        "domain": (0.0, 1.0), "target": (2.0, 3.0)},
    2: {"coeffs": (-0.0707, -0.421, 0.2137, 0.8783), "first": 1, "sine": True,
        "domain": (1.0, 2.0)},
    3: {"coeffs": (0.00055, 0.0824, 0.6196, 0.7805), "first": 1, "sine": False,
        "domain": (-1.0, 1.0)},
}


def figure_ratio(figure_id: int) -> float:
    """||T f||^2 / ||f||^2 of a figure function: figure 1 under the Hilbert
    transform [0,1] -> [2,3], figure 2 under Laplace on [1,2], figure 3 under
    the Fourier composition.  With integer k the raw trig functions are
    orthogonal on each domain, with squared norm L/2."""
    fig = FIGURES[figure_id]
    coeffs = np.zeros(fig["first"] - 1 + len(fig["coeffs"]))
    coeffs[fig["first"] - 1:] = fig["coeffs"]
    lo, hi = fig["domain"]
    if figure_id == 1:
        image = hilbert_image_norm_sq(coeffs, fig["domain"], fig["target"], raw_x=True)
    elif figure_id == 2:
        image = laplace_image_norm_sq(coeffs, lo, hi, raw_x=True)
    else:
        image = fourier_image_norm_sq(coeffs, raw_x=True, sine=False)
    return float(image[0] / (0.5 * (hi - lo) * np.sum(coeffs ** 2)))
