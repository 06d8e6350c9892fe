import sys

import numpy as np
import pytest
from numpy.polynomial import Legendre, Polynomial

from illposed import (ExpPoly, FunctionKind, Interval, OperatorKind, assemble_bertero_grunbaum,
                      assemble_prolate, gram_matrix, half_line_for, make_grid)
from illposed.integral_ops import FOURIER, LAPLACE, LAPLACE_ADJOINT, _adjoint_kernel


def kernel_matrix(kind, grid):
    """Weighted kernel matrix sqrt(w) K sqrt(w) of T*T on a grid, built from
    the kernel formulas alone: an oracle for the half factor's A^T A.

    Laplace 1/(x + y), adjoint Laplace (e^{-a(x+y)} - e^{-b(x+y)})/(x + y),
    Fourier 2 sinc(x - y), and for the truncated Hilbert transform into
    J = [c, d]
    log((d - x)(c - y) / ((c - x)(d - y))) / (pi^2 (x - y)),
    written with log1p, since the ratio minus one is
    (d - c)(x - y) / ((c - x)(d - y)); its diagonal is
    (1/(c - x) - 1/(d - x)) / pi^2.
    """
    x = grid.nodes
    X, Y = x[:, None], x[None, :]
    if kind.tag == LAPLACE:
        K = 1.0 / (X + Y)
    elif kind.tag == LAPLACE_ADJOINT:
        K = _adjoint_kernel(X + Y, kind.source.a, kind.source.b)
    elif kind.tag == FOURIER:
        K = 2.0 * np.sinc((X - Y) / np.pi)
    else:
        c, d = kind.target.a, kind.target.b
        # 1 on the diagonal keeps log1p(0)/0 out; the diagonal is set below
        K = np.log1p((d - c) * (X - Y) / ((c - X) * (d - Y))) / (X - Y + np.eye(len(x)))
        np.fill_diagonal(K, 1.0 / (c - x) - 1.0 / (d - x))
        K /= np.pi ** 2
    sw = np.sqrt(grid.weights)
    return sw[:, None] * K * sw[None, :]


def decomposed(M):
    """The matrix whose SVD gives M.singular_values: the half factor A, or
    for a Cauchy factor G the R of qr(G^T)."""
    if M.image_refinement is not None:
        return M.half_factor
    return np.linalg.qr(M.half_factor.T, mode="r")


def derivative_values(f, x, order=1):
    """f's order-th derivative at x in closed form, apart from the package's
    basis tables: each trig term c sin(w(x - p)) differentiates to
    c w^order sin(w(x - p) + order pi/2); a Legendre series through numpy's
    Legendre class on f's domain; p(x) e^{-rx} through p' - r p, order
    times, with numpy's Polynomial."""
    x = np.asarray(x, dtype=float)
    if isinstance(f, ExpPoly):
        P = Polynomial(f.poly)
        for _ in range(order):
            P = P.deriv() - f.rate * P
        return P(x) * np.exp(-f.rate * x)
    dom = f.domain
    if f.kind is FunctionKind.LEGENDRE_SERIES:
        norms = np.sqrt((2 * np.arange(len(f.payload)) + 1) / dom.length)
        return Legendre(f.payload * norms, domain=[dom.a, dom.b]).deriv(order)(x)
    k = np.arange(1, len(f.payload) + 1)
    w, p = k * np.pi / dom.length, dom.a
    shift = order * np.pi / 2 + (np.pi / 2 if f.kind is FunctionKind.COSINE_SERIES else 0.0)
    return np.sin(np.outer(x - p, w) + shift) @ (f.payload * w ** order)


@pytest.fixture(scope="session")
def ab():
    return Interval(1.0, 2.0)


@pytest.fixture(scope="session")
def grid_ab(ab):
    return make_grid(ab, 256)


@pytest.fixture(scope="session")
def laplace_M(ab, grid_ab):
    return gram_matrix(OperatorKind.laplace_tt(ab), grid_ab)


@pytest.fixture(scope="session")
def fourier_M():
    return gram_matrix(OperatorKind.fourier_tt(), make_grid(Interval(-1.0, 1.0), 256))


@pytest.fixture(scope="session")
def adjoint_M(ab):
    half = half_line_for(ab)
    return gram_matrix(OperatorKind.laplace_adjoint_tt(ab), make_grid(half, 64))


@pytest.fixture(scope="session")
def bg128(ab):
    return assemble_bertero_grunbaum(ab, 128)


@pytest.fixture(scope="session")
def prolate128():
    return assemble_prolate(128)


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.PCG64(0xC0FFEE))


@pytest.fixture
def gram_calls(monkeypatch):
    """Grid sizes of the gram_matrix calls made through the package."""
    import illposed.integral_ops
    original, sizes = illposed.integral_ops.gram_matrix, []

    def counted(kind, grid):
        sizes.append(grid.size)
        return original(kind, grid)
    for name, module in list(sys.modules.items()):
        if name.startswith("illposed") and getattr(module, "gram_matrix", None) is original:
            monkeypatch.setattr(module, "gram_matrix", counted)
    return sizes


@pytest.fixture
def svd_calls(monkeypatch):
    """The matrices passed to np.linalg.svd, in call order."""
    svd, seen = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        seen.append(a)
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return seen
