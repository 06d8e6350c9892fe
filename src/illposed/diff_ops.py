"""Galerkin assembly of the commuting differential operators.

Three operators share eigenfunctions with the integral compositions:
the degenerate second-order operator on [a, b] for the Laplace composition,
a weighted fourth-order operator on the half line for the adjoint
composition, and the prolate operator on [-1, 1] for the Fourier
composition.  All are assembled as quadratic forms over orthonormal trial
bases, so the mass matrix is the identity and no boundary terms arise (the
leading coefficients vanish at the endpoints; half-line trial functions
decay like e^{-sigma t}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import laguerre as nplag

from .domains import HalfLineDomain, Interval, QuadGrid, make_grid
from .errors import InvalidArgumentError, RepresentationError
from .functions import FunctionKind, cached_table, legendre_tables

PROJECTION_TOL = 1e-8


class SignVariant(Enum):
    """Resolution of the sign discrepancy in the fourth-order operator.

    The printed operator and the quadratic form used in its proof disagree on
    two signs.  AS_PROOF_BOUND is the one that shares eigenfunctions with the
    adjoint Laplace composition, and the only one a Problem assembles;
    AS_LEMMA converges on no Galerkin mode on [1, 2], [0.5, 3] or [2, 5] at
    N = 32 and 64, and is kept as the negative control.
    """

    AS_LEMMA = "lemma"
    AS_PROOF_BOUND = "proof"


# ----------------------------------------------------------------------------
# Trial bases
# ----------------------------------------------------------------------------

class LegendreTrialBasis:
    """Orthonormalized Legendre polynomials mapped to an interval."""

    orders = (0, 1)

    def __init__(self, domain: Interval, size: int):
        self.domain = domain
        self.size = size

    def tables(self, x, orders) -> list:
        """One read-only table per derivative order at x: the cached tables
        that sampling a Legendre series of this size at x reads."""
        return [cached_table(FunctionKind.LEGENDRE_SERIES, self.size, self.domain, k, x)
                for k in orders]


def _laguerre_deriv(V: np.ndarray) -> np.ndarray:
    """d/du of Laguerre Vandermonde columns, by L_k' = -sum_{j<k} L_j."""
    D = np.zeros_like(V)
    D[:, 1:] = -np.cumsum(V[:, :-1], axis=1)
    return D


class LaguerreExpTrialBasis:
    """Functions p_k(t) e^{-sigma t}: scaled Laguerre functions on [0, s_max],
    re-orthonormalized against the assembly grid (the truncation tail is
    ~e^{-2 sigma s_max} but Cholesky makes discrete orthonormality exact)."""

    orders = (0, 1, 2)

    def __init__(self, half: HalfLineDomain, size: int, sigma: float, grid: QuadGrid):
        if sigma <= 0:
            raise InvalidArgumentError("decay rate sigma must be positive")
        self.domain = half
        self.size = size
        self.sigma = sigma
        self.grid = grid
        V, = self._raw(grid.nodes, (0,))
        G = V.T @ (grid.weights[:, None] * V)
        L = np.linalg.cholesky(0.5 * (G + G.T))
        # columns of raw basis combined so the grid Gram is the identity
        self._combine = np.linalg.inv(L).T

    def _raw(self, x, orders) -> list:
        """Raw trial functions' derivatives of each order (0, 1 or 2) at x,
        from one Laguerre Vandermonde and one envelope."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sigma = self.sigma
        env = (np.sqrt(2.0 * sigma) * np.exp(-sigma * x))[:, None]
        L0 = nplag.lagvander(2.0 * sigma * x, self.size - 1)
        # u-derivatives only as deep as asked: with their chain-rule sums they
        # cost more than the Vandermonde itself
        L1 = _laguerre_deriv(L0) if max(orders) >= 1 else None
        L2 = _laguerre_deriv(L1) if max(orders) >= 2 else None
        raw = {0: lambda: L0,
               1: lambda: 2.0 * sigma * L1 - sigma * L0,
               2: lambda: 4.0 * sigma ** 2 * L2 - 4.0 * sigma ** 2 * L1 + sigma ** 2 * L0}
        return [env * raw[k]() for k in orders]

    def tables(self, x, orders) -> list:
        """One read-only table per derivative order at x."""
        return [_read_only(R @ self._combine) for R in self._raw(x, orders)]


def _read_only(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigensystem of a symmetric matrix (a Galerkin stiffness)."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _read_only(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _read_only(self.eigenvectors))

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


def eig_sym(M: np.ndarray) -> SpectralDecomposition:
    """Ascending decomposition of a symmetric matrix; each eigenvector's
    largest-magnitude entry is positive."""
    M = np.asarray(M, dtype=float)
    scale = np.max(np.abs(M))
    if scale > 0 and np.max(np.abs(M - M.T)) > 1e-10 * scale:
        raise InvalidArgumentError("matrix is not symmetric to tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    return SpectralDecomposition(vals, largest_entry_positive(vecs))


def largest_entry_positive(vecs: np.ndarray) -> np.ndarray:
    """Flip, in place, each column whose largest-magnitude entry is negative:
    the one sign rule for eigenvectors and Gramian minimizers."""
    idx = np.argmax(np.abs(vecs), axis=0)
    vecs[:, vecs[idx, np.arange(vecs.shape[1])] < 0] *= -1.0
    return vecs


@dataclass(frozen=True)
class GalerkinOperator:
    """Symmetric stiffness matrix over an orthonormal trial basis.

    The mass matrix is the identity by construction, so the eigenvalues of
    `stiffness` are the Galerkin eigenvalues of the operator.  `rebuild(N)`
    assembles the same operator at trial size N.  The basis `tables` (trial
    functions and derivatives at `grid.nodes`, from one `basis.tables`
    call), the eigensystem and the eigenvalues of the same operator at 2N
    are each computed once, on first use.
    """

    stiffness: np.ndarray = field(repr=False)
    name: str
    rebuild: Callable[[int], GalerkinOperator] = field(repr=False)
    basis: object
    grid: QuadGrid
    sign_variant: Optional[SignVariant] = None

    def __post_init__(self):
        object.__setattr__(self, "stiffness", _read_only(self.stiffness))
        if not np.all(np.isfinite(self.stiffness)):
            raise InvalidArgumentError(
                f"{self.name} operator: stiffness is not finite at N={self.size}")

    @property
    def size(self) -> int:
        return self.stiffness.shape[0]

    @cached_property
    def tables(self) -> list:
        """The trial functions' derivatives at grid.nodes, one read-only table
        per order of basis.orders: (0, 1), or (0, 1, 2) on the half line."""
        return self.basis.tables(self.grid.nodes, self.basis.orders)

    @cached_property
    def eigensystem(self) -> SpectralDecomposition:
        return eig_sym(self.stiffness)

    @cached_property
    def refined_eigenvalues(self) -> np.ndarray:
        """Ascending, read-only eigenvalues of the same operator at 2N, values
        only: the 2N operator lives just long enough for its finite-stiffness
        check."""
        return _read_only(np.linalg.eigvalsh(self.rebuild(2 * self.size).stiffness))


def _sym(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.T)


def _legendre_weak_form(ab: Interval, N: int, p, q, name: str, rebuild) -> GalerkinOperator:
    """Weak form of -(p u')' + q u over N orthonormal Legendre functions on
    ab, with the coefficient functions p and q evaluated at the grid nodes."""
    if N < 4:
        raise InvalidArgumentError("trial space needs N >= 4")
    grid = make_grid(ab, N + 8)
    basis = LegendreTrialBasis(ab, N)
    t, w = grid.nodes, grid.weights
    # Evaluated apart from the sampling cache, which would keep alive the
    # tables of every assembly, 2N refinements included, though most are
    # never sampled; basis.tables reads the cache on first use.
    V, D = legendre_tables(N, ab, t, (0, 1))
    S = D.T @ ((w * p(t))[:, None] * D) + V.T @ ((w * q(t))[:, None] * V)
    return GalerkinOperator(_sym(S), name, rebuild, basis, grid)


def assemble_bertero_grunbaum(ab: Interval, N: int) -> GalerkinOperator:
    """Weak form of -d/dt((t^2-a^2)(b^2-t^2) d/dt) + 2(t^2-a^2) on [a, b].

    Positive-definite sign convention; the coefficient vanishes at both
    endpoints so natural boundary conditions apply and no boundary terms
    enter the weak form.
    """
    if ab.a <= 0:
        raise InvalidArgumentError("operator requires 0 < a < b")
    return _legendre_weak_form(ab, N, lambda t: (t ** 2 - ab.a ** 2) * (ab.b ** 2 - t ** 2),
                               lambda t: 2.0 * (t ** 2 - ab.a ** 2),
                               "bertero-grunbaum", partial(assemble_bertero_grunbaum, ab))


def assemble_prolate(N: int) -> GalerkinOperator:
    """Weak form of -d/dx((1-x^2) d/dx) + x^2 on [-1, 1]."""
    return _legendre_weak_form(Interval(-1.0, 1.0), N, lambda x: 1.0 - x ** 2,
                               lambda x: x ** 2, "prolate", assemble_prolate)


# Past N ~ 300 the Laguerre values overflow; GalerkinOperator rejects the result.
@np.errstate(all="ignore")
def assemble_fourth_order(ab: Interval, half: HalfLineDomain, N: int,
                          sign_variant: SignVariant) -> GalerkinOperator:
    """Weak form of the weighted fourth-order half-line operator.

    int t^2 p_i'' p_j''  -/+  (a^2+b^2) int t^2 p_i' p_j'
                         +  int ((-/+) a^2 b^2 t^2 + 2 a^2) p_i p_j
    with upper signs for AS_LEMMA (the printed operator) and lower signs for
    AS_PROOF_BOUND (the manifestly positive quadratic form of its proof).
    """
    if not isinstance(sign_variant, SignVariant):
        raise InvalidArgumentError("sign_variant must be a SignVariant")
    if ab.a <= 0:
        raise InvalidArgumentError("operator requires 0 < a < b")
    if N < 4:
        raise InvalidArgumentError("trial space needs N >= 4")
    sigma = 0.5 * (ab.a + ab.b)
    # Laguerre functions of degree k carry mass out to u ~ 4k+2; the weak-form
    # integrals must cover the whole basis or the grid Gram degenerates.
    s_need = 1.25 * (4.0 * N + 2.0) / (2.0 * sigma)
    assembly_half = HalfLineDomain(max(half.s_max, s_need), half.panel_count)
    grid = make_grid(assembly_half, max(48, N))
    basis = LaguerreExpTrialBasis(half, N, sigma, grid)
    t, w = grid.nodes, grid.weights
    s = 1.0 if sign_variant is SignVariant.AS_PROOF_BOUND else -1.0
    a2, b2 = ab.a ** 2, ab.b ** 2
    V, D1, D2 = basis.tables(t, (0, 1, 2))
    S = (D2.T @ ((w * t ** 2)[:, None] * D2)
         + s * (a2 + b2) * (D1.T @ ((w * t ** 2)[:, None] * D1))
         + V.T @ ((w * (s * a2 * b2 * t ** 2 + 2.0 * a2))[:, None] * V))
    rebuild = partial(assemble_fourth_order, ab, half, sign_variant=sign_variant)
    return GalerkinOperator(_sym(S), "fourth-order", rebuild, basis, grid, sign_variant)


def project_coefficients(op: GalerkinOperator, vals: np.ndarray) -> np.ndarray:
    """Trial-space coefficients of the function with values vals at the
    operator's grid nodes, failing if the residual exceeds tolerance."""
    w = op.grid.weights
    norm2 = float(np.dot(w, vals * vals))
    if norm2 == 0.0:
        return np.zeros(op.size)
    V = op.tables[0]
    c = V.T @ (w * vals)
    r = vals - V @ c  # pointwise residual: immune to norm-difference roundoff
    resid2 = float(np.dot(w, r * r))
    if np.sqrt(resid2 / norm2) > PROJECTION_TOL:
        raise RepresentationError(
            f"projection residual {np.sqrt(resid2 / norm2):.3e} exceeds {PROJECTION_TOL:g}"
        )
    return c
