"""Galerkin assembly of the commuting differential operators.

Three operators share eigenfunctions with the integral compositions:
the degenerate second-order operator on [a, b] for the Laplace composition,
a weighted fourth-order operator on the half line for the adjoint
composition, and the prolate operator on [-1, 1] for the Fourier
composition.  All are assembled as quadratic forms over orthonormal trial
bases, so the mass matrix is the identity and no boundary terms arise (the
leading coefficients vanish at the endpoints; half-line trial functions
decay like e^{-sigma t}).  The Legendre forms are Gauss quadratures; the
fourth-order form is exact over [0, inf), from the Laguerre basis's finite
maps for d/dt and multiplication by t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

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

    def __init__(self, domain: Interval, size: int):
        self.domain = domain
        self.size = size

    def tables(self, x, orders) -> list:
        """One read-only table per derivative order at x: the cached tables
        that sampling a Legendre series of this size at x reads."""
        return [cached_table(FunctionKind.LEGENDRE_SERIES, self.size, self.domain, k, x)
                for k in orders]


class LaguerreExpTrialBasis:
    """Orthonormal Laguerre functions phi_k(t) = sqrt(2 sigma) L_k(2 sigma t)
    e^{-sigma t} on the half line.  d/dt and multiplication by t act on their
    coefficients as exact finite matrices, `derivative` and `times_t`."""

    def __init__(self, half: HalfLineDomain, size: int, sigma: float):
        if sigma <= 0:
            raise InvalidArgumentError("decay rate sigma must be positive")
        self.domain = half
        self.size = size
        self.sigma = sigma

    @cached_property
    def derivative(self) -> np.ndarray:
        """N x N, column k: phi_k' = -sigma phi_k - 2 sigma sum_{j<k} phi_j."""
        N = self.size
        return _read_only(-self.sigma * (np.eye(N) + 2.0 * np.triu(np.ones((N, N)), 1)))

    @cached_property
    def times_t(self) -> np.ndarray:
        """(N+1) x N, column k: 2 sigma t phi_k = -(k+1) phi_{k+1} + (2k+1) phi_k
        - k phi_{k-1}."""
        k = np.arange(self.size)
        X = np.zeros((self.size + 1, self.size))
        X[k, k] = 2 * k + 1
        X[k + 1, k] = -(k + 1)
        X[k[:-1], k[1:]] = -k[1:]
        return _read_only(X / (2.0 * self.sigma))

    def tables(self, x, orders) -> list:
        """One read-only table per derivative order at x: the three-term
        recurrence with the envelope folded in, then V @ derivative per order.
        The envelope underflows past 2 sigma t ~ 1490, where every entry reads
        0: exact to roundoff for degrees below about 370."""
        u = 2.0 * self.sigma * np.atleast_1d(np.asarray(x, dtype=float))
        prev, cur = np.zeros_like(u), np.sqrt(2.0 * self.sigma) * np.exp(-0.5 * u)
        rows = [cur]
        for k in range(self.size - 1):
            prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
            rows.append(cur)
        by_order = [np.array(rows).T]
        while len(by_order) <= max(orders):
            by_order.append(by_order[-1] @ self.derivative)
        return [_read_only(by_order[k]) for k in orders]


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
    assembles the same operator at trial size N.  The eigensystem and the
    eigenvalues of the same operator at 2N are each computed once, on first
    use.  The trial functions at `grid.nodes` come from `basis.tables`, in
    the derivative orders the caller reads.
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


@np.errstate(all="ignore")
def _legendre_weak_form(ab: Interval, N: int, p, q, name: str, rebuild) -> GalerkinOperator:
    """Weak form of -(p u')' + q u over N orthonormal Legendre functions on
    ab, with p and q evaluated at the grid nodes; values past the float
    range fail the finite-stiffness check, not a RuntimeWarning."""
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
    return _legendre_weak_form(ab, N,
                               lambda t: (t ** 2 - np.square(ab.a)) * (np.square(ab.b) - t ** 2),
                               lambda t: 2.0 * (t ** 2 - np.square(ab.a)),
                               "bertero-grunbaum", partial(assemble_bertero_grunbaum, ab))


def assemble_prolate(N: int) -> GalerkinOperator:
    """Weak form of -d/dx((1-x^2) d/dx) + x^2 on [-1, 1]."""
    return _legendre_weak_form(Interval(-1.0, 1.0), N, lambda x: 1.0 - x ** 2,
                               lambda x: x ** 2, "prolate", assemble_prolate)


@np.errstate(all="ignore")
def assemble_fourth_order(ab: Interval, half: HalfLineDomain, N: int,
                          sign_variant: SignVariant) -> GalerkinOperator:
    """Weak form of the weighted fourth-order half-line operator.

    int t^2 p_i'' p_j''  -/+  (a^2+b^2) int t^2 p_i' p_j'
                         +  int ((-/+) a^2 b^2 t^2 + 2 a^2) p_i p_j
    with upper signs for AS_LEMMA (the printed operator) and lower signs for
    AS_PROOF_BOUND (the manifestly positive quadratic form of its proof).
    With X0 = basis.times_t, X1 = X0 D and X2 = X0 D^2 (D = basis.derivative)
    each integral is exact over [0, inf): int t^2 p_i^(r) p_j^(r) = (Xr^T Xr)_ij.
    Far outside a moderate [a, b] the products overflow (a^2 b^2 past the
    float range, or X0^T X0 ~ (N/sigma)^2 for tiny sigma); the finite-stiffness
    check reports that, not a RuntimeWarning.
    """
    if not isinstance(sign_variant, SignVariant):
        raise InvalidArgumentError("sign_variant must be a SignVariant")
    if ab.a <= 0:
        raise InvalidArgumentError("operator requires 0 < a < b")
    if N < 4:
        raise InvalidArgumentError("trial space needs N >= 4")
    sigma = 0.5 * (ab.a + ab.b)
    basis = LaguerreExpTrialBasis(half, N, sigma)
    s = 1.0 if sign_variant is SignVariant.AS_PROOF_BOUND else -1.0
    a2, b2 = np.square(ab.a), np.square(ab.b)
    X0 = basis.times_t
    X1 = X0 @ basis.derivative
    X2 = X1 @ basis.derivative
    S = (X2.T @ X2 + s * (a2 + b2) * (X1.T @ X1) + s * a2 * b2 * (X0.T @ X0)
         + 2.0 * a2 * np.eye(N))
    # The grid serves only the sweep's ratio quadratures, which must cover the
    # whole basis: Laguerre functions of degree k carry mass out to u ~ 4k+2.
    s_need = 1.25 * (4.0 * N + 2.0) / (2.0 * sigma)
    grid = make_grid(HalfLineDomain(max(half.s_max, s_need)), max(48, N))
    rebuild = partial(assemble_fourth_order, ab, half, sign_variant=sign_variant)
    return GalerkinOperator(_sym(S), "fourth-order", rebuild, basis, grid, sign_variant)


def project_coefficients(op: GalerkinOperator, vals: np.ndarray) -> np.ndarray:
    """Trial-space coefficients of the function with values vals at the
    operator's grid nodes, failing if the residual exceeds tolerance."""
    w = op.grid.weights
    norm2 = float(np.dot(w, vals * vals))
    if norm2 == 0.0:
        return np.zeros(op.size)
    V = op.basis.tables(op.grid.nodes, (0,))[0]
    c = V.T @ (w * vals)
    r = vals - V @ c  # pointwise residual: immune to norm-difference roundoff
    resid2 = float(np.dot(w, r * r))
    if np.sqrt(resid2 / norm2) > PROJECTION_TOL:
        raise RepresentationError(
            f"projection residual {np.sqrt(resid2 / norm2):.3e} exceeds {PROJECTION_TOL:g}"
        )
    return c
