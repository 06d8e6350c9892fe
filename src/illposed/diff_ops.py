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
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.polynomial import laguerre as nplag

from .domains import HalfLineDomain, Interval, QuadGrid, make_grid
from .errors import InvalidArgumentError, RepresentationError
from .functions import FunctionLike

BERTERO_GRUNBAUM = "bertero-grunbaum"
FOURTH_ORDER = "fourth-order"
PROLATE = "prolate"

PROJECTION_TOL = 1e-8


class SignVariant(Enum):
    """Resolution of the sign discrepancy in the fourth-order operator.

    The printed operator and the quadratic form used in its proof disagree on
    two signs; both are assembled and the commutation test picks the variant
    that actually shares eigenfunctions with the integral composition.
    """

    AS_LEMMA = "lemma"
    AS_PROOF_BOUND = "proof"


@dataclass(frozen=True)
class DiffOpSpec:
    tag: str
    ab: Optional[Interval] = None
    half: Optional[HalfLineDomain] = None
    sign_variant: Optional[SignVariant] = None


# ----------------------------------------------------------------------------
# Trial bases
# ----------------------------------------------------------------------------

class LegendreTrialBasis:
    """Orthonormalized Legendre polynomials mapped to an interval."""

    def __init__(self, domain: Interval, size: int):
        self.domain = domain
        self.size = size
        k = np.arange(size)
        self._norms = np.sqrt((2 * k + 1) / domain.length)

    def _ref(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (2.0 * x - self.domain.a - self.domain.b) / self.domain.length

    def values(self, x) -> np.ndarray:
        xi = self._ref(x)
        V = np.polynomial.legendre.legvander(xi, self.size - 1)
        return V * self._norms[None, :]

    def deriv(self, x) -> np.ndarray:
        xi = self._ref(x)
        V = np.polynomial.legendre.legvander(xi, self.size - 1)
        D = np.zeros_like(V)
        if self.size > 1:
            D[:, 1] = 1.0
        for k in range(1, self.size - 1):
            D[:, k + 1] = D[:, k - 1] + (2 * k + 1) * V[:, k]
        return D * self._norms[None, :] * (2.0 / self.domain.length)


def _laguerre_deriv(V: np.ndarray) -> np.ndarray:
    """d/du of Laguerre Vandermonde columns, by L_k' = -sum_{j<k} L_j."""
    D = np.zeros_like(V)
    D[:, 1:] = -np.cumsum(V[:, :-1], axis=1)
    return D


class LaguerreExpTrialBasis:
    """Functions p_k(t) e^{-sigma t}: scaled Laguerre functions on [0, s_max],
    re-orthonormalized against the assembly grid (the truncation tail is
    ~e^{-2 sigma s_max} but Cholesky makes discrete orthonormality exact)."""

    def __init__(self, half: HalfLineDomain, size: int, sigma: float, grid: QuadGrid):
        if sigma <= 0:
            raise InvalidArgumentError("decay rate sigma must be positive")
        self.domain = half
        self.size = size
        self.sigma = sigma
        self.grid = grid
        V = self._raw(grid.nodes, order=0)
        G = V.T @ (grid.weights[:, None] * V)
        L = np.linalg.cholesky(0.5 * (G + G.T))
        # columns of raw basis combined so the grid Gram is the identity
        self._combine = np.linalg.inv(L).T

    def _raw(self, x, order: int) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sigma = self.sigma
        env = (np.sqrt(2.0 * sigma) * np.exp(-sigma * x))[:, None]
        L0 = nplag.lagvander(2.0 * sigma * x, self.size - 1)
        if order == 0:
            return env * L0
        L1 = _laguerre_deriv(L0)
        if order == 1:
            return env * (2.0 * sigma * L1 - sigma * L0)
        L2 = _laguerre_deriv(L1)
        return env * (4.0 * sigma ** 2 * L2 - 4.0 * sigma ** 2 * L1 + sigma ** 2 * L0)

    def values(self, x) -> np.ndarray:
        return self._raw(x, 0) @ self._combine

    def deriv(self, x) -> np.ndarray:
        return self._raw(x, 1) @ self._combine

    def deriv2(self, x) -> np.ndarray:
        return self._raw(x, 2) @ self._combine


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
    idx = np.argmax(np.abs(vecs), axis=0)
    vecs[:, vecs[idx, np.arange(vecs.shape[1])] < 0] *= -1.0
    return SpectralDecomposition(vals, vecs)


@dataclass(frozen=True)
class GalerkinOperator:
    """Symmetric stiffness matrix over an orthonormal trial basis.

    The mass matrix is the identity by construction, so the eigenvalues of
    `stiffness` are the Galerkin eigenvalues of the operator.  The basis tables
    (trial functions and derivatives at `grid.nodes`), the eigensystem and the
    same operator at 2N are each computed once, on first use.
    """

    stiffness: np.ndarray = field(repr=False)
    spec: DiffOpSpec
    basis: object
    grid: QuadGrid

    def __post_init__(self):
        object.__setattr__(self, "stiffness", _read_only(self.stiffness))
        if not np.all(np.isfinite(self.stiffness)):
            raise InvalidArgumentError(
                f"{self.spec.tag} operator: stiffness is not finite at N={self.size}")

    @property
    def size(self) -> int:
        return self.stiffness.shape[0]

    @cached_property
    def basis_values(self) -> np.ndarray:
        return _read_only(self.basis.values(self.grid.nodes))

    @cached_property
    def basis_deriv(self) -> np.ndarray:
        return _read_only(self.basis.deriv(self.grid.nodes))

    @cached_property
    def basis_deriv2(self) -> np.ndarray:
        """Second derivatives: only the half-line basis of the fourth-order operator has them."""
        return _read_only(self.basis.deriv2(self.grid.nodes))

    @cached_property
    def eigensystem(self) -> SpectralDecomposition:
        return eig_sym(self.stiffness)

    @cached_property
    def refined(self) -> "GalerkinOperator":
        return reassemble(self, 2 * self.size)


def _sym(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.T)


def assemble_bertero_grunbaum(ab: Interval, N: int) -> GalerkinOperator:
    """Weak form of -d/dt((t^2-a^2)(b^2-t^2) d/dt) + 2(t^2-a^2) on [a, b].

    Positive-definite sign convention; the coefficient vanishes at both
    endpoints so natural boundary conditions apply and no boundary terms
    enter the weak form.
    """
    if ab.a <= 0:
        raise InvalidArgumentError("operator requires 0 < a < b")
    if N < 4:
        raise InvalidArgumentError("trial space needs N >= 4")
    grid = make_grid(ab, N + 8)
    basis = LegendreTrialBasis(ab, N)
    t, w = grid.nodes, grid.weights
    p = (t ** 2 - ab.a ** 2) * (ab.b ** 2 - t ** 2)
    q = 2.0 * (t ** 2 - ab.a ** 2)
    V, D = basis.values(t), basis.deriv(t)
    S = D.T @ ((w * p)[:, None] * D) + V.T @ ((w * q)[:, None] * V)
    return GalerkinOperator(_sym(S), DiffOpSpec(BERTERO_GRUNBAUM, ab=ab), basis, grid)


def assemble_prolate(N: int) -> GalerkinOperator:
    """Weak form of -d/dx((1-x^2) d/dx) + x^2 on [-1, 1]."""
    if N < 4:
        raise InvalidArgumentError("trial space needs N >= 4")
    ab = Interval(-1.0, 1.0)
    grid = make_grid(ab, N + 8)
    basis = LegendreTrialBasis(ab, N)
    x, w = grid.nodes, grid.weights
    V, D = basis.values(x), basis.deriv(x)
    S = D.T @ ((w * (1.0 - x ** 2))[:, None] * D) + V.T @ ((w * x ** 2)[:, None] * V)
    return GalerkinOperator(_sym(S), DiffOpSpec(PROLATE), basis, grid)


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
    V = basis.values(t)
    D1 = basis.deriv(t)
    D2 = basis.deriv2(t)
    S = (D2.T @ ((w * t ** 2)[:, None] * D2)
         + s * (a2 + b2) * (D1.T @ ((w * t ** 2)[:, None] * D1))
         + V.T @ ((w * (s * a2 * b2 * t ** 2 + 2.0 * a2))[:, None] * V))
    spec = DiffOpSpec(FOURTH_ORDER, ab=ab, half=half, sign_variant=sign_variant)
    return GalerkinOperator(_sym(S), spec, basis, grid)


def reassemble(op: GalerkinOperator, N: int) -> GalerkinOperator:
    """Same operator at a different trial-space resolution."""
    spec = op.spec
    if spec.tag == BERTERO_GRUNBAUM:
        return assemble_bertero_grunbaum(spec.ab, N)
    if spec.tag == PROLATE:
        return assemble_prolate(N)
    return assemble_fourth_order(spec.ab, spec.half, N, spec.sign_variant)


def project_coefficients(op: GalerkinOperator, f: FunctionLike) -> np.ndarray:
    """Trial-space coefficients of f, failing if the residual exceeds tolerance."""
    w = op.grid.weights
    vals = f.values(op.grid.nodes)
    norm2 = float(np.dot(w, vals * vals))
    if norm2 == 0.0:
        return np.zeros(op.size)
    c = op.basis_values.T @ (w * vals)
    r = vals - op.basis_values @ c  # pointwise residual: immune to norm-difference roundoff
    resid2 = float(np.dot(w, r * r))
    if np.sqrt(resid2 / norm2) > PROJECTION_TOL:
        raise RepresentationError(
            f"projection residual {np.sqrt(resid2 / norm2):.3e} exceeds {PROJECTION_TOL:g}"
        )
    return c
