"""Galerkin assembly of the commuting differential operators.

Three operators share eigenfunctions with the integral compositions:
the degenerate second-order operator on [a, b] for the Laplace composition,
a weighted fourth-order operator on the half line for the adjoint
composition, and the prolate operator on [-1, 1] for the Fourier
composition.  All are assembled as quadratic forms over orthonormal trial
bases, so the mass matrix is the identity and no boundary terms arise (the
leading coefficients vanish at the endpoints; half-line trial functions
decay like e^{-sigma t}).  Every stiffness is exact, with no quadrature:
the Legendre forms are pentadiagonal, from the three-term recurrences of
the Legendre and Gegenbauer(3/2) polynomials, and the fourth-order form is
exact over [0, inf), from the Laguerre basis's finite maps for d/dt and
multiplication by t.  Each operator is assembled once, at 2N, its own
refinement: the trial bases are nested, so the operator at N is that
matrix's leading block.  The refinement's eigenvalues start from the
eigensystem at N: a mode whose coupling to the 2N tail is below eps times
its eigenvalue keeps that eigenvalue (Cuppen's deflation), and one
symmetric solve of the other modes with the tail gives the rest, each
eigenvalue within the deflated couplings' 2-norm of the dense solve's
(Weyl's inequality).  A stiffness that couples no even index to an odd
one (the prolate operator's) is solved one parity block at a time.  No
assembly builds a quadrature grid: callers read the trial basis on the grid
they integrate on, which must lie on the basis domain.  The operator's own
`grid`, built on first use, is where Lemma 1 reads a trial function's norms
and where `project_coefficients` projects samples.  A Legendre basis's
tables are the grid's own (`functions.grid_table`), freed with it.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .domains import HalfLineDomain, Interval, QuadGrid, check_laplace_interval, make_grid
from .errors import Frozen, InvalidArgumentError, RepresentationError, check_integer
from .functions import FunctionKind, grid_table

PROJECTION_TOL = 1e-8
# Smallest Galerkin trial size N of every assembly.
MIN_TRIAL = 4


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

    def tables(self, grid: QuadGrid, orders) -> list:
        """One read-only table per derivative order at the grid's nodes: the
        grid's tables, which sampling a Legendre series of this size on the
        grid reads."""
        _check_on_basis_domain(self, grid)
        return [grid_table(FunctionKind.LEGENDRE_SERIES, self.size, k, grid) for k in orders]


class LaguerreExpTrialBasis:
    """Orthonormal Laguerre functions phi_k(t) = sqrt(2 sigma) L_k(2 sigma t)
    e^{-sigma t} on the half line, for sigma > 0 (assemble_fourth_order
    passes (a + b)/2 after the 0 < a rule).  d/dt and multiplication by t act
    on their coefficients as exact finite matrices, `derivative` and `times_t`."""

    def __init__(self, half: HalfLineDomain, size: int, sigma: float):
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

    def tables(self, grid: QuadGrid, orders) -> list:
        """One read-only table per derivative order at the grid's nodes,
        built on every call: the three-term recurrence with the envelope
        folded in, then V @ derivative per order.  The envelope underflows
        past 2 sigma t ~ 1490, where every entry reads 0: exact to roundoff
        for degrees below about 370."""
        _check_on_basis_domain(self, grid)
        u = 2.0 * self.sigma * grid.nodes
        prev, cur = np.zeros_like(u), np.sqrt(2.0 * self.sigma) * np.exp(-0.5 * u)
        rows = [cur]
        for k in range(self.size - 1):
            prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
            rows.append(cur)
        by_order = [np.array(rows).T]
        while len(by_order) <= max(orders):
            by_order.append(by_order[-1] @ self.derivative)
        return [_read_only(by_order[k]) for k in orders]


def _check_on_basis_domain(basis, grid: QuadGrid) -> None:
    """Raise unless the grid lies on the basis domain: a trial basis is never
    remapped onto another grid's domain."""
    if grid.domain != basis.domain:
        raise InvalidArgumentError(
            f"trial basis lives on {basis.domain}, the grid on {grid.domain}")


def _check_trial_size(N: int) -> None:
    check_integer(N, "N")
    if N < MIN_TRIAL:
        raise InvalidArgumentError(f"trial space needs N >= {MIN_TRIAL}")


def _read_only(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


class SpectralDecomposition(Frozen):
    """Ascending eigensystem of a symmetric matrix (a Galerkin stiffness),
    kept read-only."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        object.__setattr__(self, "eigenvalues", _read_only(eigenvalues))
        object.__setattr__(self, "eigenvectors", _read_only(eigenvectors))

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


def eig_sym(M: np.ndarray) -> SpectralDecomposition:
    """Ascending decomposition of a symmetric matrix, one parity block at a
    time when it couples no even index to an odd one; each eigenvector's
    largest-magnitude entry is positive."""
    M = np.asarray(M, dtype=float)
    scale = np.max(np.abs(M))
    if scale > 0 and np.max(np.abs(M - M.T)) > 1e-10 * scale:
        raise InvalidArgumentError("matrix is not symmetric to tolerance")
    M = _sym(M)
    vals, vecs = np.empty(len(M)), np.zeros(M.shape)
    start = 0
    for block in _parity_blocks(M):
        lam, V = np.linalg.eigh(M[block, block])
        vals[start:start + len(lam)] = lam
        vecs[block, start:start + len(lam)] = largest_entry_positive(V)
        start += len(lam)
    order = np.argsort(vals, kind="stable")
    return SpectralDecomposition(vals[order], vecs[:, order])


def _deflated_eigenvalues(dec: SpectralDecomposition, S2: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric S2 whose leading block has the
    eigensystem dec: the deflation step of Cuppen's divide and conquer.

    With that block V diag(lam) V^T, S2 is orthogonally similar to
    [[diag(lam), P], [P^T, C]], P = V^T (S2's block beside it) and C its
    trailing block.  Mode k deflates when its coupling row has
    ||P_k|| <= eps |lam_k|, and lam_k is then its eigenvalue of S2; one
    eigvalsh of the rest, the live modes with C, gives the others.  Zeroing
    the deflated rows moves every eigenvalue by at most their 2-norm
    (Weyl), the order of a dense solve's own backward error.  Each parity
    block of S2 is solved on its own, as in eig_sym.  The coupling norms
    are hypot reductions, which no stiffness in the float range overflows.
    """
    parts = []
    for block in _parity_blocks(S2):
        V = dec.eigenvectors[block]
        modes = np.any(V, axis=0)  # eig_sym's vectors of this parity
        lam, V, M = dec.eigenvalues[modes], V[:, modes], S2[block, block]
        B = M[:len(V), len(V):]
        rows, cols = np.any(B, axis=1), np.any(B, axis=0)
        P = V[rows].T @ B[rows]
        coupling = np.hypot.reduce(P[:, cols], axis=1, initial=0.0)
        live = coupling > np.finfo(float).eps * np.abs(lam)
        P = P[live]
        R = np.block([[np.diag(lam[live]), P], [P.T, M[len(V):, len(V):]]])
        parts += [lam[~live], np.linalg.eigvalsh(R)]
    return np.sort(np.concatenate(parts))


def _parity_blocks(M: np.ndarray) -> tuple:
    """The even and the odd indices when M couples no even index to an odd
    one (the prolate stiffness), else all indices.  Each block is solved on
    its own: two half-size solves cost about a quarter of one full solve."""
    if len(M) > 1 and not np.any(M[0::2, 1::2]):
        return slice(0, None, 2), slice(1, None, 2)
    return (slice(None),)


def largest_entry_positive(vecs: np.ndarray) -> np.ndarray:
    """Flip, in place, each column whose largest-magnitude entry is negative:
    the one sign rule for eigenvectors and Gramian minimizers."""
    idx = np.argmax(np.abs(vecs), axis=0)
    vecs[:, vecs[idx, np.arange(vecs.shape[1])] < 0] *= -1.0
    return vecs


class GalerkinOperator(Frozen):
    """Symmetric stiffness matrix over an orthonormal trial basis.

    The mass matrix is the identity by construction, so the eigenvalues of
    `stiffness` are the Galerkin eigenvalues of the operator.  Its refinement
    is its own assembly at 2N, `refined_stiffness`, whose leading N x N block
    is `stiffness` (a read-only copy).  The eigensystem at N and the
    eigenvalues at 2N are each computed once, on first use, the latter from
    the former: the modes at N that the tail does not couple to deflate, and
    only the rest is solved with the tail, so each refined eigenvalue is
    within the deflated couplings' 2-norm of a dense solve of
    `refined_stiffness` (Weyl's inequality; that norm is at most eps times
    the 2-norm of the deflated eigenvalues).  On [1, 2] at N = 256,
    Bertero-Grunbaum deflates 182 of its 256 modes and the prolate operator
    250; the fourth-order stiffness is dense and deflates none.  The N trial
    functions at any nodes come from `basis.tables`, in the derivative
    orders the caller reads.
    """

    def __init__(self, refined_stiffness: np.ndarray, name: str, basis,
                 sign_variant: Optional[SignVariant] = None):
        object.__setattr__(self, "refined_stiffness", _read_only(refined_stiffness))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "sign_variant", sign_variant)
        for S in (self.stiffness, self.refined_stiffness):  # each refusal names its size
            if not np.all(np.isfinite(S)):
                raise InvalidArgumentError(
                    f"{self.name} operator: stiffness is not finite at N={len(S)}")
            if not np.max(np.abs(S)) >= np.finfo(float).tiny:
                raise InvalidArgumentError(
                    f"{self.name} operator: stiffness underflows the float range at N={len(S)}")

    @property
    def size(self) -> int:
        return self.basis.size

    @cached_property
    def stiffness(self) -> np.ndarray:
        return _read_only(self.refined_stiffness[:self.size, :self.size].copy())

    @cached_property
    def grid(self) -> QuadGrid:
        """Gauss grid of N + 8 nodes on the basis domain, built on first use:
        Lemma 1 reads a trial function's norms from the Gram forms on it,
        and `project_coefficients` projects samples at its nodes."""
        return make_grid(self.basis.domain, self.size + 8)

    @cached_property
    def eigensystem(self) -> SpectralDecomposition:
        return eig_sym(self.stiffness)

    @cached_property
    def refined_eigenvalues(self) -> np.ndarray:
        return _read_only(_deflated_eigenvalues(self.eigensystem, self.refined_stiffness))


def _sym(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.T)


def _quadratic_of_jacobi(coeffs, beta: np.ndarray) -> list:
    """Diagonals 0, 1 and 2 of the leading n x n block of c0 + c1 J + c2 J^2,
    with n = len(beta) and J the infinite zero-diagonal Jacobi matrix whose
    off-diagonal starts with beta: (J^2)_kk = beta_{k-1}^2 + beta_k^2 and
    (J^2)_{k,k+2} = beta_k beta_{k+1}."""
    c0, c1, c2 = coeffs
    sq = np.square(beta)
    return [c0 + c2 * (np.concatenate(([0.0], sq[:-1])) + sq), c1 * beta[:-1],
            c2 * (beta[:-2] * beta[1:-1])]


def _linear_product(u, v) -> tuple:
    """Coefficients of (u0 + u1 x)(v0 + v1 x) in powers of x."""
    return u[0] * v[0], u[0] * v[1] + u[1] * v[0], u[1] * v[1]


@np.errstate(all="ignore")
def _legendre_weak_form(ab: Interval, N: int, q, g, name: str) -> GalerkinOperator:
    """Weak form of -(p u')' + q u, p(t) = (t-a)(b-t) g(t), over N
    orthonormal Legendre functions on ab, exact for quadratic q and g.

    With t = c + h x (c and h the midpoint and half length of ab), q(c, h)
    and g(c, h) give the coefficients of q and g in powers of x.  The mass
    part is q(c + h J_L), J_L the Jacobi matrix of the orthonormal Legendre
    polynomials p_k, with off-diagonal beta_m = (m+1)/sqrt((2m+1)(2m+3)).
    Since p_k' = sqrt(k(k+1)) psi_{k-1}, with psi orthonormal for the
    weight 1 - x^2, and (t-a)(b-t) = h^2 (1 - x^2), the derivative part is
    D g(c + h J_G) D, with D = diag(sqrt(k(k+1))) and J_G the Jacobi matrix
    of psi, off-diagonal gamma_m = sqrt((m+1)(m+3)/((2m+3)(2m+5))).  Both
    are pentadiagonal; values past the float range fail the stiffness
    checks, not a RuntimeWarning.
    """
    _check_trial_size(N)
    c, h, n = 0.5 * (ab.a + ab.b), 0.5 * (ab.b - ab.a), 2 * N
    m = np.arange(n, dtype=float)
    beta = (m + 1.0) / np.sqrt((2.0 * m + 1.0) * (2.0 * m + 3.0))
    m = m[:-1]
    gamma = np.sqrt((m + 1.0) * (m + 3.0) / ((2.0 * m + 3.0) * (2.0 * m + 5.0)))
    d = np.sqrt((m + 1.0) * (m + 2.0))
    bands = _quadratic_of_jacobi(q(c, h), beta)
    for j, band in enumerate(_quadratic_of_jacobi(g(c, h), gamma)):
        bands[j][1:] += band * (d[:n - 1 - j] * d[j:])
    S, i = np.zeros((n, n)), np.arange(n)
    for j, band in enumerate(bands):
        S[i[:n - j], i[j:]] = S[i[j:], i[:n - j]] = band
    return GalerkinOperator(S, name, LegendreTrialBasis(ab, N))


def assemble_bertero_grunbaum(ab: Interval, N: int) -> GalerkinOperator:
    """Weak form of -d/dt((t^2-a^2)(b^2-t^2) d/dt) + 2(t^2-a^2) on [a, b].

    Positive-definite sign convention; the coefficient vanishes at both
    endpoints so natural boundary conditions apply and no boundary terms
    enter the weak form.  Here p = (t-a)(b-t) g with g = (t+a)(t+b), and in
    x every factor is a sum of nonnegative terms: t - a = h(1 + x),
    t + a = (c + a) + h x, t + b = (c + b) + h x.  So no coefficient
    cancels, and [2^k a, 2^k b] assembles to exactly 4^k times [a, b]
    while every entry stays in the normal float range.
    """
    check_laplace_interval(ab)
    a, b = ab.a, ab.b
    return _legendre_weak_form(
        ab, N,
        lambda c, h: _linear_product((2.0 * h, 2.0 * h), (c + a, h)),
        lambda c, h: _linear_product((c + a, h), (c + b, h)),
        "bertero-grunbaum")


def assemble_prolate(N: int) -> GalerkinOperator:
    """Weak form of -d/dx((1-x^2) d/dx) + x^2 on [-1, 1]: tridiagonal within
    each parity, since x^2 couples p_k with p_k and p_{k+2} alone."""
    return _legendre_weak_form(Interval(-1.0, 1.0), N, lambda c, h: (0.0, 0.0, 1.0),
                               lambda c, h: (1.0, 0.0, 0.0), "prolate")


@np.errstate(all="ignore")
def assemble_fourth_order(ab: Interval, half: HalfLineDomain, N: int,
                          sign_variant: SignVariant) -> GalerkinOperator:
    """Weak form of the weighted fourth-order half-line operator.

    int t^2 p_i'' p_j''  -/+  (a^2+b^2) int t^2 p_i' p_j'
                         +  int ((-/+) a^2 b^2 t^2 + 2 a^2) p_i p_j
    with upper signs for AS_LEMMA (the printed operator) and lower signs for
    AS_PROOF_BOUND (the manifestly positive quadratic form of its proof).
    With X0 = times_t, X1 = X0 D and X2 = X0 D^2 (D = derivative) at 2N,
    each integral is exact over [0, inf): int t^2 p_i^(r) p_j^(r) = (Xr^T Xr)_ij.
    Far outside a moderate [a, b] the products overflow (a^2 b^2 past the
    float range, or X0^T X0 ~ (N/sigma)^2 for tiny sigma); the finite-stiffness
    check reports that, not a RuntimeWarning.  `half` is only the basis's
    domain: no grid is built, and a sweep samples the basis on the grid its
    Rayleigh values came from.
    """
    if not isinstance(sign_variant, SignVariant):
        raise InvalidArgumentError("sign_variant must be a SignVariant")
    check_laplace_interval(ab)
    _check_trial_size(N)
    sigma = 0.5 * (ab.a + ab.b)
    basis, maps = (LaguerreExpTrialBasis(half, n, sigma) for n in (N, 2 * N))
    s = 1.0 if sign_variant is SignVariant.AS_PROOF_BOUND else -1.0
    a2, b2 = np.square(ab.a), np.square(ab.b)
    X0 = maps.times_t
    X1 = X0 @ maps.derivative
    X2 = X1 @ maps.derivative
    S = (X2.T @ X2 + s * (a2 + b2) * (X1.T @ X1) + s * a2 * b2 * (X0.T @ X0)
         + 2.0 * a2 * np.eye(2 * N))
    return GalerkinOperator(_sym(S), "fourth-order", basis, sign_variant)


def project_coefficients(op: GalerkinOperator, vals: np.ndarray) -> np.ndarray:
    """Trial-space coefficients of the function with values vals at the
    operator's grid nodes, failing if the residual exceeds tolerance."""
    w = op.grid.weights
    norm2 = float(np.dot(w, vals * vals))
    if norm2 == 0.0:
        return np.zeros(op.size)
    V = op.basis.tables(op.grid, (0,))[0]
    c = V.T @ (w * vals)
    r = vals - V @ c  # pointwise residual: immune to norm-difference roundoff
    resid2 = float(np.dot(w, r * r))
    if np.sqrt(resid2 / norm2) > PROJECTION_TOL:
        raise RepresentationError(
            f"projection residual {np.sqrt(resid2 / norm2):.3e} exceeds {PROJECTION_TOL:g}"
        )
    return c
