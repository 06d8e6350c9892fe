"""Function representations and their norms.

A FunctionRep is a coefficient series (sine / cosine / orthonormal
Legendre).  Half-line functions (Theorem-2 territory) are
polynomial-times-exponential ExpPoly objects.  A function, or a block of
functions of one type, is sampled, or differentiated exactly, as one
product with a basis table.  On a quadrature grid a series basis has its
tables at the nodes and its forms: the mass row m = T^T w and the Gram
forms G_k = T_k^T W T_k of derivative orders 0 and 1, so a series' mass is
m.c and its norms are sqrt(c.G_k c), read from its K coefficients, not
from n samples.
form_norm is the one reader of a series' grid norms, sqrt(c.(G_k c)) from
the products G_k c: _series_norm (l2_norm, h1_seminorm, Lemma 1, the
theorem verifier and the figures) and read_series (Lemmas 2 and 3) call
it.  An ExpPoly's tables differ per rate, so its norms are sampled, and
weighted_norm is the one reader of sampled norms.
Tables and forms live in the grid's own memo, `QuadGrid.series_tables`,
the one cache (grid_memo): built on first read and freed with the grid,
so a function checked once against the grid's domain costs one dict
lookup and one product per table or form.  A series basis read at a
caller's points as well has one read-out there (read_series): its table
at the points and both forms stacked in one read-only matrix R, and its
mass row, under one memo key, so values, G_0 c and G_1 c are one lookup
and one product.  sample, the evaluator at arbitrary points (plots and
demos), builds its table on every call.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Union

import numpy as np

from .domains import HalfLineDomain, Interval, QuadGrid
from .errors import Frozen, InvalidArgumentError, check_integer

# Largest entry of |G - I| for the grid Gram G of a series basis that the grid resolves.
ORTHONORMALITY_TOL = 1e-10


class FunctionKind(Enum):
    SINE_SERIES = "sine-series"
    COSINE_SERIES = "cosine-series"
    LEGENDRE_SERIES = "legendre-series"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ==, and it is computed in C: Enum's own hashes the name in
    # Python, once per memo key or group key that holds a kind.
    __hash__ = object.__hash__


# ----------------------------------------------------------------------------
# FunctionRep
# ----------------------------------------------------------------------------

class FunctionRep(Frozen):
    """A real function on an interval, as series coefficients.

    Series conventions on [p, q] with L = q - p:
      sine:    f(x) = sum_k c_k sin(k pi (x-p)/L),  k = 1..K (vanishes at ends)
      cosine:  f(x) = sum_k c_k cos(k pi (x-p)/L),  k = 1..K
      legendre: orthonormalized Legendre polynomials mapped to [p, q], k = 0..K-1
    """

    __slots__ = ("kind", "payload", "domain")

    def __init__(self, kind: FunctionKind, payload: np.ndarray, domain: Interval):
        payload = np.asarray(payload, dtype=float)
        payload.setflags(write=False)
        if payload.ndim != 1 or len(payload) == 0:
            raise InvalidArgumentError("payload must be a nonempty 1-d array")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "domain", domain)


class ExpPoly(Frozen):
    """p(x) e^{-rate x} on the half line.

    poly holds power-basis coefficients (low order first).  All weighted
    norms of Theorem-2 type are finite for rate > 0.
    """

    __slots__ = ("poly", "rate")

    def __init__(self, poly: np.ndarray, rate: float):
        poly = np.asarray(poly, dtype=float)
        poly.setflags(write=False)
        if poly.ndim != 1 or len(poly) == 0:
            raise InvalidArgumentError("poly must be a nonempty 1-d array")
        if not rate > 0:
            raise InvalidArgumentError("rate must be positive")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "rate", rate)


FunctionLike = Union[FunctionRep, ExpPoly]


# ----------------------------------------------------------------------------
# Basis tables
# ----------------------------------------------------------------------------

def trig_freqs(size: int, domain: Interval):
    """(omega, p) with angle omega*(x - p): omega = k pi / L, p = a."""
    k = np.arange(1, size + 1, dtype=float)
    return k * np.pi / domain.length, domain.a


def legendre_tables(size: int, domain: Interval, x, orders) -> list:
    """One table per derivative order (0 or 1) in orders, all from one
    Legendre Vandermonde: column k is that derivative of the orthonormal
    Legendre function of degree k on domain at x.  The Vandermonde is the
    three-term recurrence in numpy's legvander operation order, built as the
    rows of a (size, len(x)) array and transposed, as legvander's is: the
    products with a table read that layout."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = (2.0 * x - domain.a - domain.b) / domain.length
    rows = np.empty((size, len(u)))
    rows[0] = 1.0
    if size > 1:
        rows[1] = u
        for i in range(2, size):
            rows[i] = (rows[i - 1] * u * (2 * i - 1) - rows[i - 2] * (i - 1)) / i
    V = rows.T
    norms = np.sqrt((2 * np.arange(size) + 1) / domain.length)
    if 1 in orders:
        # P_{k+1}' = P_{k-1}' + (2k+1) P_k with P_0' = 0 and P_1' = P_0 = 1:
        # a running sum per parity, added in the recurrence's own order
        terms = (2 * np.arange(size - 1) + 1) * V[:, :-1]
        D = np.zeros_like(V)
        D[:, 1::2] = np.cumsum(terms[:, 0::2], axis=1)
        D[:, 2::2] = np.cumsum(terms[:, 1::2], axis=1)
    return [V * norms[None, :] if k == 0 else D * norms[None, :] * (2.0 / domain.length)
            for k in orders]


def basis_table(kind: FunctionKind, size: int, domain: Interval, order: int, x) -> np.ndarray:
    """Column k: the order-th derivative (0 or 1) of the k-th basis function
    of a series at x: sin/cos k pi (x-p)/L, or the orthonormal Legendre
    function of degree k."""
    if order not in (0, 1):
        raise InvalidArgumentError(f"a series table gives derivative orders 0 and 1, not {order}")
    if kind is FunctionKind.LEGENDRE_SERIES:
        return legendre_tables(size, domain, x, (order,))[0]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    omega, p = trig_freqs(size, domain)
    phase = np.outer(x - p, omega)
    sine = kind is FunctionKind.SINE_SERIES
    if order == 0:
        return np.sin(phase) if sine else np.cos(phase)
    return np.cos(phase) * omega if sine else -np.sin(phase) * omega


def grid_memo(grid: QuadGrid, key, build, *args):
    """The value under key in the grid's memo (`QuadGrid.series_tables`):
    build(*args) on first read, then one dict lookup, and freed with the
    grid.  An array is kept read-only."""
    value = grid.series_tables.get(key)
    if value is None:
        value = grid.series_tables[key] = build(*args)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return value


def _grid_basis_table(kind, size, order, grid):
    return basis_table(kind, size, grid.domain, order, grid.nodes)


def grid_table(kind: FunctionKind, size: int, order: int, grid: QuadGrid) -> np.ndarray:
    """basis_table at the grid's nodes, as one read-only array in the grid's
    memo: samples on the grid, the Gram forms and a Legendre trial basis on
    the grid all read it."""
    return grid_memo(grid, (kind, size, order), _grid_basis_table, kind, size, order, grid)


def _node_table(kind, size, order, grid):
    """The grid's own table when the grid holds it, and otherwise a table
    built for the caller alone and not kept."""
    if (table := grid.series_tables.get((kind, size, order))) is None:
        table = _grid_basis_table(kind, size, order, grid)
    return table


def _gram(kind, size, order, grid, table):
    if table is None:
        table = _node_table(kind, size, order, grid)
    return table.T @ (grid.weights[:, None] * table)


def series_gram(kind: FunctionKind, size: int, order: int, grid: QuadGrid,
                table: np.ndarray | None = None) -> np.ndarray:
    """G = T^T W T for the table T of derivative order 0 or 1 at the grid's
    nodes and its weights W, in the grid's memo: a series with coefficients
    c has squared grid norm c.G c (of f for order 0, of f' for order 1).  T
    is the caller's table when it passes one, the grid's own table when the
    grid holds it, and otherwise a table built for G alone and not kept, so
    norms read through forms alone leave only their forms on the grid."""
    return grid_memo(grid, (kind, size, order, "gram"), _gram, kind, size, order, grid, table)


def _read_out(kind, size, grid, points):
    """(R, m, P) for a series basis read at the P points that points(grid)
    gives.  R stacks the basis table at the points, a few zero rows, G_0 and
    G_1 in one read-only C-ordered matrix; m = T^T w is the mass row of the
    table T at the nodes that G_0 is built from.  The zero rows bring R's
    row count to size mod 4: OpenBLAS's matrix-vector kernel takes the last
    rows of a product apart, 2 and 1 at a time, so G_1's rows then get the
    arithmetic of G_1 @ c."""
    x = points(grid)
    table = _node_table(kind, size, 0, grid)
    parts = (basis_table(kind, size, grid.domain, 0, x), np.zeros((-(len(x) + size) % 4, size)),
             series_gram(kind, size, 0, grid, table), series_gram(kind, size, 1, grid))
    # R starts on a 64-byte boundary, not malloc's 16: the kernel reads it
    # about 10% faster (rows of 12 doubles are then all 32-byte aligned),
    # and its bits do not change
    entries = sum(len(part) for part in parts) * size
    buffer = np.empty(entries + 8)
    start = -buffer.ctypes.data % 64 // 8
    R = np.concatenate(parts, out=buffer[start:start + entries].reshape(-1, size))
    m = grid.weights @ table
    R.setflags(write=False)
    m.setflags(write=False)
    return R, m, len(x)


def read_series(f: FunctionRep, grid: QuadGrid, points) -> tuple:
    """(values, m, G_0 c, G_1 c) for a series f with coefficients c, once
    check_domain has passed: f at the points that points(grid) gives, the
    grid's mass row m (f's mass is m.c), and the products of c with the
    Gram forms (form_norm(c, G_k c) is the grid norm of f or f').  The
    read-out is built on first read and kept under the key (kind, size,
    points), so a call is one memo lookup and one product with R.  Each row
    of that product is within the rounding of a K-term dot product, 2 K eps
    |A| |c|, of the separate product A @ c, A the table at the points, G_0
    or G_1."""
    c = f.payload
    size = len(c)
    key = (f.kind, size, points)
    R, m, count = grid_memo(grid, key, _read_out, f.kind, size, grid, points)
    out = R.dot(c)
    return out[:count], m, out[-2 * size:-size], out[-size:]


def columns(arrays) -> np.ndarray:
    """Equal-length 1-d arrays as the columns of one C-ordered matrix: the
    layout of np.column_stack, so products with it keep their bits, at less
    than half its cost."""
    return np.ascontiguousarray(np.array(arrays).T)


def exp_poly_columns(funcs, x, orders) -> list:
    """One array per derivative order in orders of a block of ExpPoly at the
    points x: any order, through their coefficients, on one power basis x^k
    and one envelope e^{-rate x}."""
    P = [columns([g.poly for g in funcs])]
    rates = np.array([g.rate for g in funcs])
    for _ in range(max(orders)):  # (p e^{-rate x})' = (p' - rate p) e^{-rate x}
        D = -rates * P[-1]
        D[:-1] += np.arange(1, len(D))[:, None] * P[-1][1:]
        P.append(D)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    X, envelope = np.vander(x, len(P[0]), increasing=True), np.exp(-np.outer(x, rates))
    return [(X @ P[k]) * envelope for k in orders]


def sample(f: FunctionLike, x, order: int = 0) -> np.ndarray:
    """f's order-th derivative at arbitrary points x, for plots and demos: a
    series builds its table on every call.  On a grid, grid_values reads the
    grid's own tables."""
    if isinstance(f, ExpPoly):
        return exp_poly_columns([f], x, (order,))[0][:, 0]
    return basis_table(f.kind, len(f.payload), f.domain, order, x) @ f.payload


# ----------------------------------------------------------------------------
# Norms
# ----------------------------------------------------------------------------

def check_domain(f, grid: QuadGrid) -> None:
    """Raise unless f is a function that lives on the grid's domain."""
    if isinstance(f, FunctionRep):
        if not isinstance(grid.domain, Interval) or f.domain != grid.domain:
            raise InvalidArgumentError("function domain does not match grid domain")
    elif isinstance(f, ExpPoly):
        if not isinstance(grid.domain, HalfLineDomain):
            raise InvalidArgumentError("ExpPoly functions live on a half-line grid")
    else:
        raise InvalidArgumentError(f"not a function representation: {type(f).__name__}")


def grid_values(f: FunctionLike, grid: QuadGrid, order: int = 0) -> np.ndarray:
    """f's order-th derivative at the grid's nodes, once check_domain has
    passed: a series is one product with the grid's table (grid_table)."""
    if isinstance(f, ExpPoly):
        return sample(f, grid.nodes, order)
    return grid_table(f.kind, len(f.payload), order, grid) @ f.payload


def check_orthonormal(kind: FunctionKind, size: int, grid: QuadGrid) -> np.ndarray:
    """The grid's order-0 table of a series basis of size functions on the
    grid's domain, once its Gram form (series_gram), scaled to unit norms
    (sine and cosine by 2/L), is the identity to ORTHONORMALITY_TOL: the
    one reader of a basis size, and the one test that a grid resolves a
    series basis (144 sines on a 256-node Gauss grid, not 145).  The form
    it checks is the one the verifiers read norms from.  A size that is not
    an integer >= 1 is refused before any table is built, and so is a basis
    of more functions than the grid has nodes, since a grid Gram matrix has
    rank at most the node count."""
    check_integer(size, "basis size")
    if size < 1:
        raise InvalidArgumentError("basis size must be >= 1")
    if size <= grid.size:
        table = grid_table(kind, size, 0, grid)
        gram = series_gram(kind, size, 0, grid, table)
        if kind is not FunctionKind.LEGENDRE_SERIES:
            gram = (2.0 / grid.domain.length) * gram
        if np.max(np.abs(gram - np.eye(size))) <= ORTHONORMALITY_TOL:
            return table
    raise InvalidArgumentError(f"{kind.value} basis of {size} functions is not "
                               f"orthonormal on the grid of {grid.size} nodes")


def weighted_norm(weights: np.ndarray, values: np.ndarray):
    """sqrt(sum_i weights_i values_i^2) of sampled values: one for a vector
    of values, one per column of a matrix of them.  The one reader of a
    sampled norm."""
    return np.sqrt(np.maximum(weights @ (values * values), 0.0))


def form_norm(coeffs: np.ndarray, products: np.ndarray):
    """sqrt(c.(G c)) from coefficients c and their products G c with a
    grid Gram form: the grid norm of a series or of its derivative.  c is
    one function's K coefficients (a float), or a K x B block of them, one
    function per column (an array).  The one reader of a series' grid norms."""
    if coeffs.ndim == 1:  # the method skips np.dot's dispatch: the same product
        return math.sqrt(max(float(coeffs.dot(products)), 0.0))
    return np.sqrt(np.maximum(np.einsum("ij,ij->j", coeffs, products), 0.0))


def _series_norm(kind: FunctionKind, coeffs: np.ndarray, order: int, grid: QuadGrid):
    """form_norm of the grid's Gram form of derivative order 0 or 1
    (series_gram): the grid norm of a series (order 0) or of its derivative
    (order 1) from its coefficients, K x K flops, not n x K."""
    return form_norm(coeffs, series_gram(kind, len(coeffs), order, grid) @ coeffs)


def _norm(f: FunctionLike, grid: QuadGrid, order: int) -> float:
    check_domain(f, grid)
    if isinstance(f, ExpPoly):
        return float(weighted_norm(grid.weights, grid_values(f, grid, order)))
    return _series_norm(f.kind, f.payload, order, grid)


def l2_norm(f: FunctionLike, grid: QuadGrid) -> float:
    """sqrt(sum_i w_i f(x_i)^2); f must live on the grid's domain.  A series
    reads it from its coefficients and the grid's G_0 (_series_norm), an
    ExpPoly from its samples at the nodes."""
    return _norm(f, grid, 0)


def h1_seminorm(f: FunctionLike, grid: QuadGrid) -> float:
    """L2 norm of the exact derivative, read as l2_norm reads f's (G_1 for a series)."""
    return _norm(f, grid, 1)
