"""Domains and quadrature grids.

All inner products in the package are discrete pairings on a QuadGrid.
Bounded intervals use a single Gauss-Legendre rule; the truncated half line
[0, s_max] uses composite Gauss panels graded geometrically toward 0, where
the Laplace-type kernels concentrate.

The n-point Gauss-Legendre rule on [-1, 1] costs O(n^2): Newton's method on
the three-term Legendre recurrence, started from Tricomi's asymptotic node
estimate, converges in a few steps for every n.  Only the nonnegative half
is computed; the other half is its mirror image, so the rule is exactly
symmetric and the middle node of an odd rule is exactly 0.  The weights are
2 / ((1 - x)(1 + x) P_n'(x)^2) at the converged nodes, which keeps their
relative accuracy near x = +-1.  Each rule is built once per size and
process and shared, read-only, by every panel and grid of that size.
"""

from __future__ import annotations

import functools
from typing import Union

import numpy as np

from .errors import Frozen, InvalidArgumentError, check_integer

# Geometric grading ratio for half-line panels.  With the default 8 panels on
# [0, 40/a] the first panel has width s_max/4**7, resolving the e^{-2as}
# kernel mass near the origin.
PANEL_GRADING = 0.25

# Default truncation: kernels decay like e^{-2as}, so s_max = 40/a puts the
# discarded tail below 1e-34.
HALF_LINE_DECAY_SCALE = 40.0
HALF_LINE_PANELS = 8


class Interval(Frozen):
    """A bounded interval [a, b] with a < b; equal endpoints make equal
    intervals, with equal hashes."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        if not (np.isfinite(a) and np.isfinite(b)):
            raise InvalidArgumentError("interval endpoints must be finite")
        if not a < b:
            raise InvalidArgumentError(f"degenerate interval: need a < b, got [{a}, {b}]")
        if not np.isfinite(float(b) - float(a)):
            raise InvalidArgumentError(f"interval [{a}, {b}] is wider than the float range")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"Interval(a={self.a!r}, b={self.b!r})"

    @property
    def length(self) -> float:
        return self.b - self.a

    def overlaps(self, other: "Interval") -> bool:
        """True when the closed intervals share a point, a touching endpoint included."""
        return self.a <= other.b and other.a <= self.b


class HalfLineDomain(Frozen):
    """Truncated half line [0, s_max] split into geometrically graded panels;
    equal reaches make equal half lines, with equal hashes."""

    __slots__ = ("s_max",)
    panel_count = HALF_LINE_PANELS  # one panel layout for every half line

    def __init__(self, s_max: float):
        if not 0 < s_max < np.inf:
            raise InvalidArgumentError(f"s_max must be finite and positive, got {s_max}")
        object.__setattr__(self, "s_max", s_max)

    def __eq__(self, other):
        if other.__class__ is not HalfLineDomain:
            return NotImplemented
        return self.s_max == other.s_max

    def __hash__(self):
        return hash((self.s_max,))

    def __repr__(self):
        return f"HalfLineDomain(s_max={self.s_max!r})"

    @property
    def length(self) -> float:
        return self.s_max

    def breakpoints(self) -> np.ndarray:
        """Panel edges 0 = b_0 < b_1 < ... < b_P = s_max, graded toward 0."""
        edges = self.s_max * PANEL_GRADING ** np.arange(self.panel_count - 1, -1, -1.0)
        return np.concatenate(([0.0], edges))


Domain = Union[Interval, HalfLineDomain]


def shortest(v: float) -> str:
    """Shortest %g form of v that reads back as v (the :g form whenever that
    round-trips), so a printed endpoint parses back to itself."""
    return next(s for p in range(6, 18) if float(s := f"{v:.{p}g}") == v)


def check_laplace_interval(ab: Interval) -> None:
    """Refuse an [a, b] that no Laplace operator acts on: the one 0 < a rule."""
    if ab.a <= 0:
        raise InvalidArgumentError("Laplace operators require 0 < a < b")


def half_line_for(ab: Interval) -> HalfLineDomain:
    """The truncated half line [0, 40/a] of Laplace operators on [a, b],
    once 0 < a.  HalfLineDomain is the one check of its reach; when 40/a
    leaves the float range, the refusal names a."""
    check_laplace_interval(ab)
    try:
        return HalfLineDomain(HALF_LINE_DECAY_SCALE / ab.a)
    except InvalidArgumentError:
        raise InvalidArgumentError(f"a = {shortest(ab.a)} is too small: the half line "
                                   f"[0, {HALF_LINE_DECAY_SCALE:g}/a] overflows") from None


class QuadGrid(Frozen):
    """Quadrature nodes and weights on a domain.

    nodes are strictly increasing and interior to the domain, weights are
    positive, and (for the bounded measure of the domain) the weights sum to
    the domain length.  Both are kept read-only.
    """

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, domain: Domain):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        if nodes.ndim != 1 or weights.ndim != 1 or len(nodes) != len(weights):
            raise InvalidArgumentError("nodes and weights must be 1-d and equal length")
        if len(nodes) == 0:
            raise InvalidArgumentError("empty grid")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidArgumentError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise InvalidArgumentError("weights must be positive")
        lo = 0.0 if isinstance(domain, HalfLineDomain) else domain.a
        hi = domain.s_max if isinstance(domain, HalfLineDomain) else domain.b
        if nodes[0] <= lo or nodes[-1] >= hi:
            raise InvalidArgumentError("nodes must lie strictly inside the domain")
        if abs(weights.sum() - domain.length) > 1e-12 * domain.length:
            raise InvalidArgumentError("weights must sum to the domain length")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "domain", domain)

    @property
    def size(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def series_tables(self) -> dict:
        """What is read on this grid, filled through functions.grid_memo
        and freed with the grid: a series basis' tables at the nodes, one
        per (kind, size, order); its Gram forms, one per (kind, size, order,
        "gram"); its read-out at a caller's points, one per (kind, size,
        points), points the function that gives them: the table there, G_0
        and G_1 stacked in one matrix, with the mass row (functions.
        read_series); and what stability's lemmas read besides (their
        sup-norm points and Lemma 3's prefactor).  The package's one table
        cache."""
        return {}


# Newton from Tricomi's estimate settles in 3-4 steps for every n <= 2048;
# a step below NEWTON_TOL leaves an error far below one ulp.
NEWTON_TOL = 1e-14
NEWTON_MAX_STEPS = 10


def _legendre_with_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1]."""
    k = np.arange((n + 1) // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[0] = 0.0  # P_n(0) = 0 exactly for odd n, so Newton keeps it there
    for _ in range(NEWTON_MAX_STEPS):
        p, dp = _legendre_with_derivative(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < NEWTON_TOL:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n={n} did not converge")
    _, dp = _legendre_with_derivative(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    mirrored = slice(n % 2, None)  # an odd rule's middle node is its own mirror
    nodes = np.concatenate((-x[mirrored][::-1], x))
    weights = np.concatenate((w[mirrored][::-1], w))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss_panel(lo: float, hi: float, n: int):
    x, w = gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def make_grid(domain: Domain, n: int) -> QuadGrid:
    """Gauss-Legendre grid with n nodes (per panel on the half line).

    Exact for polynomials of degree <= 2n-1 on each panel.
    """
    check_integer(n, "n")
    if n < 1:
        raise InvalidArgumentError("need n >= 1 quadrature nodes")
    if isinstance(domain, Interval):
        nodes, weights = _gauss_panel(domain.a, domain.b, n)
        return QuadGrid(nodes, weights, domain)
    if isinstance(domain, HalfLineDomain):
        edges = domain.breakpoints()
        parts = [_gauss_panel(lo, hi, n) for lo, hi in zip(edges[:-1], edges[1:])]
        nodes = np.concatenate([p[0] for p in parts])
        weights = np.concatenate([p[1] for p in parts])
        return QuadGrid(nodes, weights, domain)
    raise InvalidArgumentError(f"unsupported domain type: {type(domain).__name__}")
