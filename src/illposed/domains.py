"""Domains and quadrature grids.

All inner products in the package are discrete pairings on a QuadGrid.
Bounded intervals use a single Gauss-Legendre rule; the truncated half line
[0, s_max] uses composite Gauss panels graded geometrically toward 0, where
the Laplace-type kernels concentrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InvalidArgumentError

# Geometric grading ratio for half-line panels.  With the default 8 panels on
# [0, 40/a] the first panel has width s_max/4**7, resolving the e^{-2as}
# kernel mass near the origin.
PANEL_GRADING = 0.25

# Default truncation: kernels decay like e^{-2as}, so s_max = 40/a puts the
# discarded tail below 1e-34.
HALF_LINE_DECAY_SCALE = 40.0
HALF_LINE_PANELS = 8


@dataclass(frozen=True)
class Interval:
    """A bounded interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise InvalidArgumentError("interval endpoints must be finite")
        if not self.a < self.b:
            raise InvalidArgumentError(
                f"degenerate interval: need a < b, got [{self.a}, {self.b}]"
            )

    @property
    def length(self) -> float:
        return self.b - self.a

    def overlaps(self, other: "Interval") -> bool:
        return self.a < other.b and other.a < self.b


@dataclass(frozen=True)
class HalfLineDomain:
    """Truncated half line [0, s_max] split into geometrically graded panels."""

    s_max: float
    panel_count: int = HALF_LINE_PANELS

    def __post_init__(self):
        if not (np.isfinite(self.s_max) and self.s_max > 0):
            raise InvalidArgumentError("s_max must be positive")
        if self.panel_count < 1:
            raise InvalidArgumentError("panel_count must be >= 1")

    @property
    def length(self) -> float:
        return self.s_max

    def breakpoints(self) -> np.ndarray:
        """Panel edges 0 = b_0 < b_1 < ... < b_P = s_max, graded toward 0."""
        edges = self.s_max * PANEL_GRADING ** np.arange(self.panel_count - 1, -1, -1.0)
        return np.concatenate(([0.0], edges))


Domain = Union[Interval, HalfLineDomain]


def half_line_for(ab: Interval) -> HalfLineDomain:
    """Default half-line truncation for Laplace operators on [a, b]."""
    if ab.a <= 0:
        raise InvalidArgumentError("Laplace domain requires 0 < a")
    return HalfLineDomain(HALF_LINE_DECAY_SCALE / ab.a, HALF_LINE_PANELS)


@dataclass(frozen=True)
class QuadGrid:
    """Quadrature nodes and weights on a domain.

    nodes are strictly increasing and interior to the domain, weights are
    positive, and (for the bounded measure of the domain) the weights sum to
    the domain length.
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    domain: Domain

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.ndim != 1 or len(nodes) != len(weights):
            raise InvalidArgumentError("nodes and weights must be 1-d and equal length")
        if len(nodes) == 0:
            raise InvalidArgumentError("empty grid")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidArgumentError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise InvalidArgumentError("weights must be positive")
        lo = 0.0 if isinstance(self.domain, HalfLineDomain) else self.domain.a
        hi = self.domain.s_max if isinstance(self.domain, HalfLineDomain) else self.domain.b
        if nodes[0] <= lo or nodes[-1] >= hi:
            raise InvalidArgumentError("nodes must lie strictly inside the domain")
        if abs(weights.sum() - self.domain.length) > 1e-12 * self.domain.length:
            raise InvalidArgumentError("weights must sum to the domain length")

    @property
    def size(self) -> int:
        return len(self.nodes)


def _gauss_panel(lo: float, hi: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def make_grid(domain: Domain, n: int) -> QuadGrid:
    """Gauss-Legendre grid with n nodes (per panel on the half line).

    Exact for polynomials of degree <= 2n-1 on each panel.
    """
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
