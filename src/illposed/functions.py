"""Function representations, norms and inner products.

A FunctionRep is a coefficient series (sine / cosine / orthonormal
Legendre) with exact analytic differentiation.  Half-line functions
(Theorem-2 territory) are polynomial-times-exponential ExpPoly objects,
which also differentiate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from .domains import HalfLineDomain, Interval, QuadGrid
from .errors import InvalidArgumentError


class FunctionKind(Enum):
    SINE_SERIES = "sine-series"
    COSINE_SERIES = "cosine-series"
    LEGENDRE_SERIES = "legendre-series"


# ----------------------------------------------------------------------------
# FunctionRep
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionRep:
    """A real function on an interval, as series coefficients.

    Series conventions on [p, q] with L = q - p:
      sine:    f(x) = sum_k c_k sin(k pi (x-p)/L),  k = 1..K (vanishes at ends)
      cosine:  f(x) = sum_k c_k cos(k pi (x-p)/L),  k = 1..K
      legendre: orthonormalized Legendre polynomials mapped to [p, q], k = 0..K-1
    With raw_x=True the trig bases are sin(k pi x) / cos(k pi x) in the raw
    coordinate, exactly as plotted in the worst-case figure reproductions.
    """

    kind: FunctionKind
    payload: np.ndarray = field(repr=False)
    domain: Interval
    raw_x: bool = False

    def __post_init__(self):
        payload = np.asarray(self.payload, dtype=float)
        payload.setflags(write=False)
        object.__setattr__(self, "payload", payload)
        if payload.ndim != 1 or len(payload) == 0:
            raise InvalidArgumentError("payload must be a nonempty 1-d array")
        if self.raw_x and self.kind is FunctionKind.LEGENDRE_SERIES:
            raise InvalidArgumentError("raw_x applies to trig series only")

    # -- evaluation -----------------------------------------------------------

    def _trig_freqs(self):
        k = np.arange(1, len(self.payload) + 1, dtype=float)
        if self.raw_x:
            return k * np.pi, 0.0  # angle = omega*x
        omega = k * np.pi / self.domain.length
        return omega, self.domain.a  # angle = omega*(x - p)

    def values(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind is FunctionKind.SINE_SERIES:
            omega, p = self._trig_freqs()
            return np.sin(np.outer(x - p, omega)) @ self.payload
        if self.kind is FunctionKind.COSINE_SERIES:
            omega, p = self._trig_freqs()
            return np.cos(np.outer(x - p, omega)) @ self.payload
        xi = (2.0 * x - self.domain.a - self.domain.b) / self.domain.length
        return npleg.legval(xi, self._plain_legendre_coeffs())

    def _plain_legendre_coeffs(self) -> np.ndarray:
        k = np.arange(len(self.payload))
        return self.payload * np.sqrt((2 * k + 1) / self.domain.length)

    # -- exact differentiation ------------------------------------------------

    def derivative(self) -> "FunctionRep":
        if self.kind is FunctionKind.SINE_SERIES:
            omega, _ = self._trig_freqs()
            return FunctionRep(FunctionKind.COSINE_SERIES, self.payload * omega,
                               self.domain, self.raw_x)
        if self.kind is FunctionKind.COSINE_SERIES:
            omega, _ = self._trig_freqs()
            return FunctionRep(FunctionKind.SINE_SERIES, -self.payload * omega,
                               self.domain, self.raw_x)
        plain = npleg.legder(self._plain_legendre_coeffs()) * (2.0 / self.domain.length)
        if len(plain) == 0:
            plain = np.zeros(1)
        k = np.arange(len(plain))
        coeffs = plain / np.sqrt((2 * k + 1) / self.domain.length)
        return FunctionRep(FunctionKind.LEGENDRE_SERIES, coeffs, self.domain)


@dataclass(frozen=True)
class ExpPoly:
    """p(x) e^{-rate x} on the half line, with exact differentiation.

    poly holds power-basis coefficients (low order first).  All weighted
    norms of Theorem-2 type are finite for rate > 0.
    """

    poly: np.ndarray = field(repr=False)
    rate: float

    def __post_init__(self):
        poly = np.asarray(self.poly, dtype=float)
        poly.setflags(write=False)
        object.__setattr__(self, "poly", poly)
        if poly.ndim != 1 or len(poly) == 0:
            raise InvalidArgumentError("poly must be a nonempty 1-d array")
        if not self.rate > 0:
            raise InvalidArgumentError("rate must be positive")

    def values(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return nppoly.polyval(x, self.poly) * np.exp(-self.rate * x)

    def derivative(self) -> "ExpPoly":
        dp = nppoly.polyder(self.poly)
        if len(dp) == 0:
            dp = np.zeros(1)
        n = max(len(dp), len(self.poly))
        coeffs = np.zeros(n)
        coeffs[: len(dp)] += dp
        coeffs[: len(self.poly)] -= self.rate * self.poly
        return ExpPoly(coeffs, self.rate)


FunctionLike = Union[FunctionRep, ExpPoly]


# ----------------------------------------------------------------------------
# Norms and inner products
# ----------------------------------------------------------------------------

def _check_domain(grid: QuadGrid, *functions: FunctionLike):
    for h in functions:
        if isinstance(h, FunctionRep):
            if not isinstance(grid.domain, Interval) or h.domain != grid.domain:
                raise InvalidArgumentError("function domain does not match grid domain")
        elif isinstance(h, ExpPoly):
            if not isinstance(grid.domain, HalfLineDomain):
                raise InvalidArgumentError("ExpPoly functions live on a half-line grid")


def inner_product(f: FunctionLike, g: FunctionLike, grid: QuadGrid) -> float:
    """Discrete L2 pairing sum_i w_i f(x_i) g(x_i)."""
    _check_domain(grid, f, g)
    return float(np.dot(grid.weights, f.values(grid.nodes) * g.values(grid.nodes)))


def l2_norm(f: FunctionLike, grid: QuadGrid) -> float:
    """sqrt(sum_i w_i f(x_i)^2), sampling f once."""
    _check_domain(grid, f)
    v = f.values(grid.nodes)
    return float(np.sqrt(max(float(np.dot(grid.weights, v * v)), 0.0)))


def h1_seminorm(f: FunctionLike, grid: QuadGrid) -> float:
    """L2 norm of the exact derivative."""
    return l2_norm(f.derivative(), grid)


# ----------------------------------------------------------------------------
# Basis helpers
# ----------------------------------------------------------------------------

def make_sine_basis(domain: Interval, n: int) -> list[FunctionRep]:
    """L2-orthonormal sine functions sqrt(2/L) sin(k pi (x-p)/L), k = 1..n."""
    if n < 1:
        raise InvalidArgumentError("basis size must be >= 1")
    scale = np.sqrt(2.0 / domain.length)
    basis = []
    for k in range(1, n + 1):
        coeffs = np.zeros(k)
        coeffs[-1] = scale
        basis.append(FunctionRep(FunctionKind.SINE_SERIES, coeffs, domain))
    return basis


def linear_combination(basis: list[FunctionRep], coeffs) -> FunctionRep:
    """Combine series of one kind, domain and coordinate into one FunctionRep."""
    coeffs = np.asarray(coeffs, dtype=float)
    if len(basis) != len(coeffs) or not basis:
        raise InvalidArgumentError("need one coefficient per basis function")
    first = basis[0]
    if any((b.kind, b.domain, b.raw_x) != (first.kind, first.domain, first.raw_x)
           for b in basis):
        raise InvalidArgumentError("basis functions differ in kind, domain or raw_x")
    size = max(len(b.payload) for b in basis)
    payload = np.zeros(size)
    for b, c in zip(basis, coeffs):
        payload[: len(b.payload)] += c * b.payload
    return FunctionRep(first.kind, payload, first.domain, first.raw_x)
