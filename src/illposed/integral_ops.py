"""Truncated integral operators and their self-adjoint compositions.

Each operator kind is discretized by a rectangular "half factor" A alone:
A^T A is the symmetrized kernel matrix M = W^{1/2} K W^{1/2} up to quadrature
error, and M itself is never formed.  Quadratic forms are evaluated as
||A v||^2: the image values A v are small numbers computed before squaring,
which keeps relative accuracy even when ||T f||^2 is ~1e-18 ||f||^2 (the
figure-3 regime), and singular values of A resolve spectral decay far below
the eigensolver floor of M itself.  The factor is checked against the trace
of M, the sum of the kernel's diagonal in closed form.

The image-side rule of A is sized to the kernel, not to the grid: the
spectra decay (super-)exponentially, so a few dozen image nodes resolve every
mode above SVD_FLOOR whatever n is.  gram_matrix starts from a small rule and
doubles it until two successive factors agree: the finer one's trace gap is
within FACTOR_RTOL, both resolve the same modes, and each resolved mu_n moves
by at most REFINEMENT_SLACK times the SVD perturbation bound
2 eps sqrt(mu_1/mu_n).  The cap rule (2n image rows for Laplace, Fourier and
Hilbert) is accepted on its trace check alone, so every input is accepted or
rejected as it was when the cap was the only rule.  The accepted factor's
singular values are computed with it, once: by the refinement, or after the
cap rule's trace check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domains import HalfLineDomain, Interval, QuadGrid, half_line_for, make_grid
from .errors import InvalidArgumentError
from .functions import FunctionKind, FunctionLike, FunctionRep, sample, trig_freqs

# Largest grid size n: the cap-rule half factor is up to 2n x n (Fourier, Hilbert).
MAX_GRID_SIZE = 1024
# Largest relative gap allowed between ||A||_F^2 and trace(M).
FACTOR_RTOL = 1e-12

# Modes below SVD_FLOOR * mu_1 are not resolved: the SVD of the half factor
# resolves sigma_n/sigma_1 down to ~1e-14, i.e. mu ratios to ~1e-28.
SVD_FLOOR = 1e-28

# A refined half factor is accepted when every resolved mu_n agrees with the
# factor on half as many image nodes to this many SVD perturbation bounds.
REFINEMENT_SLACK = 4.0

HILBERT = "hilbert"
LAPLACE = "laplace"
LAPLACE_ADJOINT = "laplace-adjoint"
FOURIER = "fourier"


@dataclass(frozen=True)
class OperatorKind:
    """Which T*T composition (or truncated Hilbert transform) to assemble."""

    tag: str
    source: Interval
    target: Optional[Interval] = None

    def __post_init__(self):
        if self.tag == HILBERT:
            if self.target is None:
                raise InvalidArgumentError("hilbert operator needs both intervals")
            if self.source.overlaps(self.target):
                raise InvalidArgumentError("hilbert intervals must be disjoint closed intervals")
        elif self.tag in (LAPLACE, LAPLACE_ADJOINT):
            if self.source.a <= 0:
                raise InvalidArgumentError("Laplace operators require 0 < a < b")
        elif self.tag == FOURIER:
            if self.source != Interval(-1.0, 1.0):
                raise InvalidArgumentError("Fourier composition is defined on [-1, 1]")
        else:
            raise InvalidArgumentError(f"unknown operator tag: {self.tag}")

    @staticmethod
    def hilbert_truncated(interval_in: Interval, interval_out: Interval) -> "OperatorKind":
        return OperatorKind(HILBERT, interval_in, target=interval_out)

    @staticmethod
    def laplace_tt(ab: Interval) -> "OperatorKind":
        return OperatorKind(LAPLACE, ab)

    @staticmethod
    def laplace_adjoint_tt(ab: Interval) -> "OperatorKind":
        return OperatorKind(LAPLACE_ADJOINT, ab)

    @staticmethod
    def fourier_tt() -> "OperatorKind":
        return OperatorKind(FOURIER, Interval(-1.0, 1.0))

    @property
    def half(self) -> Optional[HalfLineDomain]:
        """The truncated half line the adjoint composition acts on; None for
        every other kind."""
        return half_line_for(self.source) if self.tag == LAPLACE_ADJOINT else None

    @property
    def input_domain(self):
        """Domain of the functions the quadratic form acts on."""
        if self.tag == LAPLACE_ADJOINT:
            return self.half
        return self.source

    def to_string(self) -> str:
        if self.tag == HILBERT:
            return (f"hilbert:I={_shortest(self.source.a)},{_shortest(self.source.b)}"
                    f":J={_shortest(self.target.a)},{_shortest(self.target.b)}")
        if self.tag == FOURIER:
            return "fourier"
        return f"{self.tag}:a={_shortest(self.source.a)},b={_shortest(self.source.b)}"


def _shortest(v: float) -> str:
    """Shortest %g form of v that reads back as v (the :g form whenever that
    round-trips), so an operator's name parses back to its own endpoints."""
    return next(s for p in range(6, 18) if float(s := f"{v:.{p}g}") == v)


# Keys each operator string takes, with the number of values per key.
_OPERATOR_KEYS = {HILBERT: {"I": 2, "J": 2}, LAPLACE: {"a": 1, "b": 1},
                  LAPLACE_ADJOINT: {"a": 1, "b": 1}, FOURIER: {}}


def parse_operator(text: str) -> OperatorKind:
    """Parse CLI operator strings.

    Grammar: "hilbert:I=0,1:J=2,3", "laplace:a=1,b=2",
    "laplace-adjoint:a=1,b=2", "fourier".  Commas either separate key=value
    pairs or continue the previous value list (interval endpoints).  Every
    key the operator takes must appear once, with its number of values, and
    no other key may appear.
    """
    parts = text.strip().split(":")
    tag = parts[0]
    if tag not in _OPERATOR_KEYS:
        raise InvalidArgumentError(f"unknown operator: {text!r}")
    kv: dict[str, list[float]] = {}
    key = None
    try:
        for part in parts[1:]:
            for token in part.split(","):
                if "=" in token:
                    key, _, val = token.partition("=")
                    if key in kv:
                        raise ValueError(f"repeated key {key!r}")
                    kv[key] = [float(val)]
                elif key is not None:
                    kv[key].append(float(token))
                else:
                    raise ValueError("value without a key")
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed operator string: {text!r}") from exc
    if {k: len(v) for k, v in kv.items()} != _OPERATOR_KEYS[tag]:
        raise InvalidArgumentError(
            f"malformed operator string: {text!r} (keys for {tag}: "
            f"{', '.join(_OPERATOR_KEYS[tag]) or 'none'})")
    if tag == HILBERT:
        return OperatorKind.hilbert_truncated(Interval(*kv["I"]), Interval(*kv["J"]))
    if tag == FOURIER:
        return OperatorKind.fourier_tt()
    ab = Interval(kv["a"][0], kv["b"][0])
    return OperatorKind.laplace_tt(ab) if tag == LAPLACE else OperatorKind.laplace_adjoint_tt(ab)


# ----------------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------------

def _adjoint_kernel(u, a: float, b: float):
    """(e^{-au} - e^{-bu})/u for u > 0, as -e^{-au} expm1(-(b-a)u)/u: the
    difference is never formed, so no u and no gap b-a cancels."""
    u = np.asarray(u, dtype=float)
    return -np.exp(-a * u) * np.expm1(-(b - a) * u) / u


def _kernel_diagonal(kind: OperatorKind, x: np.ndarray) -> np.ndarray:
    """K(x, x) in closed form: its weighted sum is trace(M) = ||A||_F^2."""
    if kind.tag == LAPLACE:
        return 1.0 / (2.0 * x)
    if kind.tag == LAPLACE_ADJOINT:
        return _adjoint_kernel(2.0 * x, kind.source.a, kind.source.b)
    if kind.tag == FOURIER:
        return np.full_like(x, 2.0)
    c, d = kind.target.a, kind.target.b  # HILBERT: OperatorKind admits no other tag
    return (1.0 / (c - x) - 1.0 / (d - x)) / math.pi ** 2


# ----------------------------------------------------------------------------
# Operator matrices
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorMatrix:
    """T*T on a quadrature grid, held as its half factor A: A^T A is the
    symmetrized kernel matrix M, which is never formed.  singular_values are
    A's, descending.

    image_refinement is the largest move of a resolved mu_n between A and the
    factor on half as many image nodes, in units of the SVD perturbation
    bound 2 eps sqrt(mu_1/mu_n); None when that coarser factor was not built.
    """

    grid: QuadGrid
    kind: OperatorKind
    half_factor: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    image_refinement: Optional[float] = None

    def __post_init__(self):
        for name in ("half_factor", "singular_values"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def image_nodes(self) -> int:
        """Rows of the half factor: image-side quadrature nodes (2 per xi for Fourier)."""
        return self.half_factor.shape[0]


def resolved_count(mu: np.ndarray) -> int:
    """Number of mu_n above SVD_FLOOR * mu_1, for descending mu: the one floor rule."""
    return int(np.count_nonzero(mu > SVD_FLOOR * mu[0]))


# Image-side rule size r of each kind: the first size refinement tries, and
# the cap for a grid of n nodes.  r counts nodes per half-line panel for
# Laplace, nodes on [a, b] for the adjoint, xi nodes on [-1, 1] for Fourier
# and nodes on J for Hilbert.
_IMAGE_RULES = {
    LAPLACE: (32, lambda n: max(32, n // 4)),
    LAPLACE_ADJOINT: (128, lambda n: max(128, n // 2)),
    FOURIER: (64, lambda n: n),
    HILBERT: (64, lambda n: 2 * n),
}


def _half_factor(kind: OperatorKind, grid: QuadGrid, r: int) -> np.ndarray:
    """Rectangular A with A^T A = M: rows sample an image-side rule of size r."""
    sw_in = np.sqrt(grid.weights)
    x = grid.nodes
    if kind.tag == LAPLACE:
        out = make_grid(half_line_for(kind.source), r)
        A = np.exp(-np.outer(out.nodes, x))
    elif kind.tag == LAPLACE_ADJOINT:
        out = make_grid(kind.source, r)
        A = np.exp(-np.outer(out.nodes, x))
    elif kind.tag == FOURIER:
        out = make_grid(Interval(-1.0, 1.0), r)
        phase = np.outer(out.nodes, x)
        A = np.vstack([np.cos(phase), np.sin(phase)])
        sw_out = np.concatenate([np.sqrt(out.weights)] * 2)
        return sw_out[:, None] * A * sw_in[None, :]
    else:  # HILBERT: kernel 1/(t - s) is smooth on J x I, so the rule lives on J
        out = make_grid(kind.target, r)
        A = (1.0 / np.pi) / (out.nodes[:, None] - x[None, :])
    return np.sqrt(out.weights)[:, None] * A * sw_in[None, :]


def _trace_gap(A: np.ndarray, trace: float) -> float:
    """Relative gap between ||A||_F^2 = sum of mu_n and the kernel's trace."""
    return abs(float(np.vdot(A, A)) - trace) / trace


def _refinement(mu_coarse: np.ndarray, mu_fine: np.ndarray) -> float:
    """Largest relative move of a mode both spectra resolve, in units of the
    SVD perturbation bound 2 eps sqrt(mu_1/mu_n)."""
    k = min(resolved_count(mu_coarse), resolved_count(mu_fine))
    mu = mu_fine[:k]
    bound = 2.0 * np.finfo(float).eps * np.sqrt(mu[0] / mu)
    return float(np.max(np.abs(mu_coarse[:k] - mu) / (mu * bound)))


def _refined_half_factor(kind: OperatorKind, grid: QuadGrid, trace: float):
    """Half factor on the smallest image-side rule that refinement confirms:
    (A, its singular values, its refinement or None).

    Rules double from the kind's first size while below the cap; each is
    accepted when its trace gap is within FACTOR_RTOL, it resolves as many
    modes as the rule before it, and no resolved mu_n moved by more than
    REFINEMENT_SLACK bounds.  Otherwise the cap rule is used, on the trace
    check alone, and its SVD is taken once that check passes.  Raises
    InvalidArgumentError when the cap rule misses the kernel trace.
    """
    first, cap = _IMAGE_RULES[kind.tag]
    r_max = cap(grid.size)
    # Refinement needs two rules below the cap; with fewer, build the cap.
    r = first if 2 * first < r_max else r_max
    mu_coarse = None
    while r < r_max:
        A = _half_factor(kind, grid, r)
        s = np.linalg.svd(A, compute_uv=False)
        mu = s ** 2
        if mu_coarse is not None:
            refinement = _refinement(mu_coarse, mu)
            if (_trace_gap(A, trace) <= FACTOR_RTOL and refinement <= REFINEMENT_SLACK
                    and resolved_count(mu) == resolved_count(mu_coarse)):
                return A, s, refinement
        mu_coarse, r = mu, 2 * r
    A = _half_factor(kind, grid, r_max)
    gap = _trace_gap(A, trace)
    if not gap <= FACTOR_RTOL:
        raise InvalidArgumentError(
            f"half factor of {kind.to_string()} disagrees with its kernel matrix "
            f"at n = {grid.size}: relative trace gap {gap:.3g} > {FACTOR_RTOL:g}")
    s = np.linalg.svd(A, compute_uv=False)
    return A, s, None if mu_coarse is None else _refinement(mu_coarse, s ** 2)


def gram_matrix(kind: OperatorKind, grid: QuadGrid) -> OperatorMatrix:
    """T*T in the discrete L2 geometry, as its refinement-checked half factor."""
    if grid.size > MAX_GRID_SIZE:
        raise InvalidArgumentError(f"grid size capped at n = {MAX_GRID_SIZE}")
    expected = kind.input_domain
    if grid.domain != expected:
        raise InvalidArgumentError(
            f"grid domain {grid.domain} does not match operator input {expected}"
        )
    # ||A||_F^2 = sum of mu_n must equal the kernel's trace: a half factor whose
    # image-side rule misses the kernel would print a wrong spectrum.
    trace = float(np.dot(grid.weights, _kernel_diagonal(kind, grid.nodes)))
    A, s, refinement = _refined_half_factor(kind, grid, trace)
    return OperatorMatrix(grid, kind, A, s, refinement)


def quadratic_form(M: OperatorMatrix, f: FunctionLike) -> float:
    """||T f||^2 = <T*T f, f>, evaluated through the half factor.

    Computing A v first resolves the image before squaring, which preserves
    relative accuracy deep below the cancellation floor of the plain form
    v^T M v (the demonstrated worst cases sit at ~1e-18 ||f||^2).
    """
    Av = M.half_factor @ (np.sqrt(M.grid.weights) * sample(f, M.grid.nodes))
    return float(np.dot(Av, Av))


# ----------------------------------------------------------------------------
# The direct Fourier image energy
# ----------------------------------------------------------------------------

def _trig_transform(omega: float, phase: float, xi: np.ndarray, lo: float, hi: float,
                    is_sine: bool) -> np.ndarray:
    """int_lo^hi trig(omega x + phase) e^{i xi x} dx, closed form.

    Valid away from resonance |xi| = omega; on [-1, 1] the series frequencies
    satisfy omega >= pi/2 > |xi|.
    """
    denom = omega ** 2 - xi ** 2
    out = np.zeros_like(xi, dtype=complex)
    for x, sign in ((hi, 1.0), (lo, -1.0)):
        s, c = np.sin(omega * x + phase), np.cos(omega * x + phase)
        if is_sine:
            val = np.exp(1j * xi * x) * (1j * xi * s - omega * c)
        else:
            val = np.exp(1j * xi * x) * (1j * xi * c + omega * s)
        out += sign * val
    return out / denom


def fourier_image_energy(f: FunctionRep, n_xi: int) -> float:
    """int_{-1}^{1} |f_hat(xi)|^2 d xi by direct transform evaluation.

    Each basis transform of the trig series is evaluated in closed form and
    the coefficient sum is compensated (math.fsum); the small transform values
    are resolved before squaring.  A zero coefficient adds nothing to the
    exact sum, so its transform is skipped.
    """
    if f.domain != Interval(-1.0, 1.0):
        raise InvalidArgumentError("image energy is defined for functions on [-1, 1]")
    if f.kind not in (FunctionKind.SINE_SERIES, FunctionKind.COSINE_SERIES):
        raise InvalidArgumentError("image energy is defined for trig series only")
    xi_grid = make_grid(Interval(-1.0, 1.0), n_xi)
    xi = xi_grid.nodes
    is_sine = f.kind is FunctionKind.SINE_SERIES
    omegas, p = trig_freqs(len(f.payload), f.domain)
    terms = [c * _trig_transform(omega, -omega * p, xi, f.domain.a, f.domain.b, is_sine)
             for c, omega in zip(f.payload, omegas) if c != 0.0]
    fhat = np.array([
        complex(math.fsum(t[i].real for t in terms),
                math.fsum(t[i].imag for t in terms))
        for i in range(len(xi))
    ])
    return float(np.dot(xi_grid.weights, np.abs(fhat) ** 2))
