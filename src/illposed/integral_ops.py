"""Truncated integral operators and their self-adjoint compositions.

Each operator kind is discretized by a rectangular "half factor" A alone:
A^T A is the symmetrized kernel matrix M = W^{1/2} K W^{1/2} up to quadrature
error (for Laplace, up to a Schur complement below the floor), and M itself
is never formed.  Quadratic forms are evaluated as ||A v||^2: the image
values A v are small numbers computed before squaring, which keeps relative
accuracy even when ||T f||^2 is ~1e-18 ||f||^2 (the figure-3 regime), and
singular values of A resolve spectral decay far below the eigensolver floor
of M itself.  The factor is checked against the trace of M, the sum of the
kernel's diagonal in closed form.

There is one way into the factor and one way out.  Each kind's record
names its factor, the kind's one engine: (kind, grid, trace) -> (A, its
singular values[, image_refinement[, certified]]).  gram_matrix checks the
grid, gates its trace and makes that one call.  OperatorMatrix.image, A (sqrt(w) v) for
one function's values or one per column, is how quadratic_form, the
adversarial Gramian and the ensemble verifier read images;
match_eigenfunctions, which also applies A^T, is the one other reader of A.

Every kind also has trace(T*T) in closed form, and a grid whose own trace
misses it by more than FACTOR_RTOL is refused before anything is factored:
ln(b/a)/2 for both Laplace kinds, 4 for Fourier, and
log1p((b - a)(d - c)/((c - b)(d - a)))/pi^2 for Hilbert from I = [a, b] into
J = [c, d].  The gate is necessary, not sufficient: it checks the input grid's
quadrature of the diagonal, and hilbert:I=0,1:J=1.001,1.101 passes it at
n = 256 (gap 1.1e-14) while its modes past 15 are wrong.

Laplace T*T has the Cauchy kernel 1/(s + t), so its M is a symmetric Cauchy
matrix and needs no image-side rule: its factor, _pivoted_half_factor,
calls cauchy_factor, which takes the pivoted LDL^T from the generators
sqrt(w) and the nodes, one O(n) step per mode, and stops when the Schur
complement left holds less than eps SVD_FLOOR times the first pivot.

Every resolution check is one rule, certify(coarse, fine, tol): the leading
modes whose two resolutions differ by at most tol, and the largest miss in
units of tol.  A Cauchy factor certifies its resolved modes against the
factor on the Gauss grid of 2n nodes at CONVERGENCE_RTOL relative, the
tolerance of every Galerkin operator's N against 2N, and keeps the count
as OperatorMatrix.certified: the trace check cannot see a mode that the
grid misses, and [1, 2] at n = 16 prints its mode 14 17% low.

Every other kind's factor is _refined_half_factor, which samples the kernel
on an image-side rule sized to the kernel, not to the grid: the spectra
decay (super-)exponentially, so a few dozen image nodes resolve every mode
above SVD_FLOOR whatever n is.  It doubles the rule from FIRST_IMAGE_NODES
to IMAGE_CAP, one cap for every kind, and reads each rung's trace gap
first; a rung's SVD is taken only when its gap is within FACTOR_RTOL.  A
rung is accepted when the rung before it was decomposed too, both resolve
the same modes, and certify's worst move of a resolved mu_n is at most
REFINEMENT_SLACK, in units of the SVD perturbation bound
2 eps sqrt(mu_1/mu_n).  No rung is accepted on its trace check alone: an
input that no rung up to the cap confirms is refused, and one that no rung
passes takes no SVD.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .diff_ops import (SignVariant, _read_only, assemble_bertero_grunbaum,
                       assemble_fourth_order, assemble_prolate)
from .domains import (HalfLineDomain, Interval, QuadGrid, check_laplace_interval,
                      half_line_for, make_grid, shortest)
from .errors import Frozen, InvalidArgumentError
from .functions import (FunctionKind, FunctionLike, FunctionRep, check_domain, grid_values,
                        trig_freqs)

# Largest grid size n: the largest ladder rung is IMAGE_CAP x n (twice that for Fourier).
MAX_GRID_SIZE = 1024
# Largest relative gap allowed between ||A||_F^2 and trace(M).
FACTOR_RTOL = 1e-12

# Modes below SVD_FLOOR * mu_1 are not resolved: the SVD of the half factor
# resolves sigma_n/sigma_1 down to ~1e-14, i.e. mu ratios to ~1e-28.
SVD_FLOOR = 1e-28

# Every refinement starts from this many image nodes (each xi node gives
# Fourier two rows): 9-14 modes resolve for the default operators, and
# factors of 32-64 rows already agree on them.
FIRST_IMAGE_NODES = 16

# Every ladder doubles its rule up to this many image nodes, twice
# MAX_GRID_SIZE; an input that no rule up to it confirms is refused.
IMAGE_CAP = 2048

# A refined half factor is accepted when every resolved mu_n agrees with the
# factor on half as many image nodes to this many SVD perturbation bounds.
REFINEMENT_SLACK = 4.0

# Two resolutions of a mode agree to this relative tolerance: a Cauchy
# factor's n against 2n, and a Galerkin operator's N against 2N.
CONVERGENCE_RTOL = 1e-8

HILBERT = "hilbert"
LAPLACE = "laplace"
LAPLACE_ADJOINT = "laplace-adjoint"
FOURIER = "fourier"

EXPONENTIAL = "exponential"
POWER_OF_RATIO = "power-of-ratio"

_SYM = Interval(-1.0, 1.0)


class OperatorKind(Frozen):
    """Which T*T composition (or truncated Hilbert transform) to assemble.
    Everything that differs between kinds is read from the kind's record.
    Kinds with equal fields are equal, with equal hashes."""

    __slots__ = ("tag", "source", "target")

    def __init__(self, tag: str, source: Interval, target: Optional[Interval] = None):
        if tag not in _KINDS:
            raise InvalidArgumentError(f"unknown operator tag: {tag}")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        self.record.check(self)

    def __eq__(self, other):
        if other.__class__ is not OperatorKind:
            return NotImplemented
        return (self.tag, self.source, self.target) == (other.tag, other.source, other.target)

    def __hash__(self):
        return hash((self.tag, self.source, self.target))

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
        return OperatorKind(FOURIER, _SYM)

    @property
    def record(self) -> "KindRecord":
        return _KINDS[self.tag]

    @property
    def half(self) -> Optional[HalfLineDomain]:
        """The truncated half line the inputs live on; None when they live on source."""
        return half_line_for(self.source) if self.record.half else None

    @property
    def input_domain(self):
        """Domain of the functions the quadratic form acts on."""
        return self.half if self.record.half else self.source

    def to_string(self) -> str:
        ends = [e for iv in (self.source, self.target) if iv is not None for e in (iv.a, iv.b)]
        return ":".join((self.tag,) + self.record.keys).format(*map(shortest, ends))


def _fields(parts) -> dict:
    """Each key's values, as text: a comma separates pairs or continues a value list."""
    kv, key = {}, None
    for part in parts:
        for token in part.split(","):
            if "=" in token:
                key, _, val = token.partition("=")
                if key in kv:
                    raise ValueError(f"repeated key {key!r}")
                kv[key] = [val]
            elif key is not None:
                kv[key].append(token)
            else:
                raise ValueError("value without a key")
    return kv


def parse_operator(text: str) -> OperatorKind:
    """Parse CLI operator strings.

    Grammar: "hilbert:I=0,1:J=2,3", "laplace:a=1,b=2",
    "laplace-adjoint:a=1,b=2", "fourier".  Every key of the kind's record
    must appear once, with its number of values, and no other key may
    appear.  The values in key order are source's endpoints, then target's;
    a kind without keys acts on [-1, 1].
    """
    tag, *parts = text.strip().split(":")
    if tag not in _KINDS:
        raise InvalidArgumentError(f"unknown operator: {text!r}")
    try:
        kv = {k: [float(v) for v in vals] for k, vals in _fields(parts).items()}
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed operator string: {text!r}") from exc
    keys = {k: len(v) for k, v in _fields(_KINDS[tag].keys).items()}
    if {k: len(v) for k, v in kv.items()} != keys:
        raise InvalidArgumentError(
            f"malformed operator string: {text!r} (keys for {tag}: "
            f"{', '.join(keys) or 'none'})")
    ends = [v for k in keys for v in kv[k]]
    intervals = [Interval(*ends[i:i + 2]) for i in range(0, len(ends), 2)]
    return OperatorKind(tag, *(intervals or [_SYM]))


# ----------------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------------

def _adjoint_kernel(u, a: float, b: float):
    """(e^{-au} - e^{-bu})/u for u > 0, as -e^{-au} expm1(-(b-a)u)/u: the
    difference is never formed, so no u and no gap b-a cancels."""
    u = np.asarray(u, dtype=float)
    return -np.exp(-a * u) * np.expm1(-(b - a) * u) / u


def _exp_rows(t, x):
    """e^{-tx}, computed in one array."""
    rows = np.outer(t, x)
    np.negative(rows, out=rows)
    return np.exp(rows, out=rows)


def _trig_rows(t, x):
    """cos(tx) and sin(tx), the parts of e^{itx}: two rows per image node."""
    phase = np.outer(t, x)
    return np.vstack([np.cos(phase), np.sin(phase)])


def _check_hilbert(kind: OperatorKind) -> None:
    if kind.target is None:
        raise InvalidArgumentError("hilbert operator needs both intervals")
    if kind.source.overlaps(kind.target):
        raise InvalidArgumentError("hilbert intervals must be disjoint closed intervals")


def _check_fourier(kind: OperatorKind) -> None:
    if kind.source != _SYM:
        raise InvalidArgumentError("Fourier composition is defined on [-1, 1]")


def _log_ratio(ab: Interval) -> float:
    """ln(b/a) for 0 < a < b, as log1p((b - a)/a) while that ratio is finite:
    b - a is exact when b is near a, so nothing cancels; past the float range
    the ratio is large and ln b - ln a cannot cancel either."""
    r = (ab.b - ab.a) / ab.a
    return math.log1p(r) if math.isfinite(r) else math.log(ab.b) - math.log(ab.a)


def _laplace_trace(kind: OperatorKind) -> float:
    """ln(b/a)/2: trace of Laplace T*T on [a, b], and of its adjoint TT* on the
    half line (Frullani); truncating at 40/a drops less than e^-80 of it."""
    return _log_ratio(kind.source) / 2.0


def _hilbert_trace(kind: OperatorKind) -> float:
    """int_I (1/(c - x) - 1/(d - x)) dx / pi^2 for J = [c, d], which is
    log1p(|I| |J| / (gap span)) / pi^2, gap the distance between I and J and
    span the length of their hull: the same form with J on either side of I,
    every length a difference of two endpoints, so nothing cancels."""
    I, J = kind.source, kind.target
    gap = max(J.a - I.b, I.a - J.b)
    span = max(I.b, J.b) - min(I.a, J.a)
    return math.log1p(I.length / span * (J.length / gap)) / math.pi ** 2


def cauchy_factor(x: np.ndarray, w: np.ndarray) -> tuple:
    """Pivoted LDL^T of the Cauchy matrix M = sqrt(w_i) sqrt(w_j) / (x_i + x_j),
    x > 0: (G, trace(S)) with M = G^T G + S exactly, S the Schur complement
    left, which is positive semidefinite.

    M is Cauchy-like with generators u = sqrt(w): its diagonal is
    u_i^2 / (2 x_i), and eliminating node k leaves a Cauchy-like complement
    with u_i <- u_i (x_i - x_k) / (x_i + x_k), so each step costs O(n) and
    subtracts no two entries.  Each step takes the largest remaining diagonal
    as its pivot, which is complete pivoting for M, and emits the row
    u_i u_k / (x_i + x_k) / sqrt(pivot).  It stops when trace(S) is at most
    eps SVD_FLOOR times the first pivot: every mode left is below the floor.
    Demmel, SIAM J. Matrix Anal. Appl. 21 (1999).

    The generators are carried as v = u / sqrt(2x), so that the diagonal is
    v^2 and the row is v_i sqrt(x_i) 2 sqrt(x_k) sign(v_k) / (x_i + x_k).
    Every quantity is then scale-free: scaling x and w by 4^k changes no bit,
    and no deep pivot underflows however small the interval is (u_i^2 would
    at a ~ 2^-1000).
    """
    v, r = np.sqrt(w / (2.0 * x)), np.sqrt(x)
    d = v * v
    stop = np.finfo(float).eps * SVD_FLOOR * float(np.max(d))
    rows = []
    while (rest := float(np.sum(d))) > stop:
        k = int(np.argmax(d))
        s = x + x[k]
        rows.append(v * r * (math.copysign(2.0 * r[k], v[k]) / s))
        v = v * ((x - x[k]) / s)
        d = v * v
    return np.array(rows).reshape(len(rows), len(x)), rest


class KindRecord(NamedTuple):
    """Every decision that differs between operator kinds, one field each."""

    keys: tuple  # the name's fields after the tag, "{}" per endpoint of source, then target
    check: Callable  # kind -> raises InvalidArgumentError on an input the kind refuses
    diagonal: Callable  # (kind, x) -> K(x, x), whose weighted sum is trace(M)
    trace: Callable  # kind -> trace(T*T) in closed form, the grid's gate
    # (kind, grid, trace) -> (A, its singular values[, image_refinement[, certified]]):
    # the kind's one engine
    factor: Callable
    image_side: Optional[Callable] = None  # kind -> the domain of the ladder's image-side rule
    rows: Optional[Callable] = None  # (image nodes t, input nodes x) -> the ladder's kernel rows
    half: bool = False  # the inputs live on half_line_for(source), not on source
    diff: Optional[Callable] = None  # (kind, N) -> commuting operator at its trial size
    min_converged: int = 1  # converged Galerkin modes a match needs
    fit_form: str = EXPONENTIAL  # the stability theorem's form
    ratio_orders: tuple = (0, 1)  # derivative orders the oscillation ratio reads


# ----------------------------------------------------------------------------
# Operator matrices
# ----------------------------------------------------------------------------

class OperatorMatrix(Frozen):
    """T*T on a quadrature grid, held as its half factor A: A^T A is the
    symmetrized kernel matrix M, which is never formed.  singular_values are
    A's, descending; both arrays are kept read-only.

    image_refinement is the largest move of a resolved mu_n between A and the
    factor on half as many image nodes, in units of the SVD perturbation
    bound 2 eps sqrt(mu_1/mu_n): at most REFINEMENT_SLACK for every ladder
    factor, and None only for a Cauchy factor, which has no image rule.
    certified is the number of leading resolved modes that the factor on 2n
    nodes confirms to CONVERGENCE_RTOL; None for a ladder factor, which
    certifies no single mode.
    """

    __slots__ = ("grid", "kind", "half_factor", "singular_values", "image_refinement", "certified")

    def __init__(self, grid: QuadGrid, kind: OperatorKind, half_factor: np.ndarray,
                 singular_values: np.ndarray, image_refinement: Optional[float] = None,
                 certified: Optional[int] = None):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "half_factor", _read_only(half_factor))
        object.__setattr__(self, "singular_values", _read_only(singular_values))
        object.__setattr__(self, "image_refinement", image_refinement)
        object.__setattr__(self, "certified", certified)

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def image_nodes(self) -> int:
        """Rows of the half factor: image-side quadrature nodes (2 per xi for
        Fourier), or the pivots of a Cauchy factor."""
        return self.half_factor.shape[0]

    def image(self, values: np.ndarray) -> np.ndarray:
        """A (sqrt(w) v): the image of a function from its values v at the
        grid's nodes, or of one function per column of v, whose squared norm
        is ||T f||^2.  Every quadratic form and Gramian reads it."""
        root_w = np.sqrt(self.grid.weights)
        return self.half_factor @ ((root_w[:, None] if np.ndim(values) == 2 else root_w) * values)


def resolved_count(mu: np.ndarray) -> int:
    """Number of mu_n above SVD_FLOOR * mu_1, for descending mu: the one floor rule."""
    return int(np.count_nonzero(mu > SVD_FLOOR * mu[0]))


def certify(coarse: np.ndarray, fine: np.ndarray, tol) -> tuple:
    """The one resolution rule, for one spectrum at two resolutions:
    (count, worst).  count is the number of leading modes with
    |coarse - fine| <= tol, worst the largest |coarse - fine| / tol over
    every mode compared, 0 when there is none."""
    miss = np.abs(coarse - fine)  # argmin finds the first miss
    return int(np.argmin(np.append(miss <= tol, False))), float(np.max(miss / tol, initial=0.0))


def _half_factor(kind: OperatorKind, grid: QuadGrid, r: int) -> np.ndarray:
    """A with A^T A = M: rows sample an image-side rule of size r, each
    weighted by its node, weighted in place in the kernel rows' own array."""
    out = make_grid(kind.record.image_side(kind), r)
    A = kind.record.rows(out.nodes, grid.nodes)
    A *= np.sqrt(np.tile(out.weights, len(A) // out.size))[:, None]
    A *= np.sqrt(grid.weights)
    return A


def _trace_gap(total: float, trace: float) -> float:
    """Relative gap between total, such as ||A||_F^2 = sum mu_n, and the
    kernel's trace; inf at trace 0."""
    return abs(total - trace) / trace if trace else math.inf


def _trace_refusal(what: str, grid: QuadGrid, gap: float) -> InvalidArgumentError:
    return InvalidArgumentError(
        f"{what} at n = {grid.size}: relative trace gap {gap:.3g} > {FACTOR_RTOL:g}")


def _factor_refusal(kind: OperatorKind, grid: QuadGrid, gap: float) -> InvalidArgumentError:
    """The refusal of every half factor, ladder or exact, whose ||A||_F^2 misses
    the kernel matrix's trace."""
    return _trace_refusal(f"half factor of {kind.to_string()} disagrees with its kernel matrix",
                          grid, gap)


def _refinement(mu_coarse: np.ndarray, mu_fine: np.ndarray) -> float:
    """Largest relative move of a resolved mode, in units of the SVD
    perturbation bound 2 eps sqrt(mu_1/mu_n); inf when the two spectra
    resolve different numbers of modes, or none."""
    k = resolved_count(mu_fine)
    if k == 0 or k != resolved_count(mu_coarse):
        return math.inf
    mu = mu_fine[:k]
    return certify(mu_coarse[:k], mu, mu * (2.0 * np.finfo(float).eps * np.sqrt(mu[0] / mu)))[1]


def _refined_half_factor(kind: OperatorKind, grid: QuadGrid, trace: float):
    """Half factor on the smallest image-side rule that refinement confirms:
    (A, its singular values, its refinement).

    Rules double from FIRST_IMAGE_NODES to IMAGE_CAP, and each rule's trace
    gap is read first: a rule's SVD is taken only when its gap is within
    FACTOR_RTOL, and a rule that fails it is never decomposed.  A rule is
    accepted when the rule before it was decomposed too and no resolved mu_n
    moved by more than REFINEMENT_SLACK bounds, with the same modes resolved.
    When no rule up to the cap is accepted, InvalidArgumentError gives the
    cap's trace gap if no rule passed its trace check, and otherwise says why
    the last decomposed rule was not accepted: its move, the two rules'
    resolved mode counts when they differ, or that the rule before it failed
    its trace check.
    """
    mu_coarse, last = None, None
    r = FIRST_IMAGE_NODES
    while r <= IMAGE_CAP:
        A = _half_factor(kind, grid, r)
        gap = _trace_gap(float(np.vdot(A, A)), trace)
        mu = None
        if gap <= FACTOR_RTOL:
            s = np.linalg.svd(A, compute_uv=False)
            mu = s ** 2
            move = math.inf if mu_coarse is None else _refinement(mu_coarse, mu)
            if move <= REFINEMENT_SLACK:
                return A, s, move
            last = r, move, mu_coarse, mu
        mu_coarse, r = mu, 2 * r
    if last is None:
        raise _factor_refusal(kind, grid, gap)
    raise InvalidArgumentError(f"half factor of {kind.to_string()} is not confirmed by "
                               f"refinement at n = {grid.size}: {_unconfirmed(*last)}")


def _unconfirmed(r: int, move: float, mu_coarse, mu) -> str:
    """Why the rule of r image nodes, with eigenvalues mu, was not accepted
    against mu_coarse, the rule's before it (None when that rule failed its
    trace check)."""
    if math.isfinite(move):
        return (f"last move {move:.3g} bounds > {REFINEMENT_SLACK:g} on rules up to "
                f"{IMAGE_CAP} image nodes")
    if mu_coarse is None:
        return (f"the rule of {r} image nodes is the last one decomposed, and the rule "
                "before it failed its trace check")
    return (f"the rules of {r // 2} and {r} image nodes resolve {resolved_count(mu_coarse)} "
            f"and {resolved_count(mu)} modes")


def _r_singular_values(G: np.ndarray) -> np.ndarray:
    """Singular values of a Cauchy factor G, as those of the k x k R of
    qr(G^T): against 120-digit eigenvalues of the same M they hold every
    resolved mode to a few eps relative (measured, and tested to 1e-14)."""
    return np.linalg.svd(np.linalg.qr(G.T, mode="r"), compute_uv=False)


def _pivoted_half_factor(kind: OperatorKind, grid: QuadGrid, trace: float):
    """The kind's exact factor G of M = G^T G + S: (G, its singular values,
    no image refinement, its certified modes).

    ||G||_F^2 + trace(S) equals trace(M) in exact arithmetic, so its check
    measures rounding alone.  It cannot see a mode that the grid's quadrature
    misses, so the resolved mu_n are certified against the factor on the
    Gauss grid of 2n nodes at CONVERGENCE_RTOL; 2n may pass MAX_GRID_SIZE,
    since each pivot costs O(n).
    """
    G, rest = cauchy_factor(grid.nodes, grid.weights)
    gap = _trace_gap(float(np.vdot(G, G)) + rest, trace)
    if not gap <= FACTOR_RTOL:
        raise _factor_refusal(kind, grid, gap)
    s, fine = _r_singular_values(G), make_grid(grid.domain, 2 * grid.size)
    mu, mu2 = s ** 2, _r_singular_values(cauchy_factor(fine.nodes, fine.weights)[0]) ** 2
    k = resolved_count(mu)  # the factor on 2n nodes has more pivots than this
    return G, s, None, certify(mu[:k], mu2[:k], CONVERGENCE_RTOL * mu2[:k])[0]


# Every kind's record, after the two engines its factor names.
_KINDS = {
    LAPLACE: KindRecord(
        keys=("a={},b={}",), check=lambda k: check_laplace_interval(k.source),
        diagonal=lambda k, x: 1.0 / (2.0 * x), trace=_laplace_trace,
        factor=_pivoted_half_factor, diff=lambda k, N: assemble_bertero_grunbaum(k.source, N)),
    # The fourth-order operator in its proof's sign variant, at N/2 clamped to [32, 64]:
    # its spectrum is unstable below 4 converged modes.  Theorem 2's ratio reads f''.
    LAPLACE_ADJOINT: KindRecord(
        keys=("a={},b={}",), check=lambda k: half_line_for(k.source),
        diagonal=lambda k, x: _adjoint_kernel(2.0 * x, k.source.a, k.source.b),
        trace=_laplace_trace, factor=_refined_half_factor, image_side=lambda k: k.source,
        rows=_exp_rows, half=True, min_converged=4, ratio_orders=(0, 1, 2),
        diff=lambda k, N: assemble_fourth_order(k.source, k.half, min(max(N // 2, 32), 64),
                                                SignVariant.AS_PROOF_BOUND)),
    # Theorem 3 bounds by a power of the ratio.
    FOURIER: KindRecord(
        keys=(), check=_check_fourier, diagonal=lambda k, x: np.full_like(x, 2.0),
        trace=lambda k: 4.0, factor=_refined_half_factor, image_side=lambda k: k.source,
        rows=_trig_rows, diff=lambda k, N: assemble_prolate(N), fit_form=POWER_OF_RATIO),
    # The kernel 1/(t - s) is smooth on J x I, so the image rule lives on J.
    HILBERT: KindRecord(
        keys=("I={},{}", "J={},{}"), check=_check_hilbert,
        diagonal=lambda k, x: (1.0 / (k.target.a - x) - 1.0 / (k.target.b - x)) / math.pi ** 2,
        trace=_hilbert_trace, factor=_refined_half_factor, image_side=lambda k: k.target,
        rows=lambda t, x: (1.0 / np.pi) / (t[:, None] - x[None, :])),
}


@np.errstate(all="ignore")
def gram_matrix(kind: OperatorKind, grid: QuadGrid) -> OperatorMatrix:
    """T*T in the discrete L2 geometry, as its exact factor or its
    refinement-checked half factor.  Kernel values past the float range fail
    a trace check, not a warning."""
    if grid.size > MAX_GRID_SIZE:
        raise InvalidArgumentError(f"grid size capped at n = {MAX_GRID_SIZE}")
    if grid.domain != kind.input_domain:
        raise InvalidArgumentError(
            f"grid domain {grid.domain} does not match operator input {kind.input_domain}")
    # ||A||_F^2 = sum of mu_n must equal the kernel's trace: a half factor whose
    # image-side rule misses the kernel would print a wrong spectrum.  The grid's
    # own quadrature of the trace must match its closed form first.
    record = kind.record
    trace = float(np.dot(grid.weights, record.diagonal(kind, grid.nodes)))
    gap = _trace_gap(trace, record.trace(kind))
    if not gap <= FACTOR_RTOL:
        raise _trace_refusal(f"grid of {kind.to_string()} misses its closed-form trace",
                             grid, gap)
    return OperatorMatrix(grid, kind, *record.factor(kind, grid, trace))


def quadratic_form(M: OperatorMatrix, f: FunctionLike) -> float:
    """||T f||^2 = <T*T f, f>, evaluated through the half factor.

    Computing A v first resolves the image before squaring, which preserves
    relative accuracy deep below the cancellation floor of the plain form
    v^T M v (the demonstrated worst cases sit at ~1e-18 ||f||^2).  f must
    live on M's grid, as for l2_norm.
    """
    check_domain(f, M.grid)
    Av = M.image(grid_values(f, M.grid))
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
