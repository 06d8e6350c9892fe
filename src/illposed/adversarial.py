"""Worst-case synthesis: Gramian minimization and figure reproduction.

The smallest eigenpair of G_ij = <T phi_i, T phi_j> over an orthonormal
basis yields the unit-norm combination the operator damps the most; its
eigenvalue is the achieved ratio ||T f||^2 / ||f||^2.  The three built-in
figure functions reproduce the published near-invisible examples with their
printed coefficients.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .diff_ops import largest_entry_positive
from .domains import Interval
from .errors import InvalidArgumentError
from .functions import FunctionKind, FunctionRep, _series_norm, check_orthonormal
from .integral_ops import (OperatorKind, OperatorMatrix, fourier_image_energy,
                           quadratic_form, resolved_count)


class GramianReport(NamedTuple):
    operator: str
    domain: Interval
    min_eigenvalue: float
    # Coefficients a_k of the minimizer over the sine family, k = 1..size.
    minimizer_coefficients: np.ndarray
    # min_eigenvalue < SVD_FLOOR * (top eigenvalue): below what the SVD resolves
    below_floor: bool

    def to_json(self) -> dict:
        return {
            "operator": self.operator,
            "basis": {"family": FunctionKind.SINE_SERIES.value,
                      "size": len(self.minimizer_coefficients),
                      "domain": [self.domain.a, self.domain.b]},
            "min_eigenvalue": self.min_eigenvalue,
            "below_floor": self.below_floor,
            "minimizer": list(self.minimizer_coefficients),
        }


def build_gramian(M: OperatorMatrix, size: int) -> GramianReport:
    """Smallest eigenpair of the Gramian G = (AV)^T AV of the images under
    M's half factor A of the sine family sqrt(2/L) sin(k pi (x-a)/L),
    k = 1..size, on M's grid over [a, a+L].

    The family is read as the grid's basis table, which check_orthonormal,
    the one reader of the size, must find orthonormal on the grid.  The
    eigenpair comes from an SVD of AV, without forming G, so min eigenvalues
    far below eps*||G|| are still resolved accurately, down to SVD_FLOOR
    times the top eigenvalue; below_floor flags a minimum under that floor.
    A factor of fewer rows than the basis has functions reads its missing
    rows as zeros, as decompose_operator pads mu: the Gramian is singular,
    and its minimum is below the floor.
    """
    grid = M.grid
    domain = grid.domain
    if not isinstance(domain, Interval):
        raise InvalidArgumentError("adversarial synthesis needs an interval domain")
    table = check_orthonormal(FunctionKind.SINE_SERIES, size, grid)
    V = np.sqrt(2.0 / domain.length) * table
    AV = M.image(V)
    if len(AV) < size:
        AV = np.vstack((AV, np.zeros((size - len(AV), size))))
    _, s, Vt = np.linalg.svd(AV, full_matrices=False)
    vec = largest_entry_positive(Vt[-1:].T)[:, 0]
    return GramianReport(M.kind.to_string(), domain, float(s[-1] ** 2), vec,
                         resolved_count(s ** 2) < size)


def worst_function(report: GramianReport) -> FunctionRep:
    """The minimizing combination sum_k a_k sqrt(2/L) sin(k pi (x-a)/L) as one sine series."""
    scale = np.sqrt(2.0 / report.domain.length)
    return FunctionRep(FunctionKind.SINE_SERIES, scale * report.minimizer_coefficients,
                       report.domain)


# ----------------------------------------------------------------------------
# Figure reproduction
# ----------------------------------------------------------------------------

class FigureId(Enum):
    FIG1 = 1
    FIG2 = 2
    FIG3 = 3


class FigureSpec(NamedTuple):
    coefficients: tuple
    basis_kind: FunctionKind
    first_mode: int          # lowest raw frequency k carrying a coefficient
    operator: OperatorKind
    claimed_ratio: float
    pass_factor: float

    def function(self) -> FunctionRep:
        """The printed series sum_k c_k trig(k pi x) on its domain [p, p+L],
        as the standard series of that domain: for integer p and L,
        trig(k pi x) = (-1)^(kp) trig(kL pi (x-p)/L), so index k moves to kL
        with sign (-1)^(kp)."""
        domain = self.operator.input_domain
        p, L = int(domain.a), int(domain.length)
        k = np.arange(self.first_mode, self.first_mode + len(self.coefficients))
        payload = np.zeros(k[-1] * L)
        payload[k * L - 1] = (-1.0) ** (k * p) * np.array(self.coefficients)
        return FunctionRep(self.basis_kind, payload, domain)


# Printed plot coefficients, raw sin(k pi x) / cos(k pi x) bases: [0, 1]
# keeps k, [1, 2] keeps k with sign (-1)^k, [-1, 1] maps k to 2k with sign (-1)^k.
FIGURES = {
    FigureId.FIG1: FigureSpec(
        (-0.15269, 0.4830, 0.3084, 0.80509),
        FunctionKind.SINE_SERIES, 2,
        OperatorKind.hilbert_truncated(Interval(0.0, 1.0), Interval(2.0, 3.0)),
        1e-7, 30.0,
    ),
    FigureId.FIG2: FigureSpec(
        (-0.0707, -0.421, 0.2137, 0.8783),
        FunctionKind.SINE_SERIES, 1,
        OperatorKind.laplace_tt(Interval(1.0, 2.0)),
        1e-8, 30.0,
    ),
    FigureId.FIG3: FigureSpec(
        (0.00055, 0.0824, 0.6196, 0.7805),
        FunctionKind.COSINE_SERIES, 1,
        OperatorKind.fourier_tt(),
        1e-18, 100.0,
    ),
}


def reproduce_figure(figure_id: FigureId, problem) -> dict:
    """Recompute ||T f||^2 / ||f||^2 for a built-in figure function on the
    caller's `problem.Problem`, whose kind must be the figure's operator and
    whose grid must resolve the function's series basis: the caller decides
    the size n, and shares the problem's layers with its other readers."""
    try:
        figure_id = FigureId(figure_id)
    except ValueError as exc:
        raise InvalidArgumentError(f"unknown figure id: {figure_id!r}") from exc
    spec = FIGURES[figure_id]
    if problem.kind != spec.operator:
        raise InvalidArgumentError(f"figure {figure_id.value} is read on "
                                   f"{spec.operator.to_string()}, not {problem.kind.to_string()}")
    f = spec.function()
    check_orthonormal(f.kind, len(f.payload), problem.grid)
    if figure_id is FigureId.FIG3:
        # Cancellation-limited regime: closed-form basis transforms with
        # compensated summation, then integrate |f_hat|^2.
        image = fourier_image_energy(f, n_xi=problem.n)
    else:
        image = quadratic_form(problem.matrix, f)
    ratio = image / _series_norm(f.kind, f.payload, 0, problem.grid) ** 2
    ok = spec.claimed_ratio / spec.pass_factor <= ratio <= spec.claimed_ratio * spec.pass_factor
    return {
        "figure": figure_id.value,
        "operator": spec.operator.to_string(),
        "computed_ratio": ratio,
        "claimed_ratio": spec.claimed_ratio,
        "pass": bool(ok),
    }
