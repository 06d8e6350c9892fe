"""Worst-case synthesis: Gramian minimization and figure reproduction.

The smallest eigenpair of G_ij = <T phi_i, T phi_j> over an orthonormal
basis yields the unit-norm combination the operator damps the most; its
eigenvalue is the achieved ratio ||T f||^2 / ||f||^2.  The three built-in
figure functions reproduce the published near-invisible examples with their
printed coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .domains import Interval
from .errors import InvalidArgumentError
from .functions import FunctionKind, FunctionRep, check_domain, linear_combination
from .integral_ops import OperatorKind, OperatorMatrix, fourier_image_energy, quadratic_form
from .problem import Problem
from .spectral import SVD_FLOOR

ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True)
class GramianReport:
    basis_descriptor: dict
    min_eigenvalue: float
    minimizer_coefficients: np.ndarray = field(repr=False)
    basis: tuple = field(repr=False)
    operator: str
    # min_eigenvalue < SVD_FLOOR * (top eigenvalue): below what the SVD resolves
    below_floor: bool

    def to_json(self) -> dict:
        return {
            "operator": self.operator,
            "basis": self.basis_descriptor,
            "min_eigenvalue": self.min_eigenvalue,
            "below_floor": self.below_floor,
            "minimizer": list(self.minimizer_coefficients),
        }


def build_gramian(M: OperatorMatrix, basis: list[FunctionRep]) -> GramianReport:
    """Smallest eigenpair of the Gramian G = (AV)^T AV of the images under
    M's half factor A of a basis orthonormal on M's grid.

    The eigenpair comes from an SVD of AV, without forming G, so min
    eigenvalues far below eps*||G|| are still resolved accurately, down to
    SVD_FLOOR times the top eigenvalue; below_floor flags a minimum under
    that floor.
    """
    grid = M.grid
    for phi in basis:
        check_domain(phi, grid)
    V = np.column_stack([phi.values(grid.nodes) for phi in basis])
    gram0 = V.T @ (grid.weights[:, None] * V)
    if np.max(np.abs(gram0 - np.eye(len(basis)))) > ORTHONORMALITY_TOL:
        raise InvalidArgumentError("basis is not orthonormal on the grid")
    AV = M.half_factor @ (np.sqrt(grid.weights)[:, None] * V)
    _, s, Vt = np.linalg.svd(AV, full_matrices=False)
    if len(s) < len(basis):
        raise InvalidArgumentError("image matrix is rank deficient for this basis")
    vec = Vt[-1]
    i = np.argmax(np.abs(vec))
    if vec[i] < 0:
        vec = -vec
    first = basis[0]
    descriptor = {"family": first.kind.value, "size": len(basis),
                  "domain": [first.domain.a, first.domain.b]}
    return GramianReport(descriptor, float(s[-1] ** 2),
                         vec, tuple(basis), M.kind.to_string(),
                         bool(s[-1] ** 2 < SVD_FLOOR * s[0] ** 2))


def worst_function(report: GramianReport) -> FunctionRep:
    """The minimizing combination sum_k a_k phi_k as a FunctionRep."""
    return linear_combination(list(report.basis), report.minimizer_coefficients)


# ----------------------------------------------------------------------------
# Figure reproduction
# ----------------------------------------------------------------------------

class FigureId(Enum):
    FIG1 = 1
    FIG2 = 2
    FIG3 = 3


@dataclass(frozen=True)
class FigureSpec:
    figure_id: FigureId
    coefficients: tuple
    basis_kind: FunctionKind
    first_mode: int          # lowest raw frequency k carrying a coefficient
    operator: OperatorKind
    claimed_ratio: float
    pass_factor: float

    def function(self) -> FunctionRep:
        payload = np.zeros(self.first_mode - 1 + len(self.coefficients))
        payload[self.first_mode - 1:] = self.coefficients
        return FunctionRep(self.basis_kind, payload, self.operator.input_domain, raw_x=True)


# Printed plot coefficients, raw sin(k pi x) / cos(k pi x) bases.
FIGURES = {
    FigureId.FIG1: FigureSpec(
        FigureId.FIG1,
        (-0.15269, 0.4830, 0.3084, 0.80509),
        FunctionKind.SINE_SERIES, 2,
        OperatorKind.hilbert_truncated(Interval(0.0, 1.0), Interval(2.0, 3.0)),
        1e-7, 30.0,
    ),
    FigureId.FIG2: FigureSpec(
        FigureId.FIG2,
        (-0.0707, -0.421, 0.2137, 0.8783),
        FunctionKind.SINE_SERIES, 1,
        OperatorKind.laplace_tt(Interval(1.0, 2.0)),
        1e-8, 30.0,
    ),
    FigureId.FIG3: FigureSpec(
        FigureId.FIG3,
        (0.00055, 0.0824, 0.6196, 0.7805),
        FunctionKind.COSINE_SERIES, 1,
        OperatorKind.fourier_tt(),
        1e-18, 100.0,
    ),
}


def reproduce_figure(figure_id: FigureId, n: int = Problem.n) -> dict:
    """Recompute ||T f||^2 / ||f||^2 for a built-in figure function on the
    grid of its operator's Problem at size n."""
    try:
        spec = FIGURES[FigureId(figure_id)]
    except (KeyError, ValueError) as exc:
        raise InvalidArgumentError(f"unknown figure id: {figure_id!r}") from exc
    f = spec.function()
    p = Problem(spec.operator, n)
    grid = p.grid
    norm2 = float(np.dot(grid.weights, f.values(grid.nodes) ** 2))
    if spec.figure_id is FigureId.FIG3:
        # Cancellation-limited regime: closed-form basis transforms with
        # compensated summation, then integrate |f_hat|^2.
        image = fourier_image_energy(f, n_xi=n)
    else:
        image = quadratic_form(p.matrix, f)
    ratio = image / norm2
    ok = spec.claimed_ratio / spec.pass_factor <= ratio <= spec.claimed_ratio * spec.pass_factor
    return {
        "figure": spec.figure_id.value,
        "operator": spec.operator.to_string(),
        "computed_ratio": ratio,
        "claimed_ratio": spec.claimed_ratio,
        "pass": bool(ok),
    }
