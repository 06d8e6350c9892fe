"""One operator at one resolution, with each pipeline layer built once.

A Problem pairs a T*T composition with the one differential operator that
commutes with it (Bertero-Grunbaum for Laplace, prolate for Fourier, and for
the adjoint Laplace composition the weighted fourth-order operator in the
sign variant of its proof, SignVariant.AS_PROOF_BOUND) and fixes the
resolution policy: the quadrature grid, the Galerkin trial sizes (N, and
N/2 clamped to [32, 64] for the fourth-order operator) and the number of
matched modes, with their defaults.  The CLI and the acceptance suite read
every layer from here, and run the theorem's seeded ensemble through
`verify`, so each of these decisions is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .diff_ops import (GalerkinOperator, SignVariant, assemble_bertero_grunbaum,
                       assemble_fourth_order, assemble_prolate)
from .domains import QuadGrid, make_grid
from .errors import InvalidArgumentError
from .integral_ops import (FOURIER, LAPLACE, LAPLACE_ADJOINT, OperatorKind,
                           OperatorMatrix, gram_matrix)
from .spectral import MatchReport, converged_mode_count, match_eigenfunctions
from .stability import (EXPONENTIAL, POWER_OF_RATIO, StabilityFit, SweepData,
                        fit_constants_from_sweep, make_rng, random_exp_poly,
                        random_sine_series, sweep_from_report, verify_theorem)


@dataclass(eq=False)
class Problem:
    """An operator kind with grid size n, trial size N and mode count m.

    n is the total node count; on the half line it is split over the panels.
    Each layer is a cached property, built on first use and shared after.
    """

    kind: OperatorKind
    n: int = 256
    N: int = 128
    m: int = 12

    @cached_property
    def grid(self) -> QuadGrid:
        kind = self.kind
        if kind.tag == LAPLACE_ADJOINT:
            return make_grid(kind.half, max(16, self.n // kind.half.panel_count))
        return make_grid(kind.input_domain, self.n)

    @cached_property
    def matrix(self) -> OperatorMatrix:
        return gram_matrix(self.kind, self.grid)

    @cached_property
    def diff(self) -> GalerkinOperator:
        kind = self.kind
        if kind.tag == LAPLACE:
            return assemble_bertero_grunbaum(kind.source, self.N)
        if kind.tag == FOURIER:
            return assemble_prolate(self.N)
        if kind.tag == LAPLACE_ADJOINT:
            return assemble_fourth_order(kind.source, kind.half, min(max(self.N // 2, 32), 64),
                                         SignVariant.AS_PROOF_BOUND)
        raise InvalidArgumentError(
            f"{kind.to_string()}: no commuting differential operator for this kind")

    @cached_property
    def converged(self) -> int:
        return converged_mode_count(self.diff)

    @cached_property
    def report(self) -> MatchReport:
        """Match of the min(m, converged) leading modes against T*T."""
        # the fourth-order operator's spectrum is unstable below 4 converged modes
        if self.converged < (4 if self.kind.tag == LAPLACE_ADJOINT else 1):
            raise InvalidArgumentError(
                f"{self.kind.to_string()}: too few converged Galerkin modes at N={self.diff.size}")
        return match_eigenfunctions(self.matrix, self.diff, min(self.m, self.converged),
                                    converged=self.converged)

    @cached_property
    def sweep(self) -> SweepData:
        return sweep_from_report(self.matrix, self.diff, self.report)

    @property
    def fit_form(self) -> str:
        # Theorem 3 (Fourier) bounds by a power of the ratio, 1 and 2 exponentially.
        return POWER_OF_RATIO if self.kind.tag == FOURIER else EXPONENTIAL

    @cached_property
    def fit(self) -> StabilityFit:
        return fit_constants_from_sweep(self.sweep, self.fit_form)

    def verify(self, count: int, seed: int) -> list:
        """The stability theorem's records, against `fit`, over count random
        functions from seed: p(t) e^{-rt} for the adjoint, else sine series."""
        rng = make_rng(seed)
        ensemble = (random_exp_poly(count, rng) if self.kind.tag == LAPLACE_ADJOINT
                    else random_sine_series(self.kind.input_domain, count, rng))
        return verify_theorem(self.matrix, self.fit, ensemble)
