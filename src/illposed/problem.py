"""One operator at one resolution, with each pipeline layer built once.

A Problem pairs a T*T composition with the differential operator that
commutes with it (Bertero-Grunbaum for Laplace, the weighted fourth-order
operator for the adjoint Laplace composition, prolate for Fourier) and fixes
the resolution policy: the quadrature grid, the Galerkin trial sizes and the
number of matched modes.  The CLI and the acceptance suite read every layer
from here, so each of these decisions is written once.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional

from .diff_ops import (GalerkinOperator, SignVariant, assemble_bertero_grunbaum,
                       assemble_fourth_order, assemble_prolate)
from .domains import QuadGrid, make_grid
from .errors import InvalidArgumentError
from .integral_ops import (FOURIER, LAPLACE, LAPLACE_ADJOINT, OperatorKind,
                           OperatorMatrix, gram_matrix)
from .spectral import MatchReport, converged_mode_count, match_eigenfunctions
from .stability import (EXPONENTIAL, POWER_OF_RATIO, StabilityFit, SweepData,
                        fit_constants_from_sweep, random_exp_poly,
                        random_sine_series, sweep_from_report)


class Pairing(NamedTuple):
    """The commuting operator, its converged modes, and its match."""

    diff: GalerkinOperator
    converged: int
    report: Optional[MatchReport]


class Problem:
    """An operator kind with grid size n, trial size N and mode count m.

    n is the total node count; on the half line it is split over the panels.
    Each layer is a cached property, built on first use and shared after.
    """

    def __init__(self, kind: OperatorKind, n: int, N: int, m: int):
        self.kind, self.n, self.N, self.m = kind, n, N, m

    @cached_property
    def grid(self) -> QuadGrid:
        kind = self.kind
        if kind.tag == LAPLACE_ADJOINT:
            return make_grid(kind.half, max(16, self.n // kind.half.panel_count))
        return make_grid(kind.input_domain, self.n)

    @cached_property
    def matrix(self) -> OperatorMatrix:
        return gram_matrix(self.kind, self.grid)

    def _pair(self, diff: GalerkinOperator, min_modes: int) -> Pairing:
        conv = converged_mode_count(diff)
        report = None
        if conv >= min_modes:
            report = match_eigenfunctions(self.matrix, diff, min(self.m, conv))
        return Pairing(diff, conv, report)

    @cached_property
    def pairing(self) -> Pairing:
        kind = self.kind
        if kind.tag == LAPLACE:
            best = self._pair(assemble_bertero_grunbaum(kind.source, self.N), 1)
        elif kind.tag == FOURIER:
            best = self._pair(assemble_prolate(self.N), 1)
        elif kind.tag == LAPLACE_ADJOINT:
            # The printed operator and the form of its proof disagree on two
            # signs: keep the variant whose matched block commutes best with
            # this composition.  Variants with < 4 converged modes are unstable.
            N4 = min(max(self.N // 2, 32), 64)
            best = min((self._pair(assemble_fourth_order(kind.source, kind.half, N4, v), 4)
                        for v in SignVariant),
                       key=lambda p: p.report.commutation_residual if p.report else math.inf)
        else:
            raise InvalidArgumentError("no commuting differential operator for this kind")
        if best.report is None:
            raise InvalidArgumentError(
                f"{kind.to_string()}: too few converged Galerkin modes at N={self.N}")
        return best

    @property
    def diff(self) -> GalerkinOperator:
        return self.pairing.diff

    @property
    def converged(self) -> int:
        return self.pairing.converged

    @property
    def report(self) -> MatchReport:
        """Match of the min(m, converged) leading modes against T*T."""
        return self.pairing.report

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

    def ensemble(self, count: int, rng) -> list:
        """The random functions the stability theorem is verified on."""
        if self.kind.tag == LAPLACE_ADJOINT:
            return random_exp_poly(count, rng)
        return random_sine_series(self.kind.input_domain, count, rng)
