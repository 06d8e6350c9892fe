"""One operator at one resolution, with each pipeline layer built once.

A Problem pairs a T*T composition with the differential operator that
commutes with it, as the kind's record names it, and fixes the resolution
policy: the quadrature grid, the Galerkin trial size N and the number of
matched modes, with their defaults and their ranges, and the size of the
theorem's seeded ensemble.  The CLI and the acceptance suite read every
layer from here, and run that ensemble through `verify`, so each of these
decisions is written once.
"""

from __future__ import annotations

from functools import cached_property

from .diff_ops import MIN_TRIAL, GalerkinOperator
from .domains import QuadGrid, make_grid
from .errors import InvalidArgumentError, check_integer
from .integral_ops import MAX_GRID_SIZE, OperatorKind, OperatorMatrix, gram_matrix
from .spectral import MatchReport, converged_mode_count, match_eigenfunctions
from .stability import (StabilityFit, SweepData, fit_constants_from_sweep, make_rng,
                        random_exp_poly, random_sine_series, sweep_from_report,
                        verify_theorem)

# Largest Galerkin trial size N.
MAX_TRIAL = 512
# Functions in the theorem's seeded ensemble: verify's default count and criterion 11's.
ENSEMBLE_SIZE = 500
# The seed of verify and of the acceptance suite when none is given.
DEFAULT_SEED = 0xC0FFEE


class Problem:
    """An operator kind with grid size n, trial size N and mode count m.

    n is the total node count; on the half line it is split over the panels.
    The sizes are integers, and their ranges are checked here, once: n in
    [1, MAX_GRID_SIZE], N in [MIN_TRIAL, MAX_TRIAL] (diff_ops' floor) and
    m >= 1.  The class attributes n, N and m are the defaults.  Each layer
    is a cached property, built on first use and shared after.
    """

    n = 256
    N = 128
    m = 12

    def __init__(self, kind: OperatorKind, n: int = n, N: int = N, m: int = m):
        for name, value in (("n", n), ("N", N), ("m", m)):
            check_integer(value, name)
        if not 1 <= n <= MAX_GRID_SIZE:
            raise InvalidArgumentError(f"n must be in [1, {MAX_GRID_SIZE}], the grid-size cap")
        if not MIN_TRIAL <= N <= MAX_TRIAL:
            raise InvalidArgumentError(f"N must be in [{MIN_TRIAL}, {MAX_TRIAL}]")
        if m < 1:
            raise InvalidArgumentError("m must be a positive integer")
        self.kind, self.n, self.N, self.m = kind, n, N, m

    @cached_property
    def grid(self) -> QuadGrid:
        half = self.kind.half
        if half is not None:
            return make_grid(half, max(16, self.n // half.panel_count))
        return make_grid(self.kind.input_domain, self.n)

    @cached_property
    def matrix(self) -> OperatorMatrix:
        return gram_matrix(self.kind, self.grid)

    @cached_property
    def diff(self) -> GalerkinOperator:
        assemble = self.kind.record.diff
        if assemble is None:
            raise InvalidArgumentError(
                f"{self.kind.to_string()}: no commuting differential operator for this kind")
        return assemble(self.kind, self.N)

    @cached_property
    def converged(self) -> int:
        return converged_mode_count(self.diff)

    @cached_property
    def report(self) -> MatchReport:
        """Match of the min(m, converged) leading modes against T*T."""
        if self.converged < self.kind.record.min_converged:
            raise InvalidArgumentError(
                f"{self.kind.to_string()}: too few converged Galerkin modes at N={self.diff.size}")
        return match_eigenfunctions(self.matrix, self.diff, min(self.m, self.converged),
                                    converged=self.converged)

    @cached_property
    def sweep(self) -> SweepData:
        return sweep_from_report(self.matrix, self.diff, self.report)

    @cached_property
    def fit(self) -> StabilityFit:
        return fit_constants_from_sweep(self.sweep, self.kind.record.fit_form)

    def verify(self, count: int, seed: int) -> list:
        """The stability theorem's records, against `fit`, over count >= 1
        random functions from seed: p(t) e^{-rt} on a half line, else sine
        series.  The seed and the integer count are checked before the fit is
        built."""
        rng = make_rng(seed)
        check_integer(count, "count")
        if count < 1:
            raise InvalidArgumentError("count must be a positive integer")
        ensemble = (random_exp_poly(count, rng) if self.kind.half is not None
                    else random_sine_series(self.kind.input_domain, count, rng))
        return verify_theorem(self.matrix, self.fit, ensemble)
