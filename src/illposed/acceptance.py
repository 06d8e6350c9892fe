"""The acceptance suite: every release gate as an executable criterion.

Each criterion runs at its stated tolerance and reports pass/fail with the
measured numbers.  `run_acceptance` builds one Problem per operator on
[1, 2] (and on [-1, 1] for Fourier), the `Suite` adds figure 1's Hilbert
Problem, and the criteria share their cached layers, the figures included,
so each operator is factored once and the whole suite stays within the
desk runtime budget.

Known-red criteria (2, 3, 11's fit-form comparison, 12) fail for documented
reasons external to this implementation: the published figure coefficients
do not reproduce their captioned ratios under exact evaluation (verified
against 40-digit quadrature), and the eigenfunction H1 ratios of the
degenerate operators grow like n^1.5 rather than n, which bends the
exponential-in-ratio envelope.  They are implemented exactly as stated and
left red.
"""

from __future__ import annotations

import functools
import math
import time
from typing import NamedTuple

import numpy as np

from .adversarial import FIGURES, FigureId, build_gramian, reproduce_figure
from .domains import Interval
from .errors import REFUSALS, Frozen, InsufficientDataError
from .functions import FunctionKind, FunctionRep, h1_seminorm
from .integral_ops import OperatorKind
from .problem import DEFAULT_SEED, ENSEMBLE_SIZE, Problem
from .spectral import (EXP_DECAY, SUPER_EXP, decompose_operator, fit_decay,
                       fit_line, growth_check)
from .stability import (EXPONENTIAL, error_count, fit_constants_from_sweep,
                        lemma1_constant, make_rng, random_nonnegative_series,
                        random_sine_series, random_trial_mix, verify_lemma1,
                        verify_lemma2, verify_lemma3, violation_count)


class CriterionResult(NamedTuple):
    cid: str
    title: str
    passed: bool
    details: dict
    seconds: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} criterion {self.cid}: {self.title}"

    def to_json(self) -> dict:
        return {"criterion": self.cid, "title": self.title, "pass": self.passed,
                "details": self.details}


class Suite(Frozen):
    """The seed and the operator problems the criteria share: one per
    theorem, and figure 1's Hilbert problem at the Laplace problem's n,
    built on first use."""

    def __init__(self, seed: int, laplace: Problem, fourier: Problem, adjoint: Problem):
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "laplace", laplace)
        object.__setattr__(self, "fourier", fourier)
        object.__setattr__(self, "adjoint", adjoint)

    @functools.cached_property
    def hilbert(self) -> Problem:
        return Problem(FIGURES[FigureId.FIG1].operator, self.laplace.n)


def _criterion(cid: str, title: str, limit: float = math.inf):
    """Make a check(ctx) -> (details, passed) criterion cid: it is timed, it
    passes when the check passes within limit seconds, and a refusal it
    raises names the criterion."""
    def decorate(check):
        @functools.wraps(check)
        def criterion(ctx) -> CriterionResult:
            t0 = time.perf_counter()
            try:
                details, passed = check(ctx)
            except REFUSALS as exc:
                raise type(exc)(f"criterion {cid}: {exc}") from exc
            seconds = time.perf_counter() - t0
            return CriterionResult(cid, title, bool(passed) and seconds < limit,
                                   details, seconds)
        return criterion
    return decorate


# ----------------------------------------------------------------------------
# Criteria
# ----------------------------------------------------------------------------

def _figure(fid: FigureId, problem: Problem):
    rec = reproduce_figure(fid, problem)
    return rec, rec["pass"]


@_criterion("1", "figure 2 ratio within 30x of 1e-8, < 1 s", limit=1.0)
def criterion_01(ctx):
    return _figure(FigureId.FIG2, ctx.laplace)


@_criterion("2", "figure 1 ratio within 30x of 1e-7, < 1 s", limit=1.0)
def criterion_02(ctx):
    return _figure(FigureId.FIG1, ctx.hilbert)


@_criterion("3", "figure 3 ratio within [1e-20, 1e-16], < 2 s", limit=2.0)
def criterion_03(ctx):
    return _figure(FigureId.FIG3, ctx.fourier)


@_criterion("4", "eigenfunction coincidence: residual <= 1e-6, commutation <= 1e-8")
def criterion_04(ctx):
    problems = {"laplace-bg": ctx.laplace, "fourier-prolate": ctx.fourier}
    out = {name: {"max_residual": p.report.max_residual(),
                  "commutation": p.report.commutation_residual}
           for name, p in problems.items()}
    return out, all(p.report.passed for p in problems.values())


@_criterion("5", "Laplace exponential decay fit r^2 >= 0.99", limit=5.0)
def criterion_05(ctx):
    out = fit_decay(decompose_operator(ctx.laplace.matrix), EXP_DECAY).to_json()
    return out, out["r_squared"] >= 0.99 and out["c2"] > 0


@_criterion("6", "Fourier superexponential decay: stable n log n slope, increasing mu ratios")
def criterion_06(ctx):
    dec = decompose_operator(ctx.fourier.matrix)
    fit_a = fit_decay(dec, SUPER_EXP, (4, 12))
    fit_b = fit_decay(dec, SUPER_EXP, (8, 16))
    mu = dec.eigenvalues[:dec.resolved]
    ratios = mu[:-1] / mu[1:]
    out = {
        "slope_win_4_12": fit_a.slope, "slope_win_8_16": fit_b.slope,
        "slope_shift": abs(fit_a.slope - fit_b.slope) / abs(fit_a.slope),
        "ratios_increasing": bool(np.all(np.diff(ratios) > 0)),
        "usable_modes": dec.resolved,
    }
    return out, (out["slope_win_4_12"] < 0 and out["slope_win_8_16"] < 0
                 and out["slope_shift"] <= 0.15 and out["ratios_increasing"])


@_criterion("7", "eigenvalue growth min lambda_n/n^2 > 0, stable to 2% under refinement")
def criterion_07(ctx):
    out = {}
    for name, p in (("bg", ctx.laplace), ("prolate", ctx.fourier)):
        g_lo = growth_check(p.diff.eigensystem.eigenvalues, p.converged)
        g_hi = growth_check(p.diff.refined_eigenvalues, p.converged)  # same window
        out[name] = {"min_ratio_N": g_lo, "min_ratio_2N": g_hi,
                     "shift": abs(g_lo - g_hi) / g_hi}
    return out, all(v["min_ratio_N"] > 0 and v["shift"] <= 0.02 for v in out.values())


@_criterion("8", "Gramian min-eig log-affine decrease over n in [3,12]")
def criterion_08(ctx):
    M = ctx.hilbert.matrix
    reps = [build_gramian(M, size) for size in range(1, 13)]
    mins = [rep.min_eigenvalue for rep in reps]
    ns = np.arange(1, 13)
    window = (ns >= 3) & (ns <= 12)
    decreasing = bool(np.all(np.diff(np.array(mins)[window]) < 0))
    # the documented solver-floor rule excludes unresolvable eigenvalues
    above = window & ~np.array([rep.below_floor for rep in reps])
    x, y = ns[above], np.log(np.array(mins)[above])
    slope, _, r2 = fit_line(x, y)
    out = {"min_eigs": mins, "fit_modes": [int(v) for v in x],
           "slope": slope, "r_squared": r2, "decreasing": decreasing}
    return out, decreasing and slope < 0 and r2 >= 0.97


@_criterion("9", "lemma 1: 200 random trial functions keep half their mass below the threshold")
def criterion_09(ctx):
    diff = ctx.laplace.diff
    dec = diff.eigensystem
    rng = make_rng(ctx.seed)
    coeff_vectors = random_trial_mix(dec, 200, rng)
    funcs = [FunctionRep(FunctionKind.LEGENDRE_SERIES, c, diff.basis.domain)
             for c in coeff_vectors]
    ratios = [float(c @ diff.stiffness @ c) / h1_seminorm(f, diff.grid) ** 2
              for f, c in zip(funcs, coeff_vectors)]
    c_meas = lemma1_constant(diff, dec, ratios)
    fails, refused, masses = 0, 0, []
    for f in funcs:
        try:
            rec = verify_lemma1(f, diff, dec, c_meas)
        except InsufficientDataError:
            # The threshold lies above the whole trial space, so all of
            # the mix's mass lies below it: the lemma holds trivially.
            refused += 1
            continue
        masses.append(rec.low_freq_mass)
        fails += 0 if rec.passed else 1
    return {"constant": c_meas, "violations": fails, "refused": refused,
            "min_mass": float(min(masses, default=1.0)), "count": len(funcs)}, fails == 0


@_criterion("10", "lemmas 2 and 3: zero violations on 1000 random admissible functions each")
def criterion_10(ctx):
    grid = ctx.laplace.grid
    ab = grid.domain
    rng = make_rng(ctx.seed + 10)
    v2 = applicable = 0
    for f in random_sine_series(ab, 1000, rng):
        rec = verify_lemma2(f, grid)
        applicable += int(rec.applicable)
        v2 += 0 if rec.passed else 1
    v3 = 0
    for f in random_nonnegative_series(ab, 1000, rng):
        rec3 = verify_lemma3(f, grid, c2=1.0)
        v3 += 0 if rec3.passed else 1
    return {"lemma2_violations": v2, "lemma2_applicable": applicable,
            "lemma3_violations": v3, "count": 1000}, v2 == v3 == 0


@_criterion("11", "theorem 1/2/3 ensembles: zero violations; "
            "power-of-ratio outfits exponential on Fourier")
def criterion_11(ctx):
    out = {}
    for key, p, offset in (("thm1", ctx.laplace, 1), ("thm2", ctx.adjoint, 2),
                           ("thm3", ctx.fourier, 3)):
        out[key] = {"fit": p.fit.to_json()}
        if p is ctx.adjoint:
            out[key]["variant"] = p.diff.sign_variant.value
            out[key]["variant_commutation"] = p.report.commutation_residual
        records = p.verify(ENSEMBLE_SIZE, ctx.seed + offset)
        out[key]["violations"] = violation_count(records)
        out[key]["errors"] = error_count(records)
    fit3_exp = fit_constants_from_sweep(ctx.fourier.sweep, EXPONENTIAL)
    out["thm3"]["exp_r2"] = fit3_exp.r_squared
    out["thm3"]["power_beats_exp"] = bool(ctx.fourier.fit.r_squared > fit3_exp.r_squared)
    zero = all(out[k]["violations"] == out[k]["errors"] == 0 for k in ("thm1", "thm2", "thm3"))
    out["zero_violations"] = zero
    return out, zero and out["thm3"]["power_beats_exp"]


@_criterion("12", "sharpness: Laplace fit residuals change sign >= 3 times over n in [2,12]")
def criterion_12(ctx):
    sweep = ctx.laplace.sweep
    keep = (sweep.indices >= 2) & (sweep.indices <= 12)
    slope, intercept, _ = fit_line(sweep.ratios[keep], np.log(sweep.lhs[keep]))
    c1, c2 = math.exp(intercept), -slope
    resid = np.log(sweep.lhs[keep]) - (math.log(c1) - c2 * sweep.ratios[keep])
    signs = np.sign(resid)
    changes = int(np.sum(signs[1:] * signs[:-1] < 0))
    return {"residuals": [float(v) for v in resid], "sign_changes": changes}, changes >= 3


CRITERIA = [criterion_01, criterion_02, criterion_03, criterion_04,
            criterion_05, criterion_06, criterion_07, criterion_08,
            criterion_09, criterion_10, criterion_11, criterion_12]


def run_acceptance(seed: int = DEFAULT_SEED, n: int = Problem.n, N: int = Problem.N,
                   m: int = Problem.m) -> list[CriterionResult]:
    ab = Interval(1.0, 2.0)
    ctx = Suite(seed, Problem(OperatorKind.laplace_tt(ab), n, N, m),
                Problem(OperatorKind.fourier_tt(), n, N, m),
                Problem(OperatorKind.laplace_adjoint_tt(ab), n, N, m))
    return [fn(ctx) for fn in CRITERIA]
