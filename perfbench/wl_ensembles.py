"""Workload `ensembles`: stability verifiers over seeded ensembles, in process.

Set-up builds the three n = 256 operators, their commuting differential
operators, the eigenfunction sweeps and the fitted constants.  Each round
then verifies fresh ensembles drawn from the seed: Theorem 1/3 on sine
series (Laplace, Fourier), Theorem 2 on ExpPoly (adjoint Laplace), Lemma 1
on Bertero-Gruenbaum trial mixes, Lemmas 2 and 3 on sine and nonnegative
Legendre series.  The per-function Python loops do nearly all the timed
work; the half factor is used as matrix-vector products, and no Galerkin
assembly runs after set-up.

`verify_lemma1` refuses a mix whose threshold index exceeds the trial
space by raising InsufficientDataError, its documented outcome.  A refusal
is not a failed operation: it is counted apart and checked against the
oracle threshold.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import illposed as ip

import harness
import oracles
import wl_spectra

AB = (1.0, 2.0)
LAPLACE, FOURIER, ADJOINT = "laplace:a=1,b=2", "fourier", "laplace-adjoint:a=1,b=2"
FULL = {"N": 128, "N4": 64, "m": 12, "theorem": 1000, "lemma": 1000, "lemma1": 200,
        "sample": 100}
SMOKE = {"N": 64, "N4": 32, "m": 8, "theorem": 20, "lemma": 20, "lemma1": 10, "sample": 10}
LEMMA3_C2 = 1.0
SETUPS_BEFORE, SETUP_EVERY_S = 2, 8.0  # set-ups before the rounds, and how often within


class Setup:
    """Operators and fitted constants."""

    def __init__(self, sizes):
        ab = ip.Interval(*AB)
        self.grid = ip.make_grid(ab, wl_spectra.MATCH_N)
        self.M = wl_spectra.build_setup()
        bg = self.bg = ip.assemble_bertero_grunbaum(ab, sizes["N"])
        self.bg_dec = ip.eig_sym(bg.stiffness)  # ascending, as Lemma 1 needs
        prolate = ip.assemble_prolate(sizes["N"])
        fourth, conv4 = self._commuting_fourth_order(ab, sizes)
        m = sizes["m"]
        pairs = ((LAPLACE, bg, "exponential"), (FOURIER, prolate, "power-of-ratio"),
                 (ADJOINT, fourth, "exponential"))
        self.fit = {}
        for text, diff, form in pairs:
            conv = conv4 if diff is fourth else ip.converged_mode_count(diff)
            sweep = ip.eigenfunction_sweep(self.M[text], diff, min(m, conv), converged=conv)
            self.fit[text] = ip.fit_constants_from_sweep(sweep, form)

    def _commuting_fourth_order(self, ab, sizes):
        """The sign variant with the smaller commutator against L L*."""
        best = None
        for variant in ip.SignVariant:
            op = ip.assemble_fourth_order(ab, ip.half_line_for(ab), sizes["N4"], variant)
            conv = ip.converged_mode_count(op)
            comm = math.inf
            if conv >= 4:
                comm = ip.match_eigenfunctions(self.M[ADJOINT], op, min(sizes["m"], conv),
                                               converged=conv).commutation_residual
            if best is None or comm < best[0]:
                best = (comm, op, conv)
        return best[1], best[2]


# ----------------------------------------------------------------------------
# Seeded inputs (the program's own ensemble recipes, drawn here)
# ----------------------------------------------------------------------------

def trial_mixes(rng, count: int, size: int) -> np.ndarray:
    """Unit weight vectors on the trial eigenbasis, 1/n^2 envelope, one per
    column (the recipe of acceptance criterion 9)."""
    n = np.arange(1, size + 1, dtype=float)
    D = rng.standard_normal((count, size)).T / n[:, None] ** 2
    return D / np.linalg.norm(D, axis=0)


def nonnegative_coeffs(rng, count: int, n_modes: int = 10) -> np.ndarray:
    """Legendre series whose constant term outweighs the rest: f > 0."""
    j = np.arange(1, n_modes)
    C = np.zeros((n_modes, count))
    C[1:] = rng.standard_normal((n_modes - 1, count)) / (j[:, None] + 1.0) ** 2
    spread = np.sum(np.abs(C[1:]) * np.sqrt(2 * j + 1.0)[:, None], axis=0)
    C[0] = (1.0 + rng.uniform(0.05, 1.0, count)) * spread + 0.1
    return C


def exp_polys(rng, count: int, max_degree: int = 5):
    """(poly, rate) pairs for p(x) e^{-rate x}, rate in [1, 2]."""
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        poly = rng.standard_normal(deg + 1) / 2.0 ** np.arange(deg + 1)
        if abs(poly[0]) < 0.1:
            poly[0] = math.copysign(0.1, poly[0])
        out.append((poly, float(rng.uniform(1.0, 2.0))))
    return out


def draw_inputs(rng, sizes, setup):
    ab, pm1 = ip.Interval(*AB), ip.Interval(-1.0, 1.0)
    sine, legendre = ip.FunctionKind.SINE_SERIES, ip.FunctionKind.LEGENDRE_SERIES
    mixes = trial_mixes(rng, sizes["lemma1"], setup.bg_dec.size)
    raw = {
        LAPLACE: oracles.sine_series_ensemble(rng, sizes["theorem"], ab.length),
        FOURIER: oracles.sine_series_ensemble(rng, sizes["theorem"], pm1.length),
        ADJOINT: exp_polys(rng, sizes["theorem"]),
        "lemma1": (mixes, setup.bg_dec.eigenvectors @ mixes),
        "lemma2": oracles.sine_series_ensemble(rng, sizes["lemma"], ab.length),
        "lemma3": nonnegative_coeffs(rng, sizes["lemma"]),
    }
    funcs = {
        LAPLACE: [ip.FunctionRep(sine, c, ab) for c in raw[LAPLACE].T],
        FOURIER: [ip.FunctionRep(sine, c, pm1) for c in raw[FOURIER].T],
        ADJOINT: [ip.ExpPoly(p, r) for p, r in raw[ADJOINT]],
        "lemma1": [ip.FunctionRep(legendre, c, ab) for c in raw["lemma1"][1].T],
        "lemma2": [ip.FunctionRep(sine, c, ab) for c in raw["lemma2"].T],
        "lemma3": [ip.FunctionRep(legendre, c, ab) for c in raw["lemma3"].T],
    }
    return raw, funcs


# ----------------------------------------------------------------------------
# Timed verification
# ----------------------------------------------------------------------------

def verify_theorem(checks, setup, text, funcs):
    records = ip.verify_theorem(setup.M[text], setup.fit[text], funcs)
    checks.attempted += len(records)
    errors = [r for r in records if r.error]
    checks.failed += len(errors)
    for r in errors[:5]:
        print(f"FAILED theorem {text} {r.function_id}: {r.error}", file=sys.stderr)
    return records


def verify_lemma1(checks, setup, funcs, coeffs):
    """Lemma 1 with its constant measured on the mixes, as acceptance
    criterion 9 does: (constant, one record or refusal per mix)."""
    diff, dec = setup.bg, setup.bg_dec
    ratios = [float(c @ diff.stiffness @ c) / ip.h1_seminorm(f, diff.grid) ** 2
              for f, c in zip(funcs, coeffs.T)]
    const = ip.lemma1_constant(diff, dec, ratios)

    def one(f):
        try:
            return ip.verify_lemma1(f, diff, dec, const)
        except ip.InsufficientDataError as refusal:
            return refusal
    return const, [checks.op(lambda: one(f), "lemma 1") for f in funcs]


# ----------------------------------------------------------------------------
# Oracle checks on a seeded sample
# ----------------------------------------------------------------------------

def check_theorem(checks, text, fit, records, raw, idx):
    recs = [records[i] for i in idx]
    if text == ADJOINT:
        lhs, norm, ratio = [], [], []
        for i in idx:
            poly, rate = raw[i]
            lhs.append(math.sqrt(oracles.lstar_expoly_norm_sq(poly, rate, *AB)))
            nrm, rat = oracles.expoly_ratio(poly, rate)
            norm.append(nrm)
            ratio.append(rat)
    else:
        lo, hi = AB if text == LAPLACE else (-1.0, 1.0)
        C = raw[:, idx]
        image = (oracles.laplace_image_norm_sq(C, lo, hi) if text == LAPLACE
                 else oracles.fourier_image_norm_sq(C))
        lhs = np.sqrt(image)
        norm, dnorm = oracles.sine_series_norms(C, lo, hi)
        ratio = dnorm / norm
    for rec, l, nrm, rat in zip(recs, lhs, norm, ratio):
        if rec.error:
            continue
        label = f"theorem {text} {rec.function_id}"
        rhs = oracles.theorem_bound(fit.c1, fit.c2, fit.form, rat, nrm)
        checks.close(rec.lhs, l, 1e-9, f"{label} lhs")
        checks.close(rec.h1_ratio, rat, 1e-9, f"{label} ratio")
        checks.close(rec.rhs_at_fit, rhs, 1e-8, f"{label} rhs")
        if abs(l - rhs) > 1e-8 * rhs:
            checks.expect(rec.satisfied == (l >= rhs), f"{label} verdict")


def check_lemma1(checks, setup, raw, const, records):
    """Constant, threshold index, refusal and low-frequency mass of every mix.

    The mixes are unit weight vectors d on the orthonormal trial
    eigenbasis, so the mass below index T is sum(d[:T]^2); ||f'|| comes
    from the oracle, not from the program's quadrature.
    """
    mixes, coeffs = raw
    dec, stiffness = setup.bg_dec, setup.bg.stiffness
    _, norm, dnorm = oracles.legendre_series_norms(coeffs, *AB)
    dirichlet = np.einsum("ij,ij->j", coeffs, stiffness @ coeffs) / dnorm ** 2
    n = np.arange(1, dec.size + 1)
    ref = math.sqrt(2.0 * float(dirichlet.max()) / float(np.min(dec.eigenvalues / n ** 2)))
    checks.close(const, ref, 1e-9, "lemma 1 constant")
    for i, rec in enumerate(records):
        t = ref * dnorm[i] / norm[i]
        if rec is None or abs(t - round(t)) < 1e-7 * t:  # failed, or on an integer
            continue
        label, threshold = f"lemma 1 #{i}", math.floor(t)
        if isinstance(rec, ip.InsufficientDataError):
            checks.expect(threshold > dec.size, f"{label} refused at threshold {threshold}")
            continue
        mass = float(np.sum(mixes[:threshold, i] ** 2))
        checks.expect(rec.threshold_index == threshold,
                      f"{label} threshold {rec.threshold_index} vs {threshold}")
        checks.close(rec.low_freq_mass, mass, 1e-9, f"{label} mass")
        if abs(mass - 0.5) > 1e-8:
            checks.expect(rec.passed == (mass >= 0.5), f"{label} verdict")


def check_lemmas(checks, raw, recs2, recs3, idx):
    length = AB[1] - AB[0]
    C = raw["lemma2"][:, idx]
    _, dnorm = oracles.sine_series_norms(C, *AB)
    sup = oracles.sine_series_sup(C, *AB)
    for j, i in enumerate(idx):
        rec = recs2[i]
        if rec is None:
            continue
        checks.close(rec.bound, math.sqrt(length) * dnorm[j], 1e-10, f"lemma 2 #{i} bound")
        checks.expect(0.99 * sup[j] <= rec.sup_norm <= sup[j] * (1 + 1e-12),
                      f"lemma 2 #{i} sup {rec.sup_norm} vs {sup[j]}")
        checks.expect(rec.passed, f"lemma 2 #{i} violated")
    c1 = oracles.lemma3_prefactor(LEMMA3_C2, length)
    for i in idx:
        rec = recs3[i]
        if rec is None:
            continue
        mass, norm, dnorm3 = oracles.legendre_series_norms(raw["lemma3"][:, i], *AB)
        checks.close(rec.c1, c1, 1e-12, f"lemma 3 #{i} prefactor")
        checks.close(rec.lhs, mass, 1e-10, f"lemma 3 #{i} mass")
        checks.close(rec.rhs, c1 * math.exp(-LEMMA3_C2 * dnorm3 / norm) * norm, 1e-9,
                     f"lemma 3 #{i} rhs")
        checks.expect(rec.passed, f"lemma 3 #{i} violated")


def run(seed: int, seconds: float, trace: bool, checks, smoke=False):
    sizes = SMOKE if smoke else FULL
    rng = np.random.Generator(np.random.PCG64(seed))

    def one_round(setup, between, _):
        raw, funcs = draw_inputs(rng, sizes, setup)
        times, theorem = [], {}
        for text in (LAPLACE, FOURIER, ADJOINT):
            theorem[text], dt = harness.timed(
                lambda: verify_theorem(checks, setup, text, funcs[text]))
            times.append(dt)
            between()
        (const, recs1), dt = harness.timed(
            lambda: verify_lemma1(checks, setup, funcs["lemma1"], raw["lemma1"][1]))
        times.append(dt)
        between()
        recs2, dt = harness.timed(lambda: [
            checks.op(lambda: ip.verify_lemma2(f, setup.grid), "lemma 2") for f in funcs["lemma2"]])
        times.append(dt)
        between()
        recs3, dt = harness.timed(lambda: [
            checks.op(lambda: ip.verify_lemma3(f, setup.grid, LEMMA3_C2), "lemma 3")
            for f in funcs["lemma3"]])
        times.append(dt)
        idx = np.sort(rng.choice(sizes["theorem"], sizes["sample"], replace=False))
        for text in (LAPLACE, FOURIER, ADJOINT):
            check_theorem(checks, text, setup.fit[text], theorem[text], raw[text], idx)
        idx = np.sort(rng.choice(sizes["lemma"], sizes["sample"], replace=False))
        check_lemmas(checks, raw, recs2, recs3, idx)
        check_lemma1(checks, setup, raw["lemma1"], const, recs1)
        n_theorem = 3 * sizes["theorem"]
        n_lemma = sizes["lemma1"] + 2 * sizes["lemma"]
        return {"times": times, "theorem": n_theorem / sum(times[:3]),
                "lemma": n_lemma / sum(times[3:]),
                "refused": sum(isinstance(r, ip.InsufficientDataError) for r in recs1)}

    setups, results = harness.measure(lambda: Setup(sizes), one_round, seconds,
                                      trace or smoke, SETUPS_BEFORE, SETUP_EVERY_S)
    return {
        "setup": setups,
        "session": [sum(r["times"]) for r in results],
        "details": {
            "theorem_checks_per_s": harness.median(r["theorem"] for r in results),
            "lemma_checks_per_s": harness.median(r["lemma"] for r in results),
            "lemma1_refused": sum(r["refused"] for r in results),
        },
    }
