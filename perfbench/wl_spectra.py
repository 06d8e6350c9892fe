"""Workload `spectra`: spectrum and coincidence pipelines, in process.

Spectrum task: gram_matrix -> decompose_operator -> fit_decay for each
operator at each grid size.  Coincidence task: Galerkin assembly ->
converged_mode_count -> match_eigenfunctions against the n = 256 integral
operator built in set-up.  Dense assembly, the SVD and the Galerkin layers
do nearly all the work; the ensemble verifiers do none.  The inputs are
fixed operators and sizes, so the seed changes nothing here.
"""

from __future__ import annotations

import numpy as np

import illposed as ip

import harness
import oracles

OPERATORS = ("laplace:a=1,b=2", "laplace-adjoint:a=1,b=2", "fourier", "hilbert:I=0,1:J=2,3")
# The diff operator of each family and the integral operator it commutes with.
FAMILIES = {
    "bertero-grunbaum": "laplace:a=1,b=2",
    "prolate": "fourier",
    "fourth-order:proof": "laplace-adjoint:a=1,b=2",
    "fourth-order:lemma": "laplace-adjoint:a=1,b=2",
}
FULL = {"n": (128, 256, 512, 1024), "N": {"bertero-grunbaum": (64, 128, 256),
                                          "prolate": (64, 128, 256),
                                          "fourth-order:proof": (32, 64),
                                          "fourth-order:lemma": (32, 64)}}
SMOKE = {"n": (128,), "N": {family: (32,) for family in FAMILIES}}
MATCH_N = 256
MAX_MODES = 10
SETUPS_BEFORE, SETUP_EVERY_S = 3, 3.0  # set-ups before the rounds, and how often within


def operator_grid(kind, n: int):
    """n quadrature nodes in all; on the half line n/8 per panel, as the CLI."""
    if kind.half is not None:
        return ip.make_grid(kind.half, n // kind.half.panel_count)
    return ip.make_grid(kind.input_domain, n)


def build_setup():
    """The integral operators every coincidence task matches against."""
    out = {}
    for text in set(FAMILIES.values()):
        kind = ip.parse_operator(text)
        out[text] = ip.gram_matrix(kind, operator_grid(kind, MATCH_N))
    return out


def spectrum_task(text: str, n: int):
    kind = ip.parse_operator(text)
    M = ip.gram_matrix(kind, operator_grid(kind, n))
    dec = ip.decompose_operator(M)
    model = "super-exp" if kind.tag == "fourier" else "exp-decay"
    return dec, ip.fit_decay(dec, model)


def coincidence_task(family: str, N: int, M):
    ab = ip.Interval(1.0, 2.0)
    if family == "bertero-grunbaum":
        op = ip.assemble_bertero_grunbaum(ab, N)
    elif family == "prolate":
        op = ip.assemble_prolate(N)
    else:
        variant = ip.SignVariant(family.split(":")[1])
        op = ip.assemble_fourth_order(ab, ip.half_line_for(ab), N, variant)
    conv = ip.converged_mode_count(op)
    if conv < 4:  # no certified modes: nothing to match
        return conv, None
    return conv, ip.match_eigenfunctions(M, op, min(MAX_MODES, conv), converged=conv)


class References:
    """Oracle values, computed once per process outside the timed tasks."""

    def __init__(self):
        self._top, self._prolate = {}, {}

    def top(self, text: str) -> np.ndarray:
        if text not in self._top:
            self._top[text] = oracles.top_eigenvalues(text)
        return self._top[text]

    def prolate(self, N: int) -> np.ndarray:
        if N not in self._prolate:
            self._prolate[N] = oracles.prolate_eigenvalues(N)
        return self._prolate[N]


def check_spectrum(checks, refs, text, n, dec, fit):
    label = f"spectrum {text} n={n}"
    mu = dec.eigenvalues
    checks.close(float(np.sum(mu)), oracles.hs_norm_sq(text), 1e-10, f"{label} trace")
    checks.close(float(mu[0]), float(refs.top(text)[0]), 1e-10, f"{label} mu_1")
    checks.expect(bool(np.all(np.diff(mu) <= 0) and mu[-1] >= 0), f"{label} ordering")
    checks.expect(fit.r_squared >= 0.99 and fit.slope < 0, f"{label} decay fit {fit}")


def check_match(checks, refs, integral_text, diff_label, conv, modes, commutation,
                prolate_N=None):
    """Residuals, commutation, and Rayleigh values against the oracle mu_n.

    modes holds (n, lambda_n, Rayleigh value, residual) per matched mode.
    Only reference eigenvalues above 1e-8 mu_1 are used: eigvalsh resolves
    about 1e-16 mu_1.
    """
    label = f"match {integral_text} <-> {diff_label}"
    checks.expect(conv >= len(modes) >= 4, f"{label}: {len(modes)} modes, {conv} converged")
    checks.expect(max(m[3] for m in modes) <= 1e-6, f"{label} residuals {modes}")
    checks.expect(commutation <= 1e-8, f"{label} commutation {commutation}")
    top = refs.top(integral_text)
    for n, lam, rayleigh, _ in modes:
        if top[n - 1] >= 1e-8 * top[0]:
            checks.close(rayleigh, float(top[n - 1]), 1e-8, f"{label} rayleigh {n}")
        if prolate_N is not None:
            checks.close(lam, float(refs.prolate(prolate_N)[n - 1]), 1e-10, f"{label} lambda {n}")


def check_coincidence(checks, refs, family, N, conv, report):
    label = f"{family} N={N}"
    if family == "fourth-order:lemma":
        # The printed sign variant does not commute with L L*: the method
        # must leave it uncertified, or show a large commutator.
        checks.expect(report is None or report.commutation_residual > 1e-6,
                      f"{label} reported as commuting")
        return
    checks.expect(report is not None, f"{label}: only {conv} converged modes")
    if report is not None:
        modes = [(r.index, r.lambda_diff, r.rayleigh, r.residual) for r in report.records]
        check_match(checks, refs, FAMILIES[family], label, conv, modes,
                    report.commutation_residual, prolate_N=N if family == "prolate" else None)


def run(seed: int, seconds: float, trace: bool, checks, smoke=False):
    sizes = SMOKE if smoke else FULL
    refs = References()
    spectrum_tasks = [(text, n) for text in OPERATORS for n in sizes["n"]]
    coincidence_tasks = [(family, N) for family in FAMILIES for N in sizes["N"][family]]

    def one_round(built, between, _):
        # Each output is checked, untimed, as soon as its task ends and is
        # then dropped, so the peak RSS is the program's own.
        spectra_s = coincidence_s = 0.0
        for text, n in spectrum_tasks:
            out, dt = harness.timed(lambda: checks.op(lambda: spectrum_task(text, n),
                                                      f"spectrum {text} n={n}"))
            spectra_s += dt
            if out is not None:
                check_spectrum(checks, refs, text, n, *out)
            between()
        for family, N in coincidence_tasks:
            M = built[FAMILIES[family]]
            out, dt = harness.timed(lambda: checks.op(lambda: coincidence_task(family, N, M),
                                                      f"{family} N={N}"))
            coincidence_s += dt
            if out is not None:
                check_coincidence(checks, refs, family, N, *out)
            between()
        return {"spectra_s": spectra_s, "coincidence_s": coincidence_s}

    setups, results = harness.measure(build_setup, one_round, seconds, trace or smoke,
                                      SETUPS_BEFORE, SETUP_EVERY_S)
    return {
        "setup": setups,
        "session": [r["spectra_s"] + r["coincidence_s"] for r in results],
        "details": {
            "spectra_s": harness.median(r["spectra_s"] for r in results),
            "coincidence_s": harness.median(r["coincidence_s"] for r in results),
        },
    }
