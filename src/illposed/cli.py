"""Command-line entry point.

Subcommands mirror the pipeline: spectrum, match, adversarial, figures,
verify, report-all.  The CLI only declares options and their defaults: each
range is checked once, by the module that reads the value (n, N and m by
`Problem`, the count by `Problem.verify`, the seed by `make_rng`, a basis
size by `check_orthonormal`), and a refusal from any of them is printed as
one `error:` line.  Outputs are deterministic JSON/CSV (17-significant-digit
floats, fixed ordering) plus self-contained SVG plots; ILLPOSED_OUT_DIR
overrides --out-dir, and the directory is made, or refused, before the
command runs.  Exit codes: 0 all requested checks pass, 2 a check failed
(for spectrum, also a mode count that the grid bounds), 1 usage or assembly
error.

`main(argv)` runs one command in the calling process; `run()` is the entry
of a process that runs one command.  Only `report-all` imports the
acceptance suite.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from .adversarial import FigureId, FIGURES, build_gramian, reproduce_figure, worst_function
from .errors import REFUSALS
from .functions import sample
from .integral_ops import parse_operator
from .output import ensure_out_dir, write_csv, write_json, write_plot
from .problem import DEFAULT_SEED, ENSEMBLE_SIZE, Problem
from .spectral import decompose_operator
from .stability import error_count, violation_count

def _problem(args: argparse.Namespace) -> Problem:
    sizes = {k: v for k, v in vars(args).items() if k in ("n", "N", "m")}
    return Problem(parse_operator(args.op), **sizes)


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------

def cmd_spectrum(args, out: str) -> int:
    p = _problem(args)
    kind, M = p.kind, p.matrix
    spec = decompose_operator(M)
    mu = spec.eigenvalues
    write_csv(os.path.join(out, "spectrum.csv"), ("n", "eigenvalue"), enumerate(mu, start=1))
    if not args.no_svg:
        keep = mu > 0
        write_plot(os.path.join(out, "spectrum.svg"), np.arange(1, len(mu) + 1)[keep][:40],
                   np.log10(mu[keep][:40]), "steelblue", f"spectrum of {kind.to_string()}",
                   "n", "log10 mu_n")
    ordered = bool(np.all(np.diff(mu) <= 0))
    psd = bool(mu[-1] >= -1e-10 * mu[0])
    write_json(os.path.join(out, "spectrum.json"), {
        "operator": kind.to_string(), "n": M.size,
        "mu_1": float(mu[0]), "ordered": ordered, "psd": psd,
        "resolved_modes": spec.resolved,
        "image_nodes": M.image_nodes, "image_refinement": M.image_refinement,
    })
    print(f"spectrum: {kind.to_string()} n={M.size} mu_1={mu[0]:.6e} "
          f"resolved_modes={spec.resolved}")
    # every mode above the floor: the grid, not the floor, bounds the count,
    # and nothing confirms the modes (Fourier at n = 1 prints mu_1 = 4, not 3.5976)
    grid_limited = spec.resolved >= M.size
    if grid_limited:
        print(f"spectrum: grid-limited: all {M.size} modes lie above the floor, so the grid, "
              f"not the floor, bounds the count; a larger --n resolves more")
    return 0 if (ordered and psd and not grid_limited) else 2


def cmd_match(args, out: str) -> int:
    p = _problem(args)
    rep, variant = p.report, p.diff.sign_variant
    doc = rep.to_json()
    doc["converged_modes"] = p.converged
    if variant is not None:
        doc["sign_variant"] = {"variant": variant.value,
                               "commutation": rep.commutation_residual}
    write_json(os.path.join(out, "match.json"), doc)
    print(f"match: {p.kind.to_string()} <-> {p.diff.name} m={len(rep.records)} "
          f"max_residual={rep.max_residual():.3e} "
          f"commutation={rep.commutation_residual:.3e}")
    return 0 if rep.passed else 2


def cmd_adversarial(args, out: str) -> int:
    kind = parse_operator(args.op)
    report = build_gramian(Problem(kind).matrix, args.n)
    f = worst_function(report)
    write_json(os.path.join(out, "adversarial.json"), report.to_json())
    xs = np.linspace(report.domain.a, report.domain.b, 512)
    ys = sample(f, xs)
    write_csv(os.path.join(out, "worst_function.csv"), ("x", "f"), zip(xs, ys))
    if not args.no_svg:
        write_plot(os.path.join(out, "worst_function.svg"), xs, ys, "firebrick",
                   f"worst function, {kind.to_string()} ratio={report.min_eigenvalue:.3e}",
                   "x", "f(x)")
    print(f"adversarial: {kind.to_string()} basis=sine n={args.n} "
          f"min_eigenvalue={report.min_eigenvalue:.6e} below_floor={report.below_floor}")
    return 2 if report.below_floor else 0


def cmd_figures(args, out: str) -> int:
    fid = FigureId(args.id)
    spec = FIGURES[fid]
    rec = reproduce_figure(fid, Problem(spec.operator, args.n))
    write_json(os.path.join(out, f"figure{fid.value}.json"), rec)
    if not args.no_svg:
        f, domain = spec.function(), spec.operator.input_domain
        xs = np.linspace(domain.a, domain.b, 512)
        write_plot(os.path.join(out, f"figure{fid.value}.svg"), xs, sample(f, xs), "black",
                   f"figure {fid.value}: ratio {rec['computed_ratio']:.3e}", "x", "f(x)")
    print(f"figure {fid.value}: computed={rec['computed_ratio']:.6e} "
          f"claimed={rec['claimed_ratio']:.0e} pass={rec['pass']}")
    return 0 if rec["pass"] else 2


def cmd_verify(args, out: str) -> int:
    p = _problem(args)
    records = p.verify(args.count, args.seed)
    fit = p.fit
    errors = error_count(records)
    violations = violation_count(records)
    write_json(os.path.join(out, "verify.json"), {
        "operator": p.kind.to_string(),
        "fit": fit.to_json(),
        "records": [r.to_json() for r in records],
        "violations": violations,
        "errors": errors,
    })
    write_csv(os.path.join(out, "verify_points.csv"), ("h1_ratio", "log_lhs"),
              ((r.h1_ratio, math.log(r.lhs)) for r in records if r.lhs > 0))
    print(f"verify: {p.kind.to_string()} fit(c1={fit.c1:.4g}, c2={fit.c2:.4g}, "
          f"r2={fit.r_squared:.4f}) violations={violations}/{args.count} errors={errors}")
    return 0 if violations == errors == 0 else 2


def cmd_report_all(args, out: str) -> int:
    from .acceptance import run_acceptance
    results = run_acceptance(seed=args.seed, n=args.n, N=args.N, m=args.m)
    write_json(os.path.join(out, "report.json"),
               {"criteria": [r.to_json() for r in results]})
    # Wall times go to stderr, so that stdout is the same on every run.
    for r in results:
        print(r.line())
        print(f"criterion {r.cid}: {r.seconds:.2f}s", file=sys.stderr)
    print(f"report-all: {sum(r.passed for r in results)}/{len(results)} passed")
    print(f"report-all: {sum(r.seconds for r in results):.1f}s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 2


# ----------------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------------

def integer(text: str) -> int:
    """An integer in any base Python reads: 12, 0x0C, 0o14, 0b1100."""
    return int(text, 0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# Every option once, with its default.
_OPTIONS = {
    "--op": dict(default="laplace:a=1,b=2",
                 help="operator: hilbert:I=0,1:J=2,3 | laplace:a=1,b=2 "
                      "| laplace-adjoint:a=1,b=2 | fourier"),
    "--id": dict(type=int, required=True, choices=(1, 2, 3)),
    "--n": dict(type=int, default=Problem.n, help="grid size (adversarial: basis size)"),
    "--N": dict(type=int, default=Problem.N, help="Galerkin trial size"),
    "--m": dict(type=int, default=Problem.m, help="mode count"),
    "--seed": dict(type=integer, default=DEFAULT_SEED),
    "--count": dict(type=int, default=ENSEMBLE_SIZE),
    "--out-dir": dict(default="illposed-out"),
    "--no-svg": dict(action="store_true"),
}

# Each subcommand: its function, its help, and exactly the options it reads.
COMMANDS = {
    "spectrum": (cmd_spectrum, "T*T spectrum to CSV/SVG", "--op --n --out-dir --no-svg"),
    "match": (cmd_match, "eigenfunction coincidence report", "--op --n --N --m --out-dir"),
    "adversarial": (cmd_adversarial, "Gramian worst-case synthesis",
                    "--op --n --out-dir --no-svg"),
    "figures": (cmd_figures, "reproduce a published worst-case figure",
                "--id --n --out-dir --no-svg"),
    "verify": (cmd_verify, "fit stability constants, verify ensemble",
               "--op --n --N --m --seed --count --out-dir"),
    "report-all": (cmd_report_all, "run the full acceptance suite",
                   "--n --N --m --seed --out-dir"),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="illposed",
                description="truncated-transform spectral analysis toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for option in options.split():
            sp.add_argument(option, **_OPTIONS[option])
    # adversarial's --n is the basis size, per the interface
    sub.choices["adversarial"].set_defaults(n=8)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the output directory is refused, if at all, before any work
        return COMMANDS[args.command][0](args, ensure_out_dir(args.out_dir))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry of `python -m illposed.cli` and of the `illposed`
    script.  The package is imported by now, so gc.freeze() moves what the
    imports left tracked out of the collector's reach: no collection, the
    one at exit included, walks those objects again.  Then exit with main's
    code."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
