"""Command-line entry point.

Subcommands mirror the pipeline: spectrum, match, adversarial, figures,
verify, report-all.  Outputs are deterministic JSON/CSV (17-significant-digit
floats, fixed ordering) plus self-contained SVG plots; ILLPOSED_OUT_DIR
overrides --out-dir.  Exit codes: 0 all requested checks pass, 2 a check
failed, 1 usage or assembly error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .acceptance import DEFAULT_SEED, run_acceptance
from .adversarial import FigureId, FIGURES, build_gramian, reproduce_figure, worst_function
from .domains import Interval, make_grid
from .errors import InsufficientDataError, InvalidArgumentError, ModeRangeError
from .functions import make_sine_basis
from .integral_ops import MAX_DENSE_SIZE, parse_operator
from .output import ensure_out_dir, svg_plot, write_json, write_text
from .problem import Problem
from .spectral import decompose_operator, spectrum_to_csv
from .stability import make_rng, verify_theorem, violation_count

MAX_TRIAL = 512


def _validate(args: argparse.Namespace) -> None:
    """Reject sizes and seeds the commands cannot honour."""
    if not (1 <= args.n <= MAX_DENSE_SIZE):
        raise InvalidArgumentError(f"n must be in [1, {MAX_DENSE_SIZE}]")
    if not (4 <= args.N <= MAX_TRIAL):
        raise InvalidArgumentError(f"N must be in [4, {MAX_TRIAL}]")
    if args.m < 1:
        raise InvalidArgumentError("m must be a positive integer")
    if args.seed < 0:
        raise InvalidArgumentError("seed must be a nonnegative integer")
    if getattr(args, "count", 1) < 1:
        raise InvalidArgumentError("count must be a positive integer")


def _problem(args: argparse.Namespace) -> Problem:
    return Problem(parse_operator(args.op), args.n, args.N, args.m)


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    p = _problem(args)
    kind, M = p.kind, p.matrix
    spec = decompose_operator(M)
    mu = spec.eigenvalues
    out = ensure_out_dir(args.out_dir)
    write_text(os.path.join(out, "spectrum.csv"), spectrum_to_csv(spec))
    if not args.no_svg:
        keep = mu > 0
        ns = np.arange(1, len(mu) + 1)[keep][:40]
        ys = np.log10(mu[keep][:40])
        write_text(os.path.join(out, "spectrum.svg"),
                   svg_plot([(list(ns), list(ys), "steelblue")],
                            f"spectrum of {kind.to_string()}", "n", "log10 mu_n"))
    ordered = bool(np.all(np.diff(mu) <= 0))
    psd = bool(mu[-1] >= -1e-10 * mu[0])
    write_json(os.path.join(out, "spectrum.json"), {
        "operator": kind.to_string(), "n": M.size,
        "mu_1": float(mu[0]), "ordered": ordered, "psd": psd,
        "resolved_modes": spec.resolved,
    })
    print(f"spectrum: {kind.to_string()} n={M.size} mu_1={mu[0]:.6e} "
          f"resolved_modes={spec.resolved}")
    return 0 if (ordered and psd) else 2


def cmd_match(args) -> int:
    p = _problem(args)
    rep, variant = p.report, p.diff.spec.sign_variant
    doc = rep.to_json()
    doc["converged_modes"] = p.converged
    if variant is not None:
        doc["sign_variant"] = {"variant": variant.value,
                               "commutation": rep.commutation_residual}
    out = ensure_out_dir(args.out_dir)
    write_json(os.path.join(out, "match.json"), doc)
    ok = rep.max_residual() <= 1e-6 and rep.commutation_residual <= 1e-8
    print(f"match: {p.kind.to_string()} <-> {p.diff.spec.tag} m={len(rep.records)} "
          f"max_residual={rep.max_residual():.3e} "
          f"commutation={rep.commutation_residual:.3e}")
    return 0 if ok else 2


def cmd_adversarial(args) -> int:
    kind = parse_operator(args.op)
    if args.basis != "sine":
        raise InvalidArgumentError("only the sine basis family is built in")
    domain = kind.input_domain
    if not isinstance(domain, Interval):
        raise InvalidArgumentError("adversarial synthesis needs an interval domain")
    grid = make_grid(domain, 256)
    report = build_gramian(kind, make_sine_basis(domain, args.n), grid)
    f = worst_function(report)
    out = ensure_out_dir(args.out_dir)
    write_json(os.path.join(out, "adversarial.json"), report.to_json())
    xs = np.linspace(domain.a, domain.b, 512)
    ys = f.values(xs)
    lines = ["x,f"] + [f"{x:.17g},{y:.17g}" for x, y in zip(xs, ys)]
    write_text(os.path.join(out, "worst_function.csv"), "\n".join(lines) + "\n")
    if not args.no_svg:
        write_text(os.path.join(out, "worst_function.svg"),
                   svg_plot([(list(xs), list(ys), "firebrick")],
                            f"worst function, {kind.to_string()} "
                            f"ratio={report.min_eigenvalue:.3e}", "x", "f(x)"))
    print(f"adversarial: {kind.to_string()} basis=sine n={args.n} "
          f"min_eigenvalue={report.min_eigenvalue:.6e} below_floor={report.below_floor}")
    return 2 if report.below_floor else 0


def cmd_figures(args) -> int:
    fid = FigureId(args.id)
    rec = reproduce_figure(fid, args.n)
    out = ensure_out_dir(args.out_dir)
    write_json(os.path.join(out, f"figure{fid.value}.json"), rec)
    if not args.no_svg:
        spec = FIGURES[fid]
        f = spec.function()
        xs = np.linspace(spec.domain.a, spec.domain.b, 512)
        write_text(os.path.join(out, f"figure{fid.value}.svg"),
                   svg_plot([(list(xs), list(f.values(xs)), "black")],
                            f"figure {fid.value}: ratio {rec['computed_ratio']:.3e}",
                            "x", "f(x)"))
    print(f"figure {fid.value}: computed={rec['computed_ratio']:.6e} "
          f"claimed={rec['claimed_ratio']:.0e} pass={rec['pass']}")
    return 0 if rec["pass"] else 2


def cmd_verify(args) -> int:
    p = _problem(args)
    fit = p.fit
    records = verify_theorem(p.matrix, fit, p.ensemble(args.count, make_rng(args.seed)))
    # A record that raised is unsatisfied, but it is an error, not a violation.
    errors = sum(1 for r in records if r.error)
    violations = violation_count(records) - errors
    out = ensure_out_dir(args.out_dir)
    write_json(os.path.join(out, "verify.json"), {
        "operator": p.kind.to_string(),
        "fit": fit.to_json(),
        "records": [r.to_json() for r in records],
        "violations": violations,
        "errors": errors,
    })
    lines = ["h1_ratio,log_lhs"]
    for r in records:
        if r.lhs > 0:
            lines.append(f"{r.h1_ratio:.17g},{math.log(r.lhs):.17g}")
    write_text(os.path.join(out, "verify_points.csv"), "\n".join(lines) + "\n")
    print(f"verify: {p.kind.to_string()} fit(c1={fit.c1:.4g}, c2={fit.c2:.4g}, "
          f"r2={fit.r_squared:.4f}) violations={violations}/{args.count} errors={errors}")
    return 0 if violations == errors == 0 else 2


def cmd_report_all(args) -> int:
    results = run_acceptance(seed=args.seed, n=args.n, N=args.N, m=args.m)
    out = ensure_out_dir(args.out_dir)
    write_json(os.path.join(out, "report.json"),
               {"criteria": [r.to_json() for r in results]})
    for r in results:
        print(r.line())
    total = sum(r.seconds for r in results)
    print(f"report-all: {sum(r.passed for r in results)}/{len(results)} passed "
          f"in {total:.1f}s")
    return 0 if all(r.passed for r in results) else 2


# ----------------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="illposed",
                description="truncated-transform spectral analysis toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, op_default=None):
        if op_default is not None:
            sp.add_argument("--op", default=op_default,
                            help="operator: hilbert:I=0,1:J=2,3 | laplace:a=1,b=2 "
                                 "| laplace-adjoint:a=1,b=2 | fourier")
        sp.add_argument("--n", type=int, default=256, help="grid size")
        sp.add_argument("--N", type=int, default=128, help="Galerkin trial size")
        sp.add_argument("--m", type=int, default=12, help="mode count")
        sp.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
        sp.add_argument("--out-dir", default="illposed-out")
        sp.add_argument("--no-svg", action="store_true")

    common(sub.add_parser("spectrum", help="T*T spectrum to CSV/SVG"),
           "laplace:a=1,b=2")
    common(sub.add_parser("match", help="eigenfunction coincidence report"),
           "laplace:a=1,b=2")
    sp = sub.add_parser("adversarial", help="Gramian worst-case synthesis")
    sp.add_argument("--basis", default="sine")
    common(sp, "laplace:a=1,b=2")
    sp.set_defaults(n=8)  # here --n is the basis size, per the interface
    sp = sub.add_parser("figures", help="reproduce a published worst-case figure")
    sp.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    common(sp)
    sp = sub.add_parser("verify", help="fit stability constants, verify ensemble")
    sp.add_argument("--count", type=int, default=500)
    common(sp, "laplace:a=1,b=2")
    common(sub.add_parser("report-all", help="run the full acceptance suite"))
    return p


COMMANDS = {
    "spectrum": cmd_spectrum,
    "match": cmd_match,
    "adversarial": cmd_adversarial,
    "figures": cmd_figures,
    "verify": cmd_verify,
    "report-all": cmd_report_all,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _validate(args)
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except (InvalidArgumentError, InsufficientDataError, ModeRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
