import argparse
import contextlib
import difflib
import gc
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from illposed import decompose_operator, parse_operator
from illposed import cli
from illposed.cli import build_parser, main
from illposed.integral_ops import REFINEMENT_SLACK
from illposed.output import json_dumps
from illposed.problem import Problem
from illposed.spectral import SVD_FLOOR, usable_modes


def run_cli(args, tmp_path, sub="out"):
    out = str(tmp_path / sub)
    code = main(args + ["--out-dir", out])
    return code, out


def test_figures_pass_and_exit_zero(tmp_path, capsys):
    code, out = run_cli(["figures", "--id", "2"], tmp_path)
    assert code == 0
    doc = open(os.path.join(out, "figure2.json")).read()
    assert '"schema": "illposed/1"' in doc
    assert '"pass": true' in doc
    assert os.path.exists(os.path.join(out, "figure2.svg"))


def test_figures_known_defect_exits_two(tmp_path):
    code, _ = run_cli(["figures", "--id", "3"], tmp_path)
    assert code == 2


@pytest.mark.parametrize("fid,n,code", [(1, 18, 1), (1, 19, 2), (2, 6, 1), (2, 15, 1),
                                        (2, 16, 0), (3, 24, 1), (3, 25, 2)])
def test_figures_refuse_a_grid_that_does_not_resolve_the_figure(tmp_path, capsys, fid, n, code):
    # below these sizes the figure's series basis is not orthonormal on the
    # grid, and its ratio (figure 2 at n = 6: 1.3e-7, twice the resolved
    # 6.6e-8) is refused rather than reported as a pass
    assert run_cli(["figures", "--id", str(fid), "--n", str(n)], tmp_path)[0] == code
    kind, size = {1: ("sine", 5), 2: ("sine", 4), 3: ("cosine", 8)}[fid]
    refused = (f"error: {kind}-series basis of {size} functions is not orthonormal "
               f"on the grid of {n} nodes") in capsys.readouterr().err
    assert refused == (code == 1)


@pytest.mark.parametrize("argv,message", [
    (["figures", "--id", "2", "--n", "6"],
     "sine-series basis of 4 functions is not orthonormal on the grid of 6 nodes"),
    (["adversarial", "--op", "laplace:a=1,b=2", "--n", "300"],
     "sine-series basis of 300 functions is not orthonormal on the grid of 256 nodes"),
    # figure 1 (criterion 2) needs n >= 19
    (["report-all", "--n", "16"], "criterion 2: sine-series basis of 5 functions is "
                                  "not orthonormal on the grid of 16 nodes"),
], ids=["figures", "adversarial", "report-all"])
def test_a_refused_grid_names_what_it_refused(tmp_path, capsys, argv, message):
    assert run_cli(argv, tmp_path)[0] == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("op,name,a", [
    # names print each endpoint's shortest %g form that reads back as it
    ("laplace:a=1e-320,b=1", "laplace:a=9.99989e-321,b=1", "9.99989e-321"),
    ("laplace-adjoint:a=5e-324,b=1", "laplace-adjoint:a=4.94066e-324,b=1", "4.94066e-324"),
])
def test_a_laplace_kind_whose_half_line_overflows_is_refused_by_name(tmp_path, capsys, op,
                                                                     name, a):
    # 40/a leaves the float range: the adjoint, whose inputs live on [0, 40/a],
    # is refused by half_line_for, which names a alone and not the operator,
    # as the kind's 0 < a refusal does; plain Laplace reads no half line, and
    # its grid misses the closed-form trace ln(b/a)/2
    assert run_cli(["spectrum", "--op", op], tmp_path)[0] == 1
    if op.startswith("laplace:"):
        assert capsys.readouterr().err == (f"error: grid of {name} misses its closed-form "
                                           "trace at n = 256: relative trace gap 0.983 > 1e-12\n")
        return
    assert capsys.readouterr().err == (f"error: a = {a} is too small: "
                                       "the half line [0, 40/a] overflows\n")


def _fresh_cli(args, out_dir, **env):
    """illposed.cli args in a fresh process, with Python's default warning
    filters, writing to out_dir, with env added to the environment."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "illposed.cli", *args,
                           "--out-dir", str(out_dir)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src), **env), timeout=120)


def _trace_refusal(op, n):
    """spectrum --op op [--n n], and the refusal of its grid by the closed-form
    trace, which the grid misses: ln(b/a)/2 for both Laplace kinds, and for
    Hilbert a positive trace where the grid's kernel diagonal cancels to 0."""
    name = op.replace("1e300", "1e+300").replace("1e90", "1e+90")
    gap = "1" if op.startswith("hilbert") else {None: "0.991", 512: "0.99", 1024: "0.989"}[n]
    return (["spectrum", "--op", op] + ([] if n is None else ["--n", str(n)]),
            f"error: grid of {name} misses its closed-form trace at n = {n or 256}: "
            f"relative trace gap {gap} > 1e-12\n")


def _stiffness_refusal(command, op, name, N, reason="is not finite"):
    return [command, "--op", op], f"error: {name} operator: stiffness {reason} at N={N}\n"


@pytest.mark.parametrize("args,stderr", [
    # an interval whose width leaves the float range is refused by name
    pytest.param(["spectrum", "--op", "hilbert:I=-1.7e308,1.7e308:J=1.75e308,1.79e308"],
                 "error: interval [-1.7e+308, 1.7e+308] is wider than the float range\n",
                 id="interval-wider-than-the-float-range")] + [
    pytest.param(*_trace_refusal(op, n), id=op if n is None else f"{op}-{n}")
    for n in (None, 512, 1024)
    # the last one's kernel diagonal cancels to exactly 0: its trace gap is 1
    for op in ("laplace:a=1e-300,b=1e300", "laplace-adjoint:a=1e-300,b=1e300",
               "hilbert:I=-1e90,0:J=1e-300,1")] + [
    pytest.param(*_stiffness_refusal(command, op, name, N, *reason), id=f"{command}-{op}")
    for command, op, name, N, *reason in (
        ("match", "laplace:a=1e200,b=2e200", "bertero-grunbaum", 128),
        # the exact stiffness is all zeros here: the float range's other end
        ("match", "laplace:a=1e-303,b=2e-303", "bertero-grunbaum", 128,
         "underflows the float range"),
        # nonzero, but every entry subnormal: too few digits to match on
        ("match", "laplace:a=1e-160,b=2e-160", "bertero-grunbaum", 128,
         "underflows the float range"),
        ("match", "laplace-adjoint:a=1e294,b=2e294", "fourth-order", 64),
        ("verify", "laplace-adjoint:a=1e160,b=2e160", "fourth-order", 64))])
def test_a_kernel_past_the_float_range_is_refused_without_a_warning(tmp_path, args, stderr):
    # a fresh process, with Python's default warning filters: the interval's,
    # the closed-form trace gate's or a stiffness check's refusal is the one
    # line on stderr, and no RuntimeWarning or traceback comes before it
    proc = _fresh_cli(args, tmp_path)
    assert (proc.returncode, proc.stderr) == (1, stderr)


@pytest.mark.parametrize("op,n,stderr,out", [(*case, None) for case in [
    # grids that miss the closed-form trace, before anything is factored
    ("hilbert:I=0,1:J=1.0001,1.0101", 256, "grid of hilbert:I=0,1:J=1.0001,1.0101 misses its "
     "closed-form trace at n = 256: relative trace gap 4.54e-05 > 1e-12"),
    ("hilbert:I=0,1:J=1.001,1.101", 128, "grid of hilbert:I=0,1:J=1.001,1.101 misses its "
     "closed-form trace at n = 128: relative trace gap 1.18e-07 > 1e-12"),
    ("hilbert:I=0,1:J=2,3", 8, "grid of hilbert:I=0,1:J=2,3 misses its closed-form trace "
     "at n = 8: relative trace gap 2.05e-12 > 1e-12"),
    ("laplace-adjoint:a=1e-4,b=1", 128, "grid of laplace-adjoint:a=0.0001,b=1 misses its "
     "closed-form trace at n = 128: relative trace gap 1.7e-10 > 1e-12"),
    # no image rule up to the cap passes its trace check
    ("hilbert:I=0,1:J=1.001,1e6", 256, "half factor of hilbert:I=0,1:J=1.001,1e+06 disagrees "
     "with its kernel matrix at n = 256: relative trace gap 0.626 > 1e-12"),
    # rules pass their trace check, but no two successive ones agree
    ("hilbert:I=0,1:J=1.0001,2", 1024, "half factor of hilbert:I=0,1:J=1.0001,2 is not "
     "confirmed by refinement at n = 1024: last move 178 bounds > 4 on rules up to 2048 "
     "image nodes"),
    ("laplace-adjoint:a=1e-3,b=2", 1024, "half factor of laplace-adjoint:a=0.001,b=2 is not "
     "confirmed by refinement at n = 1024: last move 25.3 bounds > 4 on rules up to 2048 "
     "image nodes"),
    # both rules pass their trace checks, but resolve different mode counts
    ("laplace-adjoint:a=1e-4,b=1", 256, "half factor of laplace-adjoint:a=0.0001,b=1 is not "
     "confirmed by refinement at n = 256: the rules of 1024 and 2048 image nodes resolve 68 "
     "and 70 modes"),
    # the 1024-node rule misses its trace check (gap 3.4e-12): only 2048 is decomposed
    ("laplace-adjoint:a=4e-5,b=1", 256, "half factor of laplace-adjoint:a=4e-05,b=1 is not "
     "confirmed by refinement at n = 256: the rule of 2048 image nodes is the last one "
     "decomposed, and the rule before it failed its trace check"),
]] + [
    # an output directory that cannot be made: an existing file, or a path
    # under one, by option or by ILLPOSED_OUT_DIR
    pytest.param("fourier", 64, f"cannot make output directory {{out}}: {reason}",
                 (route, path), id=f"{route}-{path}")
    for route in ("--out-dir", "ILLPOSED_OUT_DIR")
    for path, reason in (("file", "File exists"), ("file/sub", "Not a directory"))
])
def test_an_input_nothing_confirms_is_refused_in_one_line(tmp_path, op, n, stderr, out):
    # no factor is printed on its trace check alone, and no result is
    # computed into a directory that cannot be made: each input exits 1 with
    # one error line, and no output, warning or traceback
    args = ["spectrum", "--op", op, "--n", str(n)]
    if out is None:
        proc = _fresh_cli(args, tmp_path)
    else:
        route, path = out
        (tmp_path / "file").write_text("")
        bad = tmp_path / path
        proc = (_fresh_cli(args, bad) if route == "--out-dir"
                else _fresh_cli(args, tmp_path, ILLPOSED_OUT_DIR=str(bad)))
        stderr = stderr.format(out=bad)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {stderr}\n")


@pytest.mark.parametrize("op", ["laplace:a=1.5065986448845864e-105,b=1.5067234402942631e-105",
                                "laplace:a=1e100,b=2e100", "laplace:a=1e-80,b=2e-80"])
def test_match_far_from_unit_scale_gives_a_finite_verdict_or_a_refusal(tmp_path, op):
    # ||K|| ||Lambda|| under- or overflows on these intervals: the commutation
    # residual must still be a number, with no RuntimeWarning, or the command
    # must refuse in one line
    proc = _fresh_cli(["match", "--op", op, "--n", "64"], tmp_path)
    if proc.returncode == 1:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        return
    assert proc.returncode in (0, 2) and proc.stderr == ""
    doc = json.load(open(tmp_path / "match.json"))
    values = [doc["commutation_residual"]] + [m["residual"] for m in doc["modes"]]
    assert np.all(np.isfinite(values))
    assert "commutation=nan" not in proc.stdout


def test_spectrum_outputs(tmp_path):
    code, out = run_cli(["spectrum", "--op", "laplace:a=1,b=2", "--n", "128"], tmp_path)
    assert code == 0
    csv = open(os.path.join(out, "spectrum.csv")).read().splitlines()
    assert csv[0] == "n,eigenvalue"
    assert len(csv) == 129
    mu1 = float(csv[1].split(",")[1])
    mu2 = float(csv[2].split(",")[1])
    assert mu1 > mu2 > 0


@pytest.mark.parametrize("op,resolved", [("laplace:a=1,b=2", 14),
                                         ("laplace-adjoint:a=1,b=2", 14),
                                         ("fourier", 11),
                                         ("hilbert:I=0,1:J=2,3", 9)])
def test_spectrum_reports_resolved_modes(tmp_path, capsys, op, resolved):
    code, out = run_cli(["spectrum", "--op", op, "--no-svg"], tmp_path)
    assert code == 0
    doc = json.load(open(os.path.join(out, "spectrum.json")))
    assert doc["n"] == 256 and doc["resolved_modes"] == resolved
    assert f"resolved_modes={resolved}" in capsys.readouterr().out
    spec = decompose_operator(Problem(parse_operator(op), 256, 128, 12).matrix)
    mu = spec.eigenvalues
    assert spec.resolved == len(usable_modes(spec, (1, spec.size))) == resolved
    assert spec.resolved == int(np.sum(mu > SVD_FLOOR * mu[0]))


@pytest.mark.parametrize("op,n,code,resolved", [("fourier", 1, 2, 1), ("fourier", 8, 2, 8),
                                                ("laplace:a=1,b=2", 8, 2, 8),
                                                ("fourier", 12, 0, 11)])
def test_a_spectrum_the_grid_bounds_exits_2(tmp_path, capsys, op, n, code, resolved):
    # every one of n modes above the floor means the grid, not the floor,
    # bounds the count, and nothing confirms the modes (Fourier at n = 1
    # prints mu_1 = 4 for 3.5976): the files are written, the exit is 2 and
    # a line says why; at n = 12 Fourier resolves 11 of 12 and exits 0
    assert run_cli(["spectrum", "--op", op, "--n", str(n), "--no-svg"], tmp_path) == (
        code, str(tmp_path / "out"))
    doc = json.load(open(tmp_path / "out" / "spectrum.json"))
    assert (doc["n"], doc["resolved_modes"]) == (n, resolved)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(f"resolved_modes={resolved}")
    assert lines[1:] == ([f"spectrum: grid-limited: all {n} modes lie above the floor, so the "
                          "grid, not the floor, bounds the count; a larger --n resolves more"]
                         if code else [])


def test_an_unusable_output_directory_is_refused_before_any_work(tmp_path, capsys,
                                                                 monkeypatch):
    # main makes the output directory before it dispatches, so an existing
    # file as --out-dir ends verify and report-all in one error line with
    # neither a Problem nor the acceptance suite ever built
    from illposed import acceptance
    calls = []
    monkeypatch.delenv("ILLPOSED_OUT_DIR", raising=False)
    monkeypatch.setattr(cli, "Problem", lambda *a, **k: calls.append("Problem"))
    monkeypatch.setattr(acceptance, "run_acceptance", lambda **k: calls.append("acceptance"))
    bad = tmp_path / "file"
    bad.write_text("")
    for argv in (["verify", "--count", "100000"], ["report-all"]):
        assert main(argv + ["--out-dir", str(bad)]) == 1
        printed = capsys.readouterr()
        assert (printed.out, printed.err) == (
            "", f"error: cannot make output directory {bad}: File exists\n")
    assert calls == []


def test_spectrum_reports_its_image_rule(tmp_path):
    # Fourier at n = 256 is refined (16 -> 32 xi nodes, 2 rows each); Laplace
    # at n = 128 has no image rule: its rows are the Cauchy factor's 22 pivots
    for op, n, rows, refined in (("fourier", 256, 64, True),
                                 ("laplace:a=1,b=2", 128, 22, False)):
        docs = []
        for sub in ("a", "b"):
            code, out = run_cli(["spectrum", "--op", op, "--n", str(n), "--no-svg"], tmp_path,
                                op + sub)
            assert code == 0
            docs.append([open(os.path.join(out, name), "rb").read()
                         for name in ("spectrum.csv", "spectrum.json")])
        assert docs[0] == docs[1]
        doc = json.loads(docs[0][1])
        assert doc["image_nodes"] == rows and "input_modes" not in doc
        if refined:
            assert 0.0 <= doc["image_refinement"] <= REFINEMENT_SLACK
        else:
            assert doc["image_refinement"] is None
        # modes past the factor's rows are exact zeros
        mu = [float(line.split(b",")[1]) for line in docs[0][0].splitlines()[1:]]
        assert all(m > 0 for m in mu[:rows]) and all(m == 0.0 for m in mu[rows:])


def test_operator_names_keep_every_digit(tmp_path, capsys):
    code, out = run_cli(["spectrum", "--op", "laplace:a=1.0000001,b=2", "--no-svg"], tmp_path)
    assert code == 0
    assert json.load(open(os.path.join(out, "spectrum.json")))["operator"] == \
        "laplace:a=1.0000001,b=2"
    assert "spectrum: laplace:a=1.0000001,b=2 " in capsys.readouterr().out
    code, _ = run_cli(["spectrum", "--op", "hilbert:I=0,1:J=1.000000001,2"], tmp_path)
    assert code == 1
    assert "grid of hilbert:I=0,1:J=1.000000001,2 misses" in capsys.readouterr().err


def test_spectrum_of_an_adjoint_with_a_narrow_gap(tmp_path):
    # the kernel diagonal (e^{-2ax} - e^{-2bx})/(2x) keeps its digits as b -> a,
    # so the trace check passes on a right half factor
    code, _ = run_cli(["spectrum", "--op", "laplace-adjoint:a=1,b=1.00001", "--no-svg"],
                      tmp_path)
    assert code == 0


def test_spectrum_of_a_narrow_laplace_interval(tmp_path):
    # [1, 1.00001] passes the closed-form trace gate, and its Cauchy factor
    # stops after 4 pivots
    code, out = run_cli(["spectrum", "--op", "laplace:a=1,b=1.00001", "--no-svg"], tmp_path)
    assert code == 0
    doc = json.load(open(os.path.join(out, "spectrum.json")))
    assert doc["image_nodes"] == 4 and doc["resolved_modes"] == 3


def test_match_exit_contract(tmp_path):
    code, out = run_cli(["match", "--op", "fourier", "--N", "64", "--m", "8",
                         "--n", "128"], tmp_path)
    assert code == 0
    doc = open(os.path.join(out, "match.json")).read()
    assert '"commutation_residual"' in doc


def test_adversarial_outputs(tmp_path):
    code, out = run_cli(["adversarial", "--op", "hilbert:I=0,1:J=2,3", "--n", "6"], tmp_path)
    assert code == 0
    csv = open(os.path.join(out, "worst_function.csv")).read().splitlines()
    assert csv[0] == "x,f" and len(csv) == 513
    assert not json.load(open(os.path.join(out, "adversarial.json")))["below_floor"]


def test_adversarial_below_solver_floor_exits_two(tmp_path, capsys):
    # at 12 sine modes the minimum is ~1e-33 of the top eigenvalue
    code, out = run_cli(["adversarial", "--op", "hilbert:I=0,1:J=2,3",
                         "--n", "12", "--no-svg"], tmp_path)
    assert code == 2
    assert json.load(open(os.path.join(out, "adversarial.json")))["below_floor"]
    assert "below_floor=True" in capsys.readouterr().out


def test_verify_small_run(tmp_path, capsys):
    code, out = run_cli(["verify", "--op", "laplace:a=1,b=2", "--count", "40",
                         "--N", "64"], tmp_path)
    assert code == 0
    doc = open(os.path.join(out, "verify.json")).read()
    assert '"violations": 0' in doc
    assert json.loads(doc)["errors"] == 0
    assert "violations=0/40 errors=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--n", "16"], ["--op", "fourier", "--n", "8"]],
                         ids=["laplace-n16", "fourier-n8"])
def test_verify_refuses_a_grid_too_coarse_for_its_ensemble(tmp_path, capsys, argv):
    # the 12-mode sine family is far from orthonormal on these grids: every
    # record is an error, and the run exits 2 instead of reporting 0 violations
    code, out = run_cli(["verify"] + argv, tmp_path)
    assert code == 2
    doc = json.load(open(os.path.join(out, "verify.json")))
    assert doc["violations"] == 0 and doc["errors"] == 500
    assert all("not orthonormal" in r["error"] for r in doc["records"])
    assert "violations=0/500 errors=500" in capsys.readouterr().out


def test_verify_reports_errors_apart_from_violations(tmp_path, capsys, monkeypatch):
    from illposed import problem
    from illposed.stability import StabilityRecord

    def one_error_one_pass(M, fit, ensemble):
        nan = float("nan")
        return [StabilityRecord("f0000", nan, nan, nan, False, error="boom"),
                StabilityRecord("f0001", 1.0, 1.0, 0.5, True)]
    monkeypatch.setattr(problem, "verify_theorem", one_error_one_pass)
    code, out = run_cli(["verify", "--count", "2", "--N", "64"], tmp_path)
    assert code == 2
    doc = json.load(open(os.path.join(out, "verify.json")))
    assert doc["violations"] == 0 and doc["errors"] == 1
    assert "violations=0/2 errors=1" in capsys.readouterr().out


def test_usage_error_exits_one(tmp_path, capsys):
    assert main(["spectrum", "--op", "nonsense:q=1"]) == 1
    assert main(["no-such-command"]) == 1
    for argv in (["spectrum", "--op", "laplace:a=1,b=2,c=3"],
                 ["spectrum", "--op", "fourier:x=1"],
                 ["verify", "--seed", "-1"],
                 # spectrum, match, adversarial and figures take no --seed
                 ["spectrum", "--seed", "-1"],
                 ["match", "--seed", "-1"],
                 ["adversarial", "--seed", "-1"],
                 ["figures", "--id", "2", "--seed", "-1"],
                 ["report-all", "--seed", "-1"],
                 ["adversarial", "--basis", "cosine"],
                 ["match", "--m", "0"],
                 ["verify", "--m", "3", "--count", "5"],
                 ["verify", "--count", "0"],
                 ["verify", "--count", "-5"],
                 ["spectrum", "--n", "1025"],
                 ["match", "--N", "513"],
                 ["figures", "--id", "2", "--n", "0"],
                 ["adversarial", "--n", "0"],
                 ["adversarial", "--n", "1000000000"],
                 # half factors that disagree with their kernel matrices
                 ["spectrum", "--op", "laplace:a=1e-9,b=2"],
                 ["spectrum", "--op", "laplace-adjoint:a=1e-3,b=2"],
                 ["spectrum", "--op", "hilbert:I=0,1:J=1.0001,2"],
                 ["spectrum", "--op", "hilbert:I=0,1:J=1.000000001,2"]):
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
        assert not os.listdir(tmp_path), argv
    # the messages name what was refused
    for argv in (["match", "--op", "hilbert:I=0,1:J=2,3"],
                 ["verify", "--op", "hilbert:I=0,1:J=2,3"]):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1, argv
        assert capsys.readouterr().err == ("error: hilbert:I=0,1:J=2,3: no commuting "
                                           "differential operator for this kind\n"), argv
        assert not os.listdir(tmp_path), argv
    # the adjoint names the fourth-order trial size it used, N/2 clamped to [32, 64]
    for op, name in (("laplace-adjoint:a=0.01,b=1", "laplace-adjoint:a=0.01,b=1"),
                     ("laplace-adjoint:a=1e-3,b=2", "laplace-adjoint:a=0.001,b=2")):
        assert main(["match", "--op", op, "--out-dir", str(tmp_path)]) == 1, op
        assert capsys.readouterr().err == (f"error: {name}: too few converged Galerkin "
                                           "modes at N=64\n"), op
        assert not os.listdir(tmp_path), op
    assert main(["verify", "--seed", "abc", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --seed: ") and "'abc'" in err and "<lambda>" not in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv,message", [
    # the first reader of the seed is criterion 9, after criteria 1-8
    (["report-all", "--seed", "-1"], "criterion 9: seed must be a nonnegative integer"),
    # adversarial's --n is a basis size, bounded by the grid's 256 nodes
    (["adversarial", "--n", "0"], "basis size must be >= 1"),
    (["adversarial", "--n", "1000000000"], "sine-series basis of 1000000000 functions is "
                                           "not orthonormal on the grid of 256 nodes"),
], ids=["report-all-seed", "adversarial-n0", "adversarial-n1e9"])
def test_a_value_is_refused_by_the_module_that_reads_it(tmp_path, capsys, argv, message):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("op,rows", [
    ("laplace:a=1,b=2", 22),
    ("hilbert:I=0,1:J=2,3", 32),
    ("fourier", 64),
], ids=["laplace", "hilbert", "fourier"])
def test_a_basis_wider_than_the_half_factor_is_below_the_floor(tmp_path, capsys, op, rows):
    # the grid bounds the basis, not the factor's rows: one sine more than
    # the factor has rows makes the Gramian singular, which is a below-floor
    # verdict (exit 2, with its files), not a usage error
    M = Problem(parse_operator(op)).matrix
    assert M.image_nodes == rows
    for size in (rows, rows + 1):
        code, out = run_cli(["adversarial", "--op", op, "--n", str(size)], tmp_path, str(size))
        assert code == 2, size
        line = capsys.readouterr().out
        assert line.startswith(f"adversarial: {op} basis=sine n={size} min_eigenvalue=")
        assert line.endswith(" below_floor=True\n"), size
        assert sorted(os.listdir(out)) == ["adversarial.json", "worst_function.csv",
                                           "worst_function.svg"], size
        with open(os.path.join(out, "adversarial.json")) as fh:
            doc = json.load(fh)
        assert doc["below_floor"] is True and doc["basis"]["size"] == size
        assert np.linalg.norm(doc["minimizer"]) == pytest.approx(1.0, rel=1e-12)
    # no zero rows are added at size == rows: the minimum is the last squared
    # singular value of the factor's own image matrix, up to rounding of the top
    grid, dom = M.grid, M.grid.domain
    k = np.arange(1, rows + 1)
    V = np.sqrt(2.0 / dom.length) * np.sin(np.outer(grid.nodes - dom.a, k * np.pi / dom.length))
    s = np.linalg.svd(M.half_factor @ (np.sqrt(grid.weights)[:, None] * V), compute_uv=False)
    with open(os.path.join(tmp_path, str(rows), "adversarial.json")) as fh:
        assert abs(json.load(fh)["min_eigenvalue"] - s[-1] ** 2) <= 1e-15 * s[0] ** 2


# The options each subcommand reads; it accepts these and no others.
OPTION_TABLE = {
    "spectrum": {"--op", "--n", "--out-dir", "--no-svg"},
    "match": {"--op", "--n", "--N", "--m", "--out-dir"},
    "adversarial": {"--op", "--n", "--out-dir", "--no-svg"},
    "figures": {"--id", "--n", "--out-dir", "--no-svg"},
    "verify": {"--op", "--n", "--N", "--m", "--seed", "--count", "--out-dir"},
    "report-all": {"--n", "--N", "--m", "--seed", "--out-dir"},
}


def test_each_subcommand_declares_exactly_the_options_it_reads():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(OPTION_TABLE)
    for name, parser in subparsers.choices.items():
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert options == OPTION_TABLE[name], name
    assert sum(len(v) for v in OPTION_TABLE.values()) == 29


def test_defaults_come_from_problem():
    from illposed import problem
    parser = build_parser()
    for name in ("match", "verify", "report-all"):
        args = parser.parse_args([name])
        assert (args.n, args.N, args.m) == (Problem.n, Problem.N, Problem.m) == (256, 128, 12)
    assert parser.parse_args(["spectrum"]).n == parser.parse_args(["figures", "--id", "1"]).n == 256
    assert parser.parse_args(["adversarial"]).n == 8  # the basis size
    assert parser.parse_args(["verify"]).count == problem.ENSEMBLE_SIZE == 500


@pytest.mark.parametrize("argv,option", [(["spectrum", "--N", "64"], "--N 64"),
                                         (["match", "--no-svg"], "--no-svg"),
                                         (["figures", "--id", "2", "--seed", "1"], "--seed 1"),
                                         (["spectrum", "--m", "3"], "--m 3"),
                                         (["adversarial", "--seed", "5"], "--seed 5"),
                                         (["report-all", "--op", "fourier"], "--op fourier")])
def test_option_a_subcommand_does_not_read_exits_one(tmp_path, capsys, argv, option):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: ") and option in err
    assert not os.listdir(tmp_path)


def test_report_all_at_small_trial_size(tmp_path):
    # N=32 converges 8 modes: every criterion reports at min(m, converged) modes
    code, out = run_cli(["report-all", "--n", "64", "--N", "32", "--m", "8"], tmp_path)
    assert code == 2
    criteria = json.load(open(os.path.join(out, "report.json")))["criteria"]
    assert len(criteria) == 12
    assert next(c for c in criteria if c["criterion"] == "4")["pass"]


def test_report_all_stdout_is_the_same_on_every_run(tmp_path, capsys, monkeypatch):
    # a clock whose steps grow, so the two runs' criteria take different times
    from illposed import acceptance
    ticks = itertools.count()
    monkeypatch.setattr(acceptance, "time",
                        SimpleNamespace(perf_counter=lambda: 0.01 * next(ticks) ** 2))
    runs = []
    for sub in ("a", "b"):
        run_cli(["report-all", "--n", "64", "--N", "32", "--m", "8"], tmp_path, sub)
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    assert runs[0].out.splitlines()[-1] == "report-all: 8/12 passed"
    assert runs[0].err != runs[1].err
    assert runs[0].err.splitlines()[0].startswith("criterion 1: ")
    assert runs[0].err.splitlines()[-1].startswith("report-all: ")


def test_import_loads_no_dependency_beyond_numpy():
    # numpy is the one runtime dependency: importing the package and every
    # submodule in a fresh process loads neither scipy nor any test-only
    # package, nor numpy.polynomial, which numpy itself does not import
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import importlib, pkgutil, sys, illposed\n"
            "names = [m.name for m in pkgutil.iter_modules(illposed.__path__, 'illposed.')]\n"
            "for name in names: importlib.import_module(name)\n"
            "print(len(names), sorted(m for m in ('scipy', 'mpmath', 'hypothesis', "
            "'pytest', 'numpy.polynomial') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, loaded = proc.stdout.strip().split(" ", 1)
    assert int(count) == len(list((src / "illposed").glob("[!_]*.py"))) and loaded == "[]"


# What `import illposed` loads, which perfbench's import probe times.
PACKAGE_IMPORT = {"illposed", "illposed.adversarial", "illposed.diff_ops", "illposed.domains",
                  "illposed.errors", "illposed.functions", "illposed.integral_ops",
                  "illposed.spectral", "illposed.stability"}


def _fresh_modules(statement):
    """The sorted sys.modules after statement, in a fresh process."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", f"import sys; {statement}; "
                           "print(' '.join(sorted(sys.modules)))"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_cli_import_builds_no_dataclass_and_leaves_the_acceptance_suite_out():
    # every command's process pays `import illposed.cli`: it generates no
    # dataclass code, compiles the acceptance suite only for report-all, and
    # does not load numpy.random; `import illposed` still loads the whole
    # package it loaded before, so the import probe keeps timing all of it
    cli = _fresh_modules("import illposed.cli")
    assert not cli & {"dataclasses", "illposed.acceptance", "numpy.random"}
    assert _fresh_modules("import illposed") >= PACKAGE_IMPORT


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    # main runs in the caller's process (the tests, perfbench's traced
    # child): it freezes nothing there
    frozen = gc.get_freeze_count()
    assert run_cli(["spectrum", "--op", "fourier", "--n", "64", "--no-svg"], tmp_path)[0] == 0
    assert gc.get_freeze_count() == frozen


def test_the_process_entry_freezes_the_imports_then_exits_with_mains_code(monkeypatch):
    # `python -m illposed.cli` and the `illposed` script both enter through run
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 2)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert calls == ["freeze", "main"] and exc.value.code == 2
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'illposed = "illposed.cli:run"' in pyproject.read_text().splitlines()


def test_match_builds_one_gram_matrix(tmp_path, gram_calls):
    # the commuting operator is matched on the command's own matrix, not a second one
    code, _ = run_cli(["match", "--op", "laplace-adjoint:a=1,b=2", "--n", "128"], tmp_path)
    assert code == 0
    assert gram_calls == [128]


# The runs whose files and stdout are pinned, by test id.  tests/reference/<id>/
# holds the files a run writes and tests/reference/<id>.stdout what it prints.
# They were written with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64, 2 vCPUs),
# where one and two BLAS threads write the same bytes, so no thread count is
# fixed.  `python3 tests/test_cli.py` rewrites them from this list.
REFERENCE = Path(__file__).parent / "reference"
REFERENCE_RUNS = {
    "spectrum": ["spectrum", "--op", "fourier", "--n", "96"],
    "match": ["match"],
    "adversarial": ["adversarial", "--op", "hilbert:I=0,1:J=2,3", "--n", "6"],
    "figure1": ["figures", "--id", "1"],
    "figure2": ["figures", "--id", "2"],
    "figure3": ["figures", "--id", "3"],
    "verify": ["verify", "--count", "40", "--N", "64"],
    "match-adjoint": ["match", "--op", "laplace-adjoint:a=1,b=2"],
    "report-all": ["report-all"],
    "verify-fourier": ["verify", "--op", "fourier", "--count", "40"],
}


def _leaves(name, text):
    """(where, value) for each value of a JSON or CSV file, numbers as floats:
    a JSON key path, or a CSV row and column."""
    def walk(doc, where):
        if isinstance(doc, dict):
            for k, v in doc.items():
                yield from walk(v, f"{where}.{k}")
        elif isinstance(doc, list):
            for i, v in enumerate(doc):
                yield from walk(v, f"{where}[{i}]")
        else:
            yield where, float(doc) if type(doc) in (int, float) else doc
    if name.endswith(".json"):
        return list(walk(json.loads(text), ""))
    if not name.endswith(".csv"):
        raise ValueError(name)
    rows = [line.split(",") for line in text.splitlines()]
    return [(f"row {i} {rows[0][j]}", float(v) if i else v)
            for i, row in enumerate(rows) for j, v in enumerate(row)]


def _moved(name, old, new):
    """What moved from old to new, the texts of one output file: each moved
    number of a JSON or CSV file that differs in nothing else (file, key or
    row, old and new value, relative change), otherwise the lines that differ."""
    try:
        a, b = _leaves(name, old), _leaves(name, new)
    except ValueError:  # not JSON or CSV, or not a number where the reference has one
        a = b = None
    if a is not None and [w for w, _ in a] == [w for w, _ in b]:
        moved = [(w, x, y) for (w, x), (_, y) in zip(a, b) if repr(x) != repr(y)]
        if all(type(x) is type(y) is float for _, x, y in moved):
            return [f"{name} {w}: {x!r} -> {y!r} ({abs(y - x) / abs(x) if x else math.inf:.3g} "
                    "relative)" for w, x, y in moved]
    return [f"{name}: {line}" for line in difflib.unified_diff(
        old.splitlines(), new.splitlines(), "reference", "this run", lineterm="", n=0)]


def _run_printed(argv, out, capsys):
    """(the files a run writes into out, by name, and what it prints)."""
    main(argv + ["--out-dir", str(out)])
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}, capsys.readouterr().out


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_determinism_byte_identical(tmp_path, capsys, name):
    # two runs write and print the same bytes, and those of the reference;
    # a mismatch with the reference is listed number by number, or line by line
    argv = REFERENCE_RUNS[name]
    files, printed = _run_printed(argv, tmp_path / "a", capsys)
    assert files and (files, printed) == _run_printed(argv, tmp_path / "b", capsys)
    ref = REFERENCE / name
    assert sorted(files) == sorted(p.name for p in ref.iterdir())
    outputs = [(f, files[f], (ref / f).read_bytes()) for f in files]
    outputs.append(("stdout", printed.encode(), (REFERENCE / f"{name}.stdout").read_bytes()))
    report = [line for f, new, old in outputs if new != old
              for line in _moved(f, old.decode(), new.decode())]
    assert not report, "\n".join(report)


def write_references():
    """Rewrite tests/reference from this checkout: the files and stdout of each run."""
    for name, argv in REFERENCE_RUNS.items():
        shutil.rmtree(REFERENCE / name, ignore_errors=True)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            main(argv + ["--out-dir", str(REFERENCE / name)])
        (REFERENCE / f"{name}.stdout").write_text(printed.getvalue())


def test_out_dir_env_override(tmp_path, monkeypatch):
    env_dir = str(tmp_path / "env-out")
    monkeypatch.setenv("ILLPOSED_OUT_DIR", env_dir)
    code = main(["figures", "--id", "2", "--out-dir", str(tmp_path / "ignored")])
    assert code == 0
    assert os.path.exists(os.path.join(env_dir, "figure2.json"))


def test_json_writer_is_valid_json():
    doc = json_dumps({"a": 1.5, "b": [True, None, "x\"y"], "c": {"d": 2}})
    parsed = json.loads(doc)
    assert parsed["a"] == 1.5 and parsed["c"]["d"] == 2 and parsed["b"][2] == 'x"y'


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), np.float32(1.5), {1, 2},
                                   object()], ids=["int64", "bool_", "float32", "set", "object"])
def test_json_writer_refuses_types_it_does_not_know(value):
    # an unknown type is an error, not its str() written as a string
    with pytest.raises(TypeError):
        json_dumps({"a": [1, value]})


if __name__ == "__main__":
    write_references()
