"""Workload `cli`: a fixed session of fresh `python -m illposed.cli` processes.

The only workload that pays for package import on every command and for
the CLI's own repeated work.  A command succeeds when its exit code is the
documented one (figures 1 and 3 and report-all exit 2 on the published
data); its output files are then checked against the oracles.  The seed is
passed to `verify`.  `report-all` runs at its default seed, the
configuration its documented outcome (criteria 2, 3, 11 and 12 red) is
stated for.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

import harness
import layertrace
import oracles
import wl_spectra

SPECTRUM_OPS = ("laplace:a=1,b=2", "laplace-adjoint:a=1,b=2", "fourier", "hilbert:I=0,1:J=2,3")
MATCH_OPS = ("laplace:a=1,b=2", "fourier", "laplace-adjoint:a=1,b=2")
ADVERSARIAL = ("hilbert:I=0,1:J=2,3", 6)
VERIFY = ("laplace:a=1,b=2", 500)
PROLATE_N = 128  # the CLI's default --N
REPORT_RED = {"2", "3", "11", "12"}
SETUPS_BEFORE, SETUP_EVERY_S = 3, 2.0  # set-ups before the rounds, and how often within
TRACED_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_child.py")


def session(seed: int, smoke: bool = False):
    """(argv, expected exit code) of every command, in order."""
    if smoke:
        return [(["spectrum", "--op", "fourier", "--n", "128"], 0)]
    cmds = [(["spectrum", "--op", op], 0) for op in SPECTRUM_OPS]
    cmds += [(["match", "--op", op], 0) for op in MATCH_OPS]
    cmds.append((["adversarial", "--op", ADVERSARIAL[0], "--n", str(ADVERSARIAL[1])], 0))
    cmds += [(["figures", "--id", str(i)], 0 if i == 2 else 2) for i in (1, 2, 3)]
    cmds.append((["verify", "--op", VERIFY[0], "--count", str(VERIFY[1]),
                  "--seed", str(seed)], 0))
    cmds.append((["report-all"], 2))
    return cmds


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_outputs(checks, refs, argv, out_dir, seed):
    """Compare one command's output files with the oracles."""
    sub = argv[0]
    if sub == "spectrum":
        op = _option(argv, "--op")
        with open(os.path.join(out_dir, "spectrum.csv")) as fh:
            mu = np.array([float(row["eigenvalue"]) for row in csv.DictReader(fh)])
        doc = _load(out_dir, "spectrum.json")
        checks.close(float(mu.sum()), oracles.hs_norm_sq(op), 1e-10, f"cli spectrum {op} trace")
        checks.close(float(mu[0]), float(refs.top(op)[0]), 1e-10, f"cli spectrum {op} mu_1")
        checks.expect(doc["ordered"] and doc["psd"], f"cli spectrum {op} flags")
    elif sub == "match":
        op = _option(argv, "--op")
        doc = _load(out_dir, "match.json")
        modes = [(m["n"], m["lambda"], m["rayleigh"], m["residual"]) for m in doc["modes"]]
        wl_spectra.check_match(checks, refs, op, doc["diff"], doc["converged_modes"], modes,
                               doc["commutation_residual"],
                               PROLATE_N if op == "fourier" else None)
        if op.startswith("laplace-adjoint"):
            checks.expect(doc["sign_variant"]["variant"] == "proof", "cli match sign variant")
    elif sub == "adversarial":
        doc = _load(out_dir, "adversarial.json")
        ref = oracles.hilbert_sine_gramian_min((0.0, 1.0), (2.0, 3.0), ADVERSARIAL[1])
        checks.close(doc["min_eigenvalue"], ref, 1e-6, "cli adversarial minimum")
        checks.close(float(np.linalg.norm(doc["minimizer"])), 1.0, 1e-12, "cli adversarial norm")
    elif sub == "figures":
        fid = int(_option(argv, "--id"))
        doc = _load(out_dir, f"figure{fid}.json")
        checks.close(doc["computed_ratio"], oracles.figure_ratio(fid), 1e-7, f"cli figure {fid}")
    elif sub == "verify":
        check_verify(checks, _load(out_dir, "verify.json"), seed)
    elif sub == "report-all":
        doc = _load(out_dir, "report.json")
        crit = {c["criterion"]: c for c in doc["criteria"]}
        red = {cid for cid, c in crit.items() if not c["pass"]}
        checks.expect(red == REPORT_RED, f"report-all red criteria {sorted(red)}")
        checks.expect(crit["11"]["details"]["zero_violations"], "report-all criterion 11")
        for cid, fid in (("1", 2), ("2", 1), ("3", 3)):
            checks.close(crit[cid]["details"]["computed_ratio"], oracles.figure_ratio(fid),
                         1e-7, f"report-all criterion {cid}")


def check_verify(checks, doc, seed):
    """Recompute a seeded sample of the ensemble's records independently."""
    op, count = VERIFY
    spec = oracles.parse_operator(op)
    lo, hi = spec["a"][0], spec["b"][0]
    records = doc["records"]
    checks.expect(len(records) == count and doc["violations"] == 0,
                  f"cli verify: {doc['violations']} violations in {len(records)}")
    C = oracles.sine_series_ensemble(np.random.Generator(np.random.PCG64(seed)), count, hi - lo)
    idx = np.sort(np.random.Generator(np.random.PCG64(seed)).choice(count, 50, replace=False))
    lhs = np.sqrt(oracles.laplace_image_norm_sq(C[:, idx], lo, hi))
    norm, dnorm = oracles.sine_series_norms(C[:, idx], lo, hi)
    fit = doc["fit"]
    for j, i in enumerate(idx):
        rec = records[i]
        ratio = dnorm[j] / norm[j]
        rhs = oracles.theorem_bound(fit["c1"], fit["c2"], fit["form"], ratio, norm[j])
        checks.close(rec["lhs"], lhs[j], 1e-9, f"cli verify {rec['id']} lhs")
        checks.close(rec["h1_ratio"], ratio, 1e-9, f"cli verify {rec['id']} ratio")
        checks.close(rec["rhs"], rhs, 1e-8, f"cli verify {rec['id']} rhs")


def run(seed: int, seconds: float, trace: bool, checks, smoke=False):
    seed = seed % 2 ** 32  # the CLI takes a nonnegative seed
    out_root = os.path.join(harness.OUT, "cli")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    refs = wl_spectra.References()
    snapshots = []

    def one_round(_, between, r):
        times, session_s, report_s = [], 0.0, None
        for i, (argv, expected) in enumerate(session(seed, smoke)):
            out_dir = os.path.join(out_root, f"r{r}-{i:02d}-{argv[0]}")
            trace_file = out_dir + ".trace.json"
            prefix = [TRACED_CHILD, trace_file] if trace else ["-m", "illposed.cli"]
            label = "cli " + " ".join(argv)
            t0 = time.perf_counter()
            proc = checks.op(lambda: harness.run_child([*prefix, *argv, "--out-dir", out_dir]),
                             label)
            dt = time.perf_counter() - t0
            between()
            session_s += dt
            if argv[0] == "report-all":
                report_s = dt
            else:
                times.append(dt)
            if proc is None:
                continue
            if proc.returncode != expected:
                checks.failed += 1
                print(f"FAILED {label}: exit {proc.returncode}, expected {expected}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            check_outputs(checks, refs, argv, out_dir, seed)
            if trace:
                with open(trace_file) as fh:
                    snapshots.append(json.load(fh)["stats"])
        return {"times": times, "session": session_s, "report_all": report_s}

    # Set-up is the package import alone.
    setups, results = harness.measure(lambda: None, one_round, seconds, trace or smoke,
                                      SETUPS_BEFORE, SETUP_EVERY_S)
    out = {
        "setup": setups,
        "session": [r["session"] for r in results],
        "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "details": {
            "cli_command_p50_s": harness.median(t for r in results for t in r["times"]),
            "report_all_s": [r["report_all"] for r in results],
        },
    }
    if trace:
        out["stats"] = layertrace.merge(snapshots)
    return out
