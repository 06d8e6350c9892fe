"""Benchmark of illposed: one workload per run.

    python3 perfbench/run.py --workload {spectra,ensembles,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: the program is imported from ./src, and
nothing needs building.  Each run repeats whole rounds of its workload
until S seconds of round time have passed, and times its set-up several
times before, between and after them.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and the metrics, which are
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1 (one set-up and one round, traced).  The same object, with the
machine facts and workload details, is also written to
.perfbench-out/result-<workload>[-trace].json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

import harness

WORKLOADS = ("spectra", "ensembles", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "blas_threads": int(harness.BLAS_THREADS),
            "blas": f"{blas.get('name')} {blas.get('version')}", "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def end_to_end(res: dict) -> dict:
    rss_mb = res.get("rss_mb") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (harness.median(total for _, total in res["setup"]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "session_s": (harness.median(res["session"]), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in harness.BLAS_VARS:  # before numpy is first imported
        os.environ[var] = harness.BLAS_THREADS
    if not os.path.isfile(os.path.join(harness.SRC, "illposed", "__init__.py")):
        print(f"error: no illposed sources in {harness.SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    import layertrace
    import wl_cli
    import wl_ensembles
    import wl_spectra
    workload = {"spectra": wl_spectra, "ensembles": wl_ensembles, "cli": wl_cli}[args.workload]

    os.makedirs(harness.OUT, exist_ok=True)
    checks = harness.Checks()
    trace = bool(args.trace)
    if trace:
        tracer = layertrace.Tracer()
        with layertrace.traced(tracer):
            res = workload.run(args.seed, args.seconds, True, checks)
        stats = res.get("stats") or tracer.snapshot()
        metrics = layertrace.layer_metrics(stats, harness.median(i for i, _ in res["setup"]))
    else:
        res = workload.run(args.seed, args.seconds, False, checks)
        metrics = end_to_end(res)

    result = {"correct": checks.bad == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "wrong_checks": checks.bad,
              "setup_s": [total for _, total in res["setup"]], "session_s": res["session"],
              "details": res["details"], "result": result}
    suffix = "-trace" if trace else ""
    with open(os.path.join(harness.OUT, f"result-{args.workload}{suffix}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload}: rounds={len(res['session'])} session_s={res['session']} "
          f"details={res['details']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
