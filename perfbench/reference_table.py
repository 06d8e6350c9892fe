"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference_table.py

Runs every workload traced and untraced, alternately, PAIRS times each at
seed SEED and BENCHMARK.json's run length (from the root of a checkout),
and prints the per-layer table of the first traced run and the tracing
overhead as Markdown.  A traced run has a single round, so the overhead
compares it with the first round of the untraced run of the same pair; the
median over pairs damps the machine's speed drift.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import harness
import run

SEED = 1
PAIRS = 3
FIXED = {"count": ".0f", "GFLOP": ".2f", "ratio": ".3f", "bytes": ".0f", "s": ".4f"}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=harness.ROOT, capture_output=True, text=True, check=True)
    suffix = "-trace" if trace else ""
    with open(os.path.join(harness.OUT, f"result-{workload}{suffix}.json")) as fh:
        record = json.load(fh)
    assert record["result"] == json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def main() -> int:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    ratios = {w: [] for w in run.WORKLOADS}
    traced = {}
    for _ in range(PAIRS):
        for w in run.WORKLOADS:
            record = bench(w, SEED, seconds, 1)
            traced.setdefault(w, record)
            plain = bench(w, SEED, seconds, 0)
            ratios[w].append(record["session_s"][0] / plain["session_s"][0])
    print("| metric | unit | " + " | ".join(run.WORKLOADS) + " |")
    print("|---|---|" + "---:|" * len(run.WORKLOADS))
    first = traced[run.WORKLOADS[0]]["result"]["metrics"]
    for name, m in first.items():
        cells = [format(traced[w]["result"]["metrics"][name]["value"], FIXED[m["unit"]])
                 for w in run.WORKLOADS]
        print(f"| `{name}` | {m['unit']} | " + " | ".join(cells) + " |")
    print()
    print("| workload | traced / untraced first round, per pair | overhead (median) |")
    print("|---|---|---:|")
    for w in run.WORKLOADS:
        each = ", ".join(f"{r:.3f}" for r in ratios[w])
        print(f"| {w} | {each} | {100 * (harness.median(ratios[w]) - 1):+.1f}% |")
    print(f"\nmachine: {traced[run.WORKLOADS[0]]['machine']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
