"""Shared pieces of the workloads: paths, child processes, rounds, checks."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

# One BLAS thread, set before numpy is imported, here and in every child.
# With two threads on this two-core class of machine, any other load on the
# second core stalls every BLAS call: the spectra round time spread 12%
# between runs with two threads and 1% with one.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import illposed; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    """Environment of every child: the checkout's src first, fixed BLAS
    threads, and no output-directory override."""
    env = dict(os.environ)
    env.pop("ILLPOSED_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(argv, timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run a Python child from the checkout root and wait for it to end."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def import_seconds() -> float:
    """Time of `import illposed` in a fresh process, measured inside it."""
    proc = run_child(["-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise RuntimeError(f"import illposed failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed(fn):
    """(result, seconds) of one call."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class SetUps:
    """Timed set-ups: a fresh-process `import illposed` plus `build()` in this
    process, each recorded as (import seconds, import + build seconds)."""

    def __init__(self, build, every: float):
        self.build, self.every = build, every
        self.times, self.spent, self.last = [], 0.0, 0.0

    def __call__(self):
        t0 = time.perf_counter()
        import_s = import_seconds()
        built, build_s = timed(self.build)
        self.times.append((import_s, import_s + build_s))
        self.last = time.perf_counter()
        self.spent += self.last - t0
        return built

    def between(self) -> None:
        """Called between two operations of a round: set up once more if
        `every` seconds have passed since the last set-up."""
        if time.perf_counter() - self.last >= self.every:
            self()


def measure(build, round_fn, seconds: float, single: bool, before: int, every: float):
    """Set up and run whole rounds: (set-up times, round results).

    `before` set-ups run first, and `round_fn(built, between, r)` gets the
    object of the last one.  Rounds repeat until `seconds` of round time have
    passed; a round calls `between()` between its operations, which sets up
    again every `every` seconds, and one more set-up follows the last round.
    So the set-up median covers the same stretch of time as the rounds on a
    machine whose speed drifts.  With `single`, one set-up and one round.
    """
    setups = SetUps(build, math.inf if single else every)
    for _ in range(1 if single else before):
        built = setups()
    setups.spent, results, t0 = 0.0, [], time.perf_counter()
    while not results or (not single and time.perf_counter() - t0 - setups.spent < seconds):
        results.append(round_fn(built, setups.between, len(results)))
    if not single:
        setups()
    return setups.times, results


def median(values) -> float:
    return float(statistics.median(values))


class Checks:
    """Operation counts and the verdicts of the correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.bad = 0

    def op(self, fn, label: str):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 -- any exception is a failed operation
            self.failed += 1
            print(f"FAILED {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def expect(self, ok: bool, label: str) -> None:
        """Record one check of a completed operation's output."""
        if not ok:
            self.bad += 1
            if self.bad <= 20:
                print(f"WRONG {label}", file=sys.stderr)

    def close(self, value: float, reference: float, rtol: float, label: str) -> None:
        err = abs(value - reference) / abs(reference)
        self.expect(err <= rtol, f"{label}: {value!r} vs reference {reference!r} "
                                 f"(relative error {err:.2e} > {rtol:g})")
