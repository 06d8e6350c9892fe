"""Per-layer tracing of illposed, installed from outside the package.

`traced()` replaces the package's public functions at every module
attribute (and module-level list or dict entry) that refers to them, so
calls between modules are seen too, and puts the originals back on exit.
Nothing under src/ is edited.  A span keeps its caller's span open, so a
layer's self time is its duration minus the time of the traced spans it
called.  Spans live in memory; `Tracer.stats` is the aggregate by name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

# Layers reported by self time, as `<module>.<function>_s`.
SELF_TIMED = [
    ("domains", "make_grid"),
    ("integral_ops", "gram_matrix"),
    ("integral_ops", "quadratic_form"),
    ("integral_ops", "fourier_image_energy"),
    ("diff_ops", "assemble_bertero_grunbaum"),
    ("diff_ops", "assemble_prolate"),
    ("diff_ops", "assemble_fourth_order"),
    ("diff_ops", "project_coefficients"),
    ("spectral", "decompose_operator"),
    ("spectral", "converged_mode_count"),
    ("spectral", "match_eigenfunctions"),
    ("spectral", "eig_sym"),
    ("spectral", "fit_decay"),
    ("adversarial", "build_gramian"),
    ("adversarial", "reproduce_figure"),
    ("stability", "eigenfunction_sweep"),
    ("stability", "fit_constants_from_sweep"),
]
# Also timed as spans, but reported by whole duration or summed.
SPANS = SELF_TIMED + [
    ("stability", "verify_theorem"),
    ("stability", "verify_lemma1"),
    ("stability", "verify_lemma2"),
    ("stability", "verify_lemma3"),
    ("output", "write_json"),
    ("output", "write_text"),
] + [("acceptance", f"criterion_{i:02d}") for i in range(1, 13)]

# Small functions called thousands of times: counted, not timed, so that
# their callers' self time is not cut into slivers.
COUNTED = [
    ("functions", "l2_norm"),
    ("functions", "h1_seminorm"),
    ("stability", "lemma3_prefactor"),
]

CLI_SUBCOMMANDS = ("spectrum", "match", "adversarial", "figures", "verify", "report-all")


def _svd_flops(shape) -> float:
    """R-SVD operation count 6 m n^2 + 20 n^3 (m >= n) for a thin SVD with
    both singular-vector sets (Golub and Van Loan, table 5.4.1)."""
    m, n = max(shape), min(shape)
    return 6.0 * m * n * n + 20.0 * n ** 3


def _on_gram_matrix(tracer, args, result):
    kind, grid = args[0], args[1]
    tracer.keys.setdefault("integral_ops.gram_matrix", set()).add(
        (kind.to_string(), grid.size, repr(grid.domain)))


def _on_decompose(tracer, args, result):
    tracer.add("spectral.decompose_operator", "flops", _svd_flops(args[0].half_factor.shape))


def _on_converged(tracer, args, result):
    tracer.add("spectral.converged_mode_count", "modes", int(result))


def _on_verify_theorem(tracer, args, result):
    tracer.add("stability.verify_theorem", "functions", len(result))
    tracer.add("stability.verify_theorem", "errors", sum(1 for r in result if r.error))


def _on_write(tracer, args, result):
    tracer.add("output.write", "bytes", os.path.getsize(args[0]))


HOOKS = {
    "integral_ops.gram_matrix": _on_gram_matrix,
    "spectral.decompose_operator": _on_decompose,
    "spectral.converged_mode_count": _on_converged,
    "stability.verify_theorem": _on_verify_theorem,
    "output.write_json": _on_write,
    "output.write_text": _on_write,
}


class Tracer:
    """Span stack and per-name aggregates: calls, self and total seconds."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.keys: dict[str, set] = {}
        self._stack: list[list] = []  # [name, start, child seconds]

    def add(self, name: str, field: str, amount: float) -> None:
        stat = self.stats.setdefault(name, {"calls": 0, "self": 0.0, "total": 0.0})
        stat[field] = stat.get(field, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            duration = time.perf_counter() - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            self.add(name, "calls", 1)
            self.add(name, "self", duration - frame[2])
            self.add(name, "total", duration)

    def snapshot(self) -> dict:
        """Aggregates plus distinct-key counts, as plain JSON-ready data."""
        out = {name: dict(stat) for name, stat in self.stats.items()}
        for name, keys in self.keys.items():
            out.setdefault(name, {"calls": 0, "self": 0.0, "total": 0.0})["distinct"] = len(keys)
        return out

    def _timed(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, "calls", 1)
            return fn(*args, **kwargs)
        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install wrappers around every traced illposed function; undo on exit."""
    replace = {}
    for table, make in ((SPANS, tracer._timed), (COUNTED, tracer._counted)):
        for module, func in table:
            original = getattr(importlib.import_module(f"illposed.{module}"), func)
            replace[id(original)] = make(f"{module}.{func}", original)
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "illposed" or name.startswith("illposed.")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in replace:
                undo.append((setattr, mod, attr, value))
                setattr(mod, attr, replace[id(value)])
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if id(item) in replace:
                        undo.append((list.__setitem__, value, i, item))
                        value[i] = replace[id(item)]
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replace:
                        undo.append((dict.__setitem__, value, key, item))
                        value[key] = replace[id(item)]
    try:
        yield tracer
    finally:
        for setter, target, key, original in reversed(undo):
            setter(target, key, original)


# ----------------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------------

def merge(snapshots) -> dict:
    """Sum snapshots (one per process) field by field."""
    out: dict = {}
    for snap in snapshots:
        for name, stat in snap.items():
            agg = out.setdefault(name, {})
            for field, value in stat.items():
                agg[field] = agg.get(field, 0) + value
    return out


def layer_metrics(stats: dict, import_s: float) -> dict:
    """The benchmark's per-layer metrics from aggregated span statistics.

    `_s` is self time, except criteria and cli.main (whole duration) and
    `_s_per_1k` (whole duration per 1000 functions).  A layer the workload
    does not run reads 0.
    """
    def get(name, field="self"):
        return float(stats.get(name, {}).get(field, 0.0))

    def per_1k(name, count):
        return 1000.0 * get(name, "total") / count if count else 0.0

    out = {"import.illposed_s": (import_s, "s")}
    for module, func in SELF_TIMED:
        out[f"{module}.{func}_s"] = (get(f"{module}.{func}"), "s")
    gram_calls = get("integral_ops.gram_matrix", "calls")
    distinct = get("integral_ops.gram_matrix", "distinct")
    out["integral_ops.gram_matrix_calls"] = (gram_calls, "count")
    out["integral_ops.gram_matrix_repeat_ratio"] = (
        gram_calls / distinct if distinct else 0.0, "ratio")
    for name in ("integral_ops.quadratic_form", "diff_ops.assemble_fourth_order"):
        out[f"{name}_calls"] = (get(name, "calls"), "count")
    out["spectral.decompose_operator_gflop"] = (
        get("spectral.decompose_operator", "flops") / 1e9, "GFLOP")
    out["spectral.certified_modes"] = (get("spectral.converged_mode_count", "modes"), "count")
    out["spectral.eig_sym_calls"] = (get("spectral.eig_sym", "calls"), "count")
    theorem_n = get("stability.verify_theorem", "functions")
    out["stability.verify_theorem_s_per_1k"] = (
        per_1k("stability.verify_theorem", theorem_n), "s")
    out["stability.verify_theorem_errors"] = (get("stability.verify_theorem", "errors"), "count")
    for lemma in ("verify_lemma1", "verify_lemma2", "verify_lemma3"):
        name = f"stability.{lemma}"
        out[f"{name}_s_per_1k"] = (per_1k(name, get(name, "calls")), "s")
    out["stability.lemma3_prefactor_calls"] = (get("stability.lemma3_prefactor", "calls"), "count")
    out["functions.l2_norm_calls"] = (get("functions.l2_norm", "calls"), "count")
    out["functions.h1_seminorm_calls"] = (get("functions.h1_seminorm", "calls"), "count")
    for i in range(1, 13):
        out[f"acceptance.criterion_{i:02d}_s"] = (get(f"acceptance.criterion_{i:02d}", "total"), "s")
    for sub in CLI_SUBCOMMANDS:
        name = f"cli.main_{sub.replace('-', '_')}"
        calls = get(name, "calls")
        out[f"{name}_s"] = (get(name, "total") / calls if calls else 0.0, "s")
    out["output.write_s"] = (get("output.write_json") + get("output.write_text"), "s")
    out["output.bytes_written"] = (get("output.write", "bytes"), "bytes")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
