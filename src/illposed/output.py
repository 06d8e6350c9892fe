"""Deterministic JSON/CSV/SVG writers.

Identical inputs must produce byte-identical files: floats are always
rendered with 17 significant digits, dict ordering is insertion order, and
nothing time- or path-dependent is embedded.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

from .errors import InvalidArgumentError

SCHEMA = "illposed/1"


def fmt_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return '"%s"' % x
    return f"{x:.17g}"


def json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {json_dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, (int,)):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot write a {type(obj).__name__} as JSON")


def write_json(path: str, obj: dict) -> None:
    doc = {"schema": SCHEMA}
    doc.update(obj)
    with open(path, "w") as fh:
        fh.write(json_dumps(doc) + "\n")


def write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """A header line of column names, then one line per row: ints as str,
    floats as fmt_float."""
    lines = [",".join(header)]
    lines += [",".join(fmt_float(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def ensure_out_dir(out_dir: str) -> str:
    """The output directory, ILLPOSED_OUT_DIR over out_dir, made if missing.
    A path that cannot be a directory (an existing file, a path under a
    file, no permission) is refused by name."""
    out_dir = os.environ.get("ILLPOSED_OUT_DIR", out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InvalidArgumentError(
            f"cannot make output directory {out_dir}: {exc.strerror}") from None
    return out_dir


# ----------------------------------------------------------------------------
# Minimal self-contained SVG plotting (polyline + axes, no external renderer)
# ----------------------------------------------------------------------------

_W, _H, _PAD = 640, 400, 50


def _scale(vals, lo, hi, out_lo, out_hi):
    if hi == lo:
        hi = lo + 1.0
    return [out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo) for v in vals]


def write_plot(path: str, xs, ys, color: str, title: str, xlabel: str,
               ylabel: str) -> None:
    """One polyline through the points (xs, ys), in plot coordinates, with
    its axes and their ranges, as a self-contained SVG."""
    xs, ys = list(xs), list(ys)
    x0, x1 = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y0, y1 = (min(ys), max(ys)) if ys else (0.0, 1.0)
    px = _scale(xs, x0, x1, _PAD, _W - _PAD)
    py = _scale(ys, y0, y1, _H - _PAD, _PAD)
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" stroke="black"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_H // 2})">{ylabel}</text>',
        f'<text x="{_PAD}" y="{_H - _PAD + 16}" font-size="10">{x0:.4g}</text>',
        f'<text x="{_W - _PAD}" y="{_H - _PAD + 16}" text-anchor="end" font-size="10">{x1:.4g}</text>',
        f'<text x="{_PAD - 4}" y="{_H - _PAD}" text-anchor="end" font-size="10">{y0:.4g}</text>',
        f'<text x="{_PAD - 4}" y="{_PAD + 4}" text-anchor="end" font-size="10">{y1:.4g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>',
        "</svg>",
    ]
    write_text(path, "\n".join(parts) + "\n")
