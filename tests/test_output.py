"""The writers: every file the package writes, in one module."""

import re
from pathlib import Path

import numpy as np

from illposed import output
from illposed.output import write_csv, write_plot

# svg_plot([([0.0, 0.5, 2.0], [1.0, -3.0, 0.25], "teal")], "three points", "x", "y")
# as the single-series plotter wrote it before write_plot replaced it
THREE_POINTS = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" viewBox="0 0 640 400">\n'
    '<rect width="640" height="400" fill="white"/>\n'
    '<text x="320" y="20" text-anchor="middle" font-size="14">three points</text>\n'
    '<line x1="50" y1="350" x2="590" y2="350" stroke="black"/>\n'
    '<line x1="50" y1="50" x2="50" y2="350" stroke="black"/>\n'
    '<text x="320" y="388" text-anchor="middle" font-size="12">x</text>\n'
    '<text x="14" y="200" text-anchor="middle" font-size="12" '
    'transform="rotate(-90 14 200)">y</text>\n'
    '<text x="50" y="366" font-size="10">0</text>\n'
    '<text x="590" y="366" text-anchor="end" font-size="10">2</text>\n'
    '<text x="46" y="350" text-anchor="end" font-size="10">-3</text>\n'
    '<text x="46" y="54" text-anchor="end" font-size="10">1</text>\n'
    '<polyline points="50.00,50.00 185.00,350.00 590.00,106.25" fill="none" stroke="teal" '
    'stroke-width="1.5"/>\n'
    '</svg>\n'
)


def test_write_plot_of_three_points(tmp_path):
    path = tmp_path / "plot.svg"
    write_plot(str(path), [0.0, 0.5, 2.0], [1.0, -3.0, 0.25], "teal", "three points", "x", "y")
    assert path.read_text() == THREE_POINTS


def test_write_csv_writes_ints_with_str_and_floats_with_17_digits(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ("n", "value"), [(1, 0.1), (np.int64(2), np.float64(1.0) / 3)])
    assert path.read_text() == "n,value\n1,0.10000000000000001\n2,0.33333333333333331\n"


def test_only_output_opens_files_or_formats_17_digits():
    # the one place that decides how a file is written
    src = Path(output.__file__).parent
    writers = [p.name for p in sorted(src.glob("*.py"))
               if "open(" in p.read_text() or "17g" in p.read_text()]
    assert writers == ["output.py"]


def test_only_integral_ops_names_an_operator_kind_or_compares_its_tag():
    # every per-kind decision is read from the kind's record, in one table
    src = Path(output.__file__).parent
    per_kind = re.compile(r"\b(HILBERT|LAPLACE|LAPLACE_ADJOINT|FOURIER)\b"
                          r"|\.tag\s*(==|!=|in\b|not\s+in\b)|(==|!=|\bin)\s*[\w.]*\.tag\b")
    deciders = [p.name for p in sorted(src.glob("*.py")) if per_kind.search(p.read_text())]
    assert deciders == ["integral_ops.py"]
