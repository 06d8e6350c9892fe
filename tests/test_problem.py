"""Problem's resolution policy: its defaults and its ranges, checked where they are read,
and each refusal text written once."""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from illposed import (ExpPoly, FunctionKind, FunctionRep, HalfLineDomain, Interval,
                      InvalidArgumentError, OperatorKind, assemble_prolate, build_gramian,
                      decompose_operator, fit_decay, half_line_for, make_grid, make_rng)
from illposed import problem
from illposed.acceptance import Suite
from illposed.adversarial import FIGURES, FigureId
from illposed.errors import REFUSALS
from illposed.problem import Problem
from illposed.spectral import EXP_DECAY

ADJOINT = OperatorKind.laplace_adjoint_tt(Interval(1.0, 2.0))
LAPLACE = OperatorKind.laplace_tt(Interval(1.0, 2.0))


@pytest.mark.parametrize("sizes,message", [
    # unchecked, the adjoint's half-line grid clamps n silently: 128 nodes
    # for n = 0 and 1,024 for n = 1,025
    (dict(n=0), "n must be in [1, 1024], the grid-size cap"),
    (dict(n=1025), "n must be in [1, 1024], the grid-size cap"),
    (dict(m=0), "m must be a positive integer"),
    (dict(m=-3), "m must be a positive integer"),
    (dict(N=2), "N must be in [4, 512]"),
    (dict(N=513), "N must be in [4, 512]"),
], ids=["n0", "n1025", "m0", "m-3", "N2", "N513"])
def test_problem_refuses_a_size_out_of_range_when_it_is_built(sizes, message):
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        Problem(ADJOINT, **sizes)


def test_ensemble_count_and_seed_are_refused_before_the_fit(monkeypatch):
    p = Problem(LAPLACE)
    monkeypatch.setattr(Problem, "fit", property(lambda self: pytest.fail("fit was built")))
    with pytest.raises(InvalidArgumentError, match="count must be a positive integer"):
        p.verify(-5, 1)
    with pytest.raises(InvalidArgumentError, match="seed must be a nonnegative integer"):
        p.verify(5, -1)
    with pytest.raises(InvalidArgumentError, match="seed must be a nonnegative integer"):
        make_rng(-1)


def test_each_range_is_checked_only_by_the_module_that_reads_it():
    # the CLI declares options and holds no policy: n, N, m and the count are
    # refused by problem, the seed by stability, and cli raises nothing itself
    src = Path(problem.__file__).parent
    # the N range is matched both as its literal and as its source spelling
    texts = {"problem.py": (r"n must be in \[1, ", r"N must be in \[(4|\{MIN_TRIAL\}), ",
                            "m must be a positive integer", "count must be a positive integer"),
             "stability.py": ("seed must be a nonnegative integer",)}
    for reader, patterns in texts.items():
        for pattern in patterns:
            holders = [p.name for p in sorted(src.glob("*.py"))
                       if re.search(pattern, p.read_text())]
            assert holders == [reader], pattern
    assert "InvalidArgumentError" not in (src / "cli.py").read_text()


@pytest.mark.parametrize("name,read,bad,good", [
    ("n", lambda v: Problem(LAPLACE, n=v).grid, 100.5, np.int64(64)),
    ("N", lambda v: Problem(LAPLACE, N=v).diff, 64.5, np.int32(16)),
    ("m", lambda v: Problem(LAPLACE, m=v), 2.5, np.int16(3)),
    ("count", lambda v: Problem(LAPLACE).verify(v, 1), 2.5, np.int64(3)),
    ("seed", make_rng, 1.5, np.uint8(7)),
    ("basis size", lambda v: build_gramian(Problem(LAPLACE).matrix, v), 2.5, np.int64(4)),
    ("n", lambda v: make_grid(Interval(0, 1), v), 2.5, np.int64(8)),
    ("N", assemble_prolate, 8.5, np.int32(8)),
], ids=["n", "N", "m", "count", "seed", "basis-size", "make-grid-n", "prolate-N"])
def test_a_size_or_seed_that_is_not_an_integer_is_refused_by_name(name, read, bad, good):
    # unchecked, each bad value failed inside numpy or Python with a TypeError,
    # which no command reports as a refusal; numpy integers are integers
    with pytest.raises(InvalidArgumentError) as exc:
        read(bad)
    assert str(exc.value) == f"{name} must be an integer, got {bad!r}"
    read(good)


# What builds a refusal: the classes a command reports, and the trace refusal's helper.
REFUSAL_BUILDERS = {cls.__name__ for cls in REFUSALS} | {"_trace_refusal"}


def _refusal_texts(path: Path):
    """The first argument of every refusal construction in path that is a
    text, an f-string's fields written as {}."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in REFUSAL_BUILDERS
                and node.args):
            text = node.args[0]
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                yield text.value
            elif isinstance(text, ast.JoinedStr):
                yield "".join(v.value if isinstance(v, ast.Constant) else "{}"
                              for v in text.values)


def test_each_refusal_text_is_written_once():
    # one rule, one text: a refusal that two functions both raise is written
    # in one of them, or in a helper that both call
    src = Path(problem.__file__).parent
    texts = Counter(t for p in sorted(src.glob("*.py")) for t in _refusal_texts(p))
    assert {"basis size must be >= 1", "Laplace operators require 0 < a < b",
            "trial space needs N >= {}",
            "half factor of {} disagrees with its kernel matrix"} <= set(texts)
    assert [t for t, count in texts.items() if count > 1] == []


# A field of each class whose fields are set once, by class name.
IMMUTABLE = {"Interval": "a", "HalfLineDomain": "s_max", "QuadGrid": "nodes",
             "FunctionRep": "payload", "ExpPoly": "rate", "OperatorKind": "tag",
             "KindRecord": "factor", "OperatorMatrix": "half_factor",
             "SpectralDecomposition": "eigenvalues", "GalerkinOperator": "refined_stiffness",
             "IntegralSpectrum": "eigenvalues", "ModeMatch": "residual", "MatchReport": "records",
             "DecayFit": "slope", "StabilityFit": "c2", "SweepData": "ratios",
             "GramianReport": "min_eigenvalue", "FigureSpec": "operator", "Suite": "laplace"}


@functools.cache
def _immutable_values() -> dict:
    """One value of each immutable class, by class name: the layers of one
    small Problem and what is read from them."""
    p = Problem(LAPLACE, 128, 64)
    ab, spectrum = p.kind.source, decompose_operator(p.matrix)
    values = [ab, half_line_for(ab), p.grid, FunctionRep(FunctionKind.SINE_SERIES, [1.0], ab),
              ExpPoly([1.0], 1.0), p.kind, p.kind.record, p.matrix, p.diff.eigensystem, p.diff,
              spectrum, p.report.records[0], p.report, fit_decay(spectrum, EXP_DECAY), p.fit,
              p.sweep, build_gramian(p.matrix, 4), FIGURES[FigureId.FIG2], Suite(0, p, p, p)]
    return {type(v).__name__: v for v in values}


@pytest.mark.parametrize("name", IMMUTABLE)
def test_no_field_of_an_immutable_value_can_be_assigned_or_deleted(name):
    value, field = _immutable_values()[name], IMMUTABLE[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("make,other", [
    (lambda: Interval(1.0, 2.0), Interval(1.0, 3.0)),
    (lambda: HalfLineDomain(40.0), HalfLineDomain(20.0)),
    (lambda: OperatorKind.hilbert_truncated(Interval(0.0, 1.0), Interval(2.0, 3.0)),
     OperatorKind.hilbert_truncated(Interval(0.0, 1.0), Interval(2.0, 4.0))),
], ids=["Interval", "HalfLineDomain", "OperatorKind"])
def test_equal_values_compare_and_hash_equal(make, other):
    # domains are compared once per checked function, and a figure's
    # operator against its caller's kind: by value, not by identity
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and not a == other
    assert Interval(0.0, 40.0) != HalfLineDomain(40.0)
