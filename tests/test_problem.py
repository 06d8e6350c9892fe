"""Problem's resolution policy: its defaults and its ranges, checked where they are read."""

import re
from pathlib import Path

import pytest

from illposed import Interval, InvalidArgumentError, OperatorKind, make_rng
from illposed import problem
from illposed.problem import Problem

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
    texts = {"problem.py": (r"n must be in \[1, ", r"N must be in \[4, ",
                            "m must be a positive integer", "count must be a positive integer"),
             "stability.py": ("seed must be a nonnegative integer",)}
    for reader, patterns in texts.items():
        for pattern in patterns:
            holders = [p.name for p in sorted(src.glob("*.py"))
                       if re.search(pattern, p.read_text())]
            assert holders == [reader], pattern
    assert "InvalidArgumentError" not in (src / "cli.py").read_text()
