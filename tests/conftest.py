import sys

import numpy as np
import pytest

from illposed import (Interval, OperatorKind, assemble_bertero_grunbaum,
                      assemble_prolate, gram_matrix, half_line_for, make_grid)


@pytest.fixture(scope="session")
def ab():
    return Interval(1.0, 2.0)


@pytest.fixture(scope="session")
def grid_ab(ab):
    return make_grid(ab, 256)


@pytest.fixture(scope="session")
def laplace_M(ab, grid_ab):
    return gram_matrix(OperatorKind.laplace_tt(ab), grid_ab)


@pytest.fixture(scope="session")
def fourier_M():
    return gram_matrix(OperatorKind.fourier_tt(), make_grid(Interval(-1.0, 1.0), 256))


@pytest.fixture(scope="session")
def adjoint_M(ab):
    half = half_line_for(ab)
    return gram_matrix(OperatorKind.laplace_adjoint_tt(ab, half), make_grid(half, 64))


@pytest.fixture(scope="session")
def bg128(ab):
    return assemble_bertero_grunbaum(ab, 128)


@pytest.fixture(scope="session")
def prolate128():
    return assemble_prolate(128)


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.PCG64(0xC0FFEE))


@pytest.fixture
def gram_calls(monkeypatch):
    """Grid sizes of the gram_matrix calls made through the package."""
    import illposed.integral_ops
    original, sizes = illposed.integral_ops.gram_matrix, []

    def counted(kind, grid):
        sizes.append(grid.size)
        return original(kind, grid)
    for name, module in list(sys.modules.items()):
        if name.startswith("illposed") and getattr(module, "gram_matrix", None) is original:
            monkeypatch.setattr(module, "gram_matrix", counted)
    return sizes
