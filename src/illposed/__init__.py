"""Numerical toolkit for truncated Hilbert, Laplace and Fourier transforms.

Assembles the self-adjoint compositions of the truncated transforms and
their commuting differential operators, certifies the shared-eigenfunction
structure and spectral decay laws, synthesizes worst-case near-invisible
functions through Gramian minimization, and property-tests the stability
inequalities relating image norms to oscillation ratios.
"""

from .domains import HalfLineDomain, Interval, half_line_for, make_grid
from .errors import (InsufficientDataError, InvalidArgumentError,
                     ModeRangeError, RepresentationError)
from .functions import (ExpPoly, FunctionKind, FunctionRep, h1_seminorm,
                        l2_norm, linear_combination, make_sine_basis)
from .integral_ops import (OperatorKind, fourier_image_energy, gram_matrix,
                           parse_operator, quadratic_form)
from .diff_ops import (SignVariant, assemble_bertero_grunbaum,
                       assemble_fourth_order, assemble_prolate)
from .spectral import (converged_mode_count, decompose_operator, eig_sym,
                       fit_decay, growth_check, match_eigenfunctions,
                       spectrum_to_csv)
from .adversarial import (FigureId, build_gramian, reproduce_figure,
                          worst_function)
from .stability import (eigenfunction_sweep, fit_constants_from_sweep,
                        lemma1_constant, lemma3_prefactor, make_rng,
                        verify_lemma1, verify_lemma2, verify_lemma3,
                        verify_theorem, violation_count)

__version__ = "0.1.0"
