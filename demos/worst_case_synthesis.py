# Worst-case synthesis: how invisible can a function be made to a truncated
# transform?  Grow an orthonormal sine family, minimize the image-energy
# Gramian, and watch the smallest achievable ratio ||T f||^2 / ||f||^2
# collapse exponentially with the subspace dimension.
#
#   python3 demos/worst_case_synthesis.py

import numpy as np

from illposed import (FigureId, Interval, OperatorKind, build_gramian,
                      gram_matrix, make_grid, reproduce_figure, sample,
                      worst_function)
from illposed.adversarial import FIGURES
from illposed.problem import Problem

op = OperatorKind.hilbert_truncated(Interval(0, 1), Interval(2, 3))
M = gram_matrix(op, make_grid(Interval(0, 1), 256))  # every basis size reuses it

print("smallest Gramian eigenvalue vs sine-basis size (Hilbert, gap [1,2]):")
for n in range(1, 10):
    rep = build_gramian(M, n)  # the first n orthonormal sines on M's grid
    print(f"  n={n}:  min eig = {rep.min_eigenvalue:.3e}")

rep = build_gramian(M, 6)
f = worst_function(rep)
print("\nworst 6-mode combination (coefficients):")
print(" ", np.array2string(rep.minimizer_coefficients, precision=5))
xs = np.linspace(0, 1, 9)
print("  sampled f:", np.array2string(sample(f, xs), precision=4))

print("\nbuilt-in reference figures (printed plot coefficients):")
for fid in (FigureId.FIG1, FigureId.FIG2, FigureId.FIG3):
    rec = reproduce_figure(fid, Problem(FIGURES[fid].operator))
    print(f"  figure {rec['figure']}: computed {rec['computed_ratio']:.3e}  "
          f"claimed {rec['claimed_ratio']:.0e}  pass={rec['pass']}")
print("\n(figures 1 and 3 are expected to miss their captioned ratios: the")
print(" printed coefficients carry a sign typo / rounding floor; see README)")
