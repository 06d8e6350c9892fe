# The commuting-differential-operator structure: each truncated composition
# shares its eigenfunctions with a differential operator whose spectrum grows
# like n^2, making the exponentially ill-conditioned eigenbasis computable
# through a perfectly conditioned Galerkin problem.
#
#   python3 demos/commuting_operators.py

from illposed import (Interval, OperatorKind, SignVariant,
                      assemble_bertero_grunbaum, assemble_fourth_order,
                      assemble_prolate, converged_mode_count, gram_matrix,
                      growth_check, half_line_for, make_grid,
                      match_eigenfunctions)

ab = Interval(1, 2)

print("== Laplace composition vs its second-order operator ==")
ML = gram_matrix(OperatorKind.laplace_tt(ab), make_grid(ab, 256))
bg = assemble_bertero_grunbaum(ab, 128)
rep = match_eigenfunctions(ML, bg, 10)
print(f"max eigen-equation residual over 10 modes: {rep.max_residual():.2e}")
print(f"commutation residual (matched block):      {rep.commutation_residual:.2e}")
# the operator keeps its eigensystem and its 2N eigenvalues: the match above
# and the converged-mode count below reuse them instead of re-solving
print(f"eigenvalue growth: min lambda_n / n^2 = "
      f"{growth_check(bg.eigensystem.eigenvalues, converged_mode_count(bg)):.4f}")

print("\n== Fourier composition vs the prolate operator ==")
MF = gram_matrix(OperatorKind.fourier_tt(), make_grid(Interval(-1, 1), 256))
pro = assemble_prolate(128)
repF = match_eigenfunctions(MF, pro, 10)
print(f"max residual: {repF.max_residual():.2e}   "
      f"commutation: {repF.commutation_residual:.2e}")

print("\n== negative control: Bertero-Grunbaum against the Hilbert kernel on [1, 2] ==")
MN = gram_matrix(OperatorKind.hilbert_truncated(ab, Interval(3, 4)), make_grid(ab, 256))
repN = match_eigenfunctions(MN, bg, 10)
print(f"commutation residual for the mismatched pair: "
      f"{repN.commutation_residual:.2e}  (orders of magnitude worse)")

print("\n== adjoint composition: which fourth-order sign variant commutes? ==")
half = half_line_for(ab)
MH = gram_matrix(OperatorKind.laplace_adjoint_tt(ab), make_grid(half, 64))
for variant in SignVariant:
    op = assemble_fourth_order(ab, half, 48, variant)
    conv = converged_mode_count(op)
    if conv >= 4:
        r = match_eigenfunctions(MH, op, min(10, conv), converged=conv)
        print(f"  {variant.value:6s}: {conv:2d} converged modes, "
              f"commutation {r.commutation_residual:.2e}")
    else:
        print(f"  {variant.value:6s}: {conv:2d} converged modes (spectrum unstable)")
print("(the positive quadratic form is the one that commutes; the printed")
print(" operator's sign pattern does not produce a stable spectrum)")
