"""Weyl test functionals: spectral averages vs symbol averages.

For a matrix family with symbol kappa, the average (1/n) sum F(lambda_i)
of a compactly supported test function over the spectrum converges to the
domain average of F(kappa).  The gaps below shrink as n grows for every
registered case -- including the Schur complement and the generalized
eigenproblem pencil, whose symbols are genuine quotients.
"""
from gltkit import get_case, weyl_compare

CASES = [
    ("fd_t1", "xexp"),   # divergence-form diffusion
    ("fd_t6", "xexp"),   # fourth derivative (similar to symmetric)
    ("fe_t1", "xexp"),   # FE stiffness, normalized by 1/(n+1)
    ("schur", "one"),    # rho M + H^T K^{-1} H, normalized by n+1
    ("Ln", "xexp"),      # pencil (K, M), normalized by (n+1)^-2
]

for name, coeff in CASES:
    case = get_case(name, coeff)
    print(f"\n{name} (coeff {coeff}), symbol {case.predicted_symbol}, alpha = {case.alpha_text}")
    print(f"  {'F':>14} {'gap n=100':>12} {'gap n=400':>12}")
    r100 = weyl_compare(case, 100, quad_res=300)
    r400 = weyl_compare(case, 400, quad_res=300)
    for g1, g4 in zip(r100.functionals, r400.functionals):
        print(f"  {g1.label:>14} {g1.gap:>12.3e} {g4.gap:>12.3e}")
    print(f"  backing: {r400.backing}; quadrature {r400.quad_rule} at "
          f"{r400.quad_res} (refinement gap {r400.quad_refinement:.1e})")
