"""Lower-order terms and boundary conditions do not move the symbol.

Adding convection b(x) u' and reaction c(x) u to the diffusion equation
perturbs the matrix by Z_n with ||Z_n||_2 = o(n^(1/2)); switching Dirichlet
to Neumann data adds a rank-2 boundary correction R_n.  Both families are
zero-distributed, so the convection-diffusion-reaction matrices share the
diffusion symbol a(x)(2 - 2 cos theta).  The trend checks quantify this,
and the identity sequence shows what failure looks like.
"""
import numpy as np

from gltkit import (
    coefficient_preset, fd_cdr_dirichlet, fd_cdr_neumann,
    rearrangement_compare, zero_distribution_check,
)
from gltkit.linalg import as_dense

one = coefficient_preset("one")
xexp = coefficient_preset("xexp")
ns = (100, 200, 400, 800)

case = fd_cdr_dirichlet(xexp, one, one)
rep = zero_distribution_check(lambda n: case.companions["Z"](n), ns, p=2)
print("convection+reaction correction, ||Z||_2 / sqrt(n):")
print("  ", [f"{r:.3e}" for r in rep.ratios], "->", "PASS" if rep.overall_pass else "FAIL")

neumann = fd_cdr_neumann(xexp, one, one)
rep = zero_distribution_check(
    lambda n: as_dense(neumann.companions["Z"](n)) + as_dense(neumann.companions["R"](n)),
    ns, p=2)
print("with the Neumann boundary correction added:")
print("  ", [f"{r:.3e}" for r in rep.ratios], "->", "PASS" if rep.overall_pass else "FAIL")

rep = zero_distribution_check(lambda n: np.eye(n), ns, p=2)
print("identity sequence (not zero-distributed):")
print("  ", [f"{r:.3e}" for r in rep.ratios], "->", "PASS" if rep.overall_pass else "FAIL")

# consequence: the full nonsymmetric matrix still matches the rearranged
# diffusion symbol (eigenvalues are real thanks to the Hermitian split)
for rep in rearrangement_compare(case, [100, 400], r=2000):
    print(f"rearrangement gap of the full CDR matrix at n={rep.n}: {rep.rearrangement_gap:.4f}")
