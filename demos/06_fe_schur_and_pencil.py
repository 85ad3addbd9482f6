"""FE assembly, the saddle-point Schur complement, and the eigenproblem pencil.

Linear finite elements on the uniform mesh yield tridiagonal stiffness and
mass matrices.  Two derived families get genuinely rational symbols:

* the (negative) Schur complement rho M + H^T K^{-1} H of the saddle-point
  system, with symbol (rho/3)(2 + cos) + sin^2 / (a(x)(2 - 2cos));
* the generalized eigenproblem pencil (K(a), M(c)), whose normalized
  eigenvalues follow (a/c)(6 - 6cos)/(2 + cos).

The Ln case builds the operand Pencil(K, M), whose M is checked SPD when it
is made; real_eigvals solves it in band storage with LAPACK dsbgv (split
Cholesky of M, Crawford's band-preserving reduction), never forming
M^{-1} K.  The Schur case builds S = T + s u u^T from the element
integrals of a (a tridiagonal T plus a rank-one term, exactly equal to
rho M + H^T K^{-1} H), which real_eigvals solves as one n x n band pencil
without forming S or K^{-1}.  Both are solved unscaled, and the case
multiplies the eigenvalues by alpha_n once.
"""
import numpy as np

from gltkit import (
    as_dense, coefficient_preset, fe_gradient_coupling, fe_mass, fe_stiffness,
    get_case, rearrangement_compare, weyl_compare,
)

one = coefficient_preset("one")
n = 5
h = 1.0 / (n + 1)
print("stiffness K_5(1) * h:")
print(np.round(as_dense(fe_stiffness(one, n)) * h, 6))
print("mass M_5(1) * 6/h:")
print(np.round(as_dense(fe_mass(one, n)) * 6 / h, 6))

schur = get_case("schur", "one")          # rho defaults to 1
print(f"\nSchur case, symbol {schur.predicted_symbol}:")
# the identity: T + s u u^T against rho M + H^T K^{-1} H formed densely
n = 60
K, H = as_dense(fe_stiffness(one, n)), as_dense(fe_gradient_coupling(n))
dense = as_dense(fe_mass(one, n)) + H.T @ np.linalg.solve(K, H)
print(f"  n={n}: max |T + s u u^T - (M + H^T K^-1 H)| / max |S| = "
      f"{np.max(np.abs(as_dense(schur.build(n)) - dense)) / np.max(np.abs(dense)):.1e}, "
      f"solver {schur.spectrum(n).solver}")
for rep in weyl_compare(schur, [100, 400], quad_res=300):
    print(f"  n={rep.n}: max functional gap {rep.max_gap():.3e}")

pencil = get_case("Ln", "xexp")           # c defaults to one
print(f"\npencil case, symbol {pencil.predicted_symbol}:")
for rep in rearrangement_compare(pencil, [100, 400], r=2000):
    print(f"  n={rep.n}: rearrangement gap {rep.rearrangement_gap:.4f}, "
          f"outliers {rep.outlier_count}")

# constant coefficients: pencil eigenvalues are exact symbol samples
exact = get_case("Ln", "one")
ev = exact.spectrum(6).values
th = np.arange(1, 7) * np.pi / 7
print("\nexact pencil check (a = c = 1), max err:",
      np.max(np.abs(ev - np.sort((6 - 6*np.cos(th)) / (2 + np.cos(th))))))
