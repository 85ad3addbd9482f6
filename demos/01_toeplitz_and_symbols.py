"""Toeplitz matrices generated by trigonometric polynomials.

The n-th Toeplitz matrix of a trig polynomial f places the Fourier
coefficient f_{i-j} at entry (i, j).  For the second-difference stencil
(-1, 2, -1) the symbol is f(theta) = 2 - 2 cos(theta) and the eigenvalues
are exactly the symbol samples 2 - 2 cos(k pi / (n+1)) -- the cleanest
instance of "eigenvalues = symbol samples" that the whole library revolves
around.
"""
import numpy as np

from gltkit import (
    LAPLACE_SYMBOL, FOURTH_DERIVATIVE_SYMBOL, SIN_SYMBOL,
    as_dense, sym_eigvals, toeplitz,
)

n = 8
T = toeplitz(LAPLACE_SYMBOL, n)
print("T_8(2-2cos), first rows:")
print(as_dense(T)[:3])

ev = sym_eigvals(T).values
samples = np.sort(2 - 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
print("\neigenvalues:      ", np.round(ev, 6))
print("symbol samples:   ", np.round(samples, 6))
print("max difference:   ", np.max(np.abs(ev - samples)))

# the fourth-derivative stencil (1,-4,6,-4,1) has symbol q = 6 - 8cos + 2cos2;
# q has a fourth-order zero at theta = 0, matching the operator order
th = np.array([1e-1, 1e-2, 1e-3])
print("\nq(theta)/theta^4 ->", FOURTH_DERIVATIVE_SYMBOL(th) / th**4)

# sin(theta) has Hermitian complex coefficients: T_n(sin) is complex but
# -i T_n(sin) is the real gradient-coupling matrix (1/2) tridiag(-1, 0, 1)
H = -1j * as_dense(toeplitz(SIN_SYMBOL, 5))
print("\n-i T_5(sin) is real:", np.allclose(H.imag, 0))
print(H.real)
