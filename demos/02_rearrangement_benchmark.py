"""The rearrangement benchmark: eigenvalues vs the rearranged symbol.

The variable-coefficient diffusion matrix with a(x) = x e^{-x} has symbol
kappa(x, theta) = a(x)(2 - 2 cos theta).  Sampling kappa on a uniform
lattice of [0,1] x [0,pi], sorting, and interpolating gives the monotone
rearrangement kappa^dag; the sorted eigenvalues of A_n track the samples
kappa^dag(i/n) with a sup-norm gap that shrinks roughly like 1/n.  The gap
column below reproduces the published reference table digit for digit.
"""
import numpy as np

from gltkit import (fd_diffusion, coefficient_preset, monotone_rearrangement,
                    rearrangement_compare, rearrangement_nodes)
from gltkit.cli import TABLE2_REFERENCE

case = fd_diffusion(coefficient_preset("xexp"))
# built for the nodes i/n of the table's n's (50 among them, for the overlay):
# only the sorted samples read there are kept, not all 25M
rearr = monotone_rearrangement(case.predicted_symbol, ((0, 1), (0, np.pi)), r=5000,
                               ts=rearrangement_nodes(TABLE2_REFERENCE))
print(f"rearrangement built from {rearr.r}^2 lattice samples; "
      f"essential range [{rearr.ess_inf:.4f}, {rearr.ess_sup:.4f}] (4/e = {4/np.e:.4f})")

print(f"\n{'n':>6} {'gap':>9} {'reference':>10} {'outliers':>9}")
for n in sorted(TABLE2_REFERENCE):
    rep = rearrangement_compare(case, n, rearr=rearr)
    print(f"{n:>6} {rep.rearrangement_gap:>9.4f} {TABLE2_REFERENCE[n]:>10.4f} "
          f"{rep.outlier_count:>9}")

# the overlay data behind the classic eigenvalues-on-the-curve picture
rep = rearrangement_compare(case, 50, rearr=rearr)
t, s, e = rep.overlay
np.savetxt("rearrangement_overlay_n50.csv",
           np.column_stack([t, s, e]), delimiter=",",
           header="t,rearrangement,eigenvalue", comments="")
print("\noverlay for n=50 written to rearrangement_overlay_n50.csv")
