"""Diffusion on a mapped grid: unbounded symbols and windowed comparisons.

Mapping the uniform mesh through G(x) = x^2 concentrates grid points near
zero.  The normalized matrices (1/(n+1)) A_{G,n} have symbol
a(G(x)) (2 - 2 cos theta) / G'(x), which blows up at the singularity
G'(0) = 0: the rearrangement comparison refuses (the essential supremum is
infinite), while Weyl comparisons against hat functions supported on a
bounded window remain meaningful and converge.
"""
from gltkit import UnboundedSymbolError, get_case, hat, rearrangement_compare, weyl_compare

case = get_case("fd_t7:q=2", "one")
print(f"case: {case.tag}")
print(f"symbol: {case.predicted_symbol}   (bounded: {case.predicted_symbol.bounded})")

try:
    rearrangement_compare(case, 100)
except UnboundedSymbolError as exc:
    print(f"\nrearrangement correctly refuses: {exc}")

hats = [hat(c, 2.0) for c in range(1, 20, 2)]
print("\nsigma-mode hat functionals on the window [0, 20]:")
print(f"  {'F':>12} {'gap n=200':>12} {'gap n=800':>12}")
r200 = weyl_compare(case, 200, F_suite=hats, mode="sigma", quad_res=400)
r800 = weyl_compare(case, 800, F_suite=hats, mode="sigma", quad_res=400)
for g2, g8 in zip(r200.functionals, r800.functionals):
    print(f"  {g2.label:>12} {g2.gap:>12.3e} {g8.gap:>12.3e}")
print(f"max gap decay factor: {r200.max_gap() / r800.max_gap():.2f}")
