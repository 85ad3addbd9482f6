"""Matrix families from 1-D FD and FE discretizations, with their predicted
symbols and normalizations.

Each family is packaged as a :class:`DiscretizationCase` carrying the matrix
constructor ``build(n)``, the normalization ``alpha(n)`` applied before any
spectral comparison, and the predicted symbol on [0,1] x [-pi,pi].  No case
declares how its spectrum is computed: ``build(n)`` returns a matrix, a
:class:`~gltkit.linalg.Pencil` (K, M) or a
:class:`~gltkit.linalg.RankOneUpdate`, and ``DiscretizationCase.spectrum``
solves it unscaled with :func:`gltkit.linalg.real_eigvals`, which picks the
eigensolver from the operand itself (symmetric band, diagonal similarity to
a symmetric band, the dense nonsymmetric solver with a reality check, the
band pencil solver ``dsbgv``, or the band pencil of a rank-one update), then
multiplies the eigenvalues by alpha_n once.  The returned
:class:`SpectralSet` names the path that ran.  Exact constructions:

* FD diffusion in divergence form on the uniform grid x_j = j h, h = 1/(n+1):
  tridiagonal with row j equal to (-a_{j-1/2}, a_{j-1/2} + a_{j+1/2}, -a_{j+1/2}).
* Lower-order convection/reaction corrections (h/2) tridiag(-b_j, 0, b_j)
  + h^2 diag(c_j), plus two-entry boundary corrections for Neumann data.
* Non-divergence form diag(a_j) T(2-2cos) with its arrow-shaped Hadamard
  symmetrization, the fourth-order scheme (1,-16,30,-16,1)/12 with (-1,2,-1)
  closures, the fourth-derivative scheme (1,-4,6,-4,1), and the mapped-grid
  diffusion matrix with steps h_j = G(j/(n+1)) - G((j-1)/(n+1)).
* FE stiffness/mass/convection matrices for hat functions on the uniform
  mesh, assembled with 5-point Gauss-Legendre quadrature per element, the Schur
  complement rho M + H^T K^{-1} H of the saddle-point system (held, from
  the element integrals of a, as a tridiagonal plus a rank-one term; see
  :func:`fe_system_schur`), and the generalized eigenproblem pencil
  (K(a), M(c)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .linalg import (
    BandedMatrix,
    ComplexSpectrumError,
    Pencil,
    RankOneUpdate,
    SpdError,
    SpectralSet,
    as_dense,
    nonsym_eigvals,
    real_eigvals,
    singular_spectrum,
    sym_eigvals,  # noqa: F401 - perfbench's tracer wraps builders.sym_eigvals by name
)
from .symbols import (FOURTH_DERIVATIVE_SYMBOL, FOURTH_ORDER_LAPLACE_SYMBOL, LAPLACE_SYMBOL,
                      MASS_SYMBOL, SIN_SYMBOL, CoeffFactor, Coefficient, SymbolExpr, TrigFactor,
                      TrigPoly, add, coefficient_preset, divide, multiply)


# ----------------------------------------------------------------------------
# grids and grid maps
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """n points of [0,1] with their deviation from the reference {i/n}."""

    n: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (self.n,):
            raise ValueError("grid needs exactly n points")
        if np.any(np.diff(pts) < 0):
            raise ValueError("grid points must be nondecreasing")
        object.__setattr__(self, "points", pts)

    @property
    def au_deviation(self):
        """m(G_n) = max_i |x_i - i/n|, the asymptotic-uniformity defect."""
        i = np.arange(1, self.n + 1)
        return float(np.max(np.abs(self.points - i / self.n)))


def uniform_grid(n) -> Grid:
    return Grid(n, np.arange(1, n + 1) / n)


def fd_interior_grid(n) -> Grid:
    """The FD interior nodes x_j = j h, h = 1/(n+1), j = 1..n."""
    return Grid(n, np.arange(1, n + 1) * (1.0 / (n + 1)))


def half_node_grid(n, shift) -> Grid:
    """Half-integer FD nodes {(j + shift)/(n+1)} with shift = +-1/2."""
    return Grid(n, (np.arange(1, n + 1) + shift) / (n + 1))


@dataclass(frozen=True)
class GridMap:
    """Increasing bijection G of [0,1] used to map uniform grids."""

    name: str
    G: callable = field(repr=False)
    dG: callable = field(repr=False)
    singularities: tuple = ()

    def __post_init__(self):
        if abs(float(self.G(0.0))) > 1e-12 or abs(float(self.G(1.0)) - 1.0) > 1e-12:
            raise ValueError("grid map must satisfy G(0) = 0 and G(1) = 1")
        probes = np.linspace(0.0, 1.0, 257)
        if np.any(np.asarray(self.dG(probes)) < -1e-12):
            raise ValueError("grid map derivative must be nonnegative")


@cache
def power_map(q: float) -> GridMap:
    """G(x) = x^q; singular at 0 for q > 1 (local refinement near 0).  One
    GridMap per q, so that fd_t7 cases built apart predict equal symbols."""
    if q <= 0:
        raise ValueError("power map needs q > 0")
    sing = (0.0,) if q > 1 else ()
    return GridMap(f"x^{q:g}", lambda x: np.asarray(x) ** q,
                   lambda x: q * np.asarray(x) ** (q - 1.0), sing)


def mapped_grid(gmap: GridMap, n) -> Grid:
    """Interior FD nodes G(j/(n+1)), j = 1..n."""
    return Grid(n, np.asarray(gmap.G(np.arange(1, n + 1) / (n + 1)), dtype=float))


# ----------------------------------------------------------------------------
# elementary constructors
# ----------------------------------------------------------------------------

def _stencil(f: TrigPoly) -> np.ndarray:
    """The coefficients of f, as reals when every imaginary part is at most
    1e-8 in magnitude: the test of np.allclose(imag, 0), without its
    overhead."""
    c = f.coeffs
    return c.real if np.all(np.abs(c.imag) <= 1e-8) else c


def toeplitz(f: TrigPoly, n) -> BandedMatrix:
    """T_n(f) with entries f_{i-j}; banded with bandwidth 2 deg(f) + 1."""
    r = f.degree
    if r >= n:
        raise ValueError("trig polynomial degree must be < n")
    coeffs = _stencil(f)
    diags = {}
    for k in range(-r, r + 1):
        # superdiagonal k holds f_{-k}, subdiagonal |k| holds f_{|k|}
        diags[k] = np.full(n - abs(k), coeffs[r - k])
    return BandedMatrix.from_diagonals(n, diags)


def diag_sampling(a: Coefficient, grid: Grid) -> BandedMatrix:
    """Diagonal sampling matrix diag(a(x_i))."""
    return BandedMatrix.diagonal(np.asarray(a(grid.points), dtype=float))


def arrow_sampling(a: Coefficient, grid: Grid) -> np.ndarray:
    """Arrow-shaped sampling matrix S_ij = a(x_min(i,j))."""
    vals = np.asarray(a(grid.points), dtype=float)
    idx = np.arange(grid.n)
    return vals[np.minimum.outer(idx, idx)]


def _hadamard_with_toeplitz(a_vals: np.ndarray, f: TrigPoly) -> BandedMatrix:
    """Banded S(a) o T_n(f): entry (i,j) = a_min(i,j) * f_{i-j}."""
    n = a_vals.size
    r = f.degree
    c = _stencil(f)
    diags = {0: a_vals * c[r]}
    for k in range(1, r + 1):
        head = a_vals[: n - k]  # min(i, j) index along both k-offset diagonals
        diags[k] = head * c[r - k]
        diags[-k] = head * c[r + k]
    return BandedMatrix.from_diagonals(n, diags)


# ----------------------------------------------------------------------------
# the case container
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscretizationCase:
    """One matrix family with its predicted symbol and normalization.

    ``build(n)`` returns the matrix A_n, a Pencil (K, M) or a
    RankOneUpdate; each spectrum method solves it unscaled through one
    linalg routine and multiplies by ``alpha(n) = (n+1)^alpha_power``.

    ``companions`` declares the Hermitian split: each entry builds one
    correction Y_n and ``build(n)`` minus their sum is symmetric.  ``Z`` and
    ``N`` have ||alpha_n Y_n||_F = o(n^(1/2)), ``R`` rank at most 2.
    """

    name: str
    tag: str
    build: callable = field(repr=False)
    alpha_power: int = 0
    predicted_symbol: SymbolExpr | None = None
    symbol_unbounded: bool = False
    companions: dict = field(default_factory=dict, repr=False)

    def alpha(self, n) -> float:
        k = self.alpha_power
        return float((n + 1) ** k) if k >= 0 else 1.0 / (n + 1) ** -k

    @property
    def alpha_text(self) -> str:
        return {0: "1", 1: "n+1", -1: "1/(n+1)"}.get(self.alpha_power, f"(n+1)^{self.alpha_power}")

    def normalized_dense(self, n):
        return self.alpha(n) * as_dense(self.build(n))

    def _normalized(self, s: SpectralSet, n) -> SpectralSet:
        return replace(s, values=np.sort(self.alpha(n) * s.values))

    def spectrum(self, n) -> SpectralSet:
        """Real eigenvalues of alpha_n A_n through the solver that
        ``real_eigvals`` picks from ``build(n)``; complex spectra raise
        ComplexSpectrumError."""
        try:
            return self._normalized(real_eigvals(self.build(n)), n)
        except ComplexSpectrumError as exc:
            raise ComplexSpectrumError(f"case {self.name} at n={n}: {exc}") from None

    def complex_spectrum(self, n) -> np.ndarray:
        """All eigenvalues of alpha_n A_n from the dense nonsymmetric solver,
        with no structure assumed and no reality check (a Pencil has no dense
        form and raises ValueError)."""
        return self.alpha(n) * nonsym_eigvals(self.build(n))

    def singular_spectrum(self, n) -> SpectralSet:
        """Singular values of alpha_n A_n by :func:`gltkit.linalg.singular_spectrum`."""
        return self._normalized(singular_spectrum(self.build(n)), n)


# ----------------------------------------------------------------------------
# FD families
# ----------------------------------------------------------------------------

def _require_bounded(coef: Coefficient, role: str):
    if not coef.bounded:
        raise ValueError(f"{role} coefficient {coef.name!r} must carry a bounded tag")


def _require_continuous(coef: Coefficient, role: str):
    if coef.regularity != "continuous":
        raise ValueError(f"{role} coefficient {coef.name!r} must carry the continuous tag")


def fd_diffusion_matrix(a: Coefficient, n) -> BandedMatrix:
    h = 1.0 / (n + 1)
    j = np.arange(1, n + 1)
    a_plus = np.asarray(a((j + 0.5) * h), dtype=float)   # a_{j+1/2}
    a_minus = np.asarray(a((j - 0.5) * h), dtype=float)  # a_{j-1/2}
    return BandedMatrix.tridiagonal(a_plus + a_minus, -a_plus[:-1], -a_plus[:-1])


def fd_lower_order_matrix(b: Coefficient, c: Coefficient, n) -> BandedMatrix:
    """(h/2) tridiag(-b_j, 0, b_j) + h^2 diag(c_j) on the nodes x_j = j h."""
    h = 1.0 / (n + 1)
    x = fd_interior_grid(n).points
    bv = np.asarray(b(x), dtype=float)
    cv = np.asarray(c(x), dtype=float)
    return BandedMatrix.tridiagonal(h * h * cv, -(h / 2) * bv[1:], (h / 2) * bv[:-1])


def fd_neumann_correction(a: Coefficient, b: Coefficient, n) -> BandedMatrix:
    h = 1.0 / (n + 1)
    bv = np.asarray(b(fd_interior_grid(n).points), dtype=float)
    d = np.zeros(n)
    d[0] = -float(a(0.5 * h)) - (h / 2) * bv[0]
    d[-1] = -float(a((n + 0.5) * h)) + (h / 2) * bv[-1]
    return BandedMatrix.diagonal(d)


def fd_diffusion(a: Coefficient) -> DiscretizationCase:
    return DiscretizationCase(
        name="fd_t1",
        tag="FD diffusion, divergence form, Dirichlet",
        build=lambda n: fd_diffusion_matrix(a, n),
        predicted_symbol=multiply(a, LAPLACE_SYMBOL),
    )


def fd_cdr_dirichlet(a: Coefficient, b: Coefficient, c: Coefficient) -> DiscretizationCase:
    _require_bounded(b, "convection")
    _require_bounded(c, "reaction")
    Z = partial(fd_lower_order_matrix, b, c)
    return DiscretizationCase(
        name="fd_t2",
        tag="FD convection-diffusion-reaction, Dirichlet",
        build=lambda n: fd_diffusion_matrix(a, n) + Z(n),
        predicted_symbol=multiply(a, LAPLACE_SYMBOL),
        companions={"Z": Z},
    )


def fd_cdr_neumann(a: Coefficient, b: Coefficient, c: Coefficient) -> DiscretizationCase:
    _require_bounded(b, "convection")
    _require_bounded(c, "reaction")
    Z, R = partial(fd_lower_order_matrix, b, c), partial(fd_neumann_correction, a, b)
    return DiscretizationCase(
        name="fd_t3",
        tag="FD convection-diffusion-reaction, Neumann",
        build=lambda n: fd_diffusion_matrix(a, n) + Z(n) + R(n),
        predicted_symbol=multiply(a, LAPLACE_SYMBOL),
        companions={"Z": Z, "R": R},
    )


def _nondiv_samples(a: Coefficient, n) -> np.ndarray:
    """``a`` at the FD nodes; fd_t4's matrices check n here."""
    if n < 2:
        raise ValueError(f"non-divergence scheme (fd_t4) needs n >= 2, got n = {n}")
    return np.asarray(a(fd_interior_grid(n).points), dtype=float)


def _nondiv_diffusion(a: Coefficient, n) -> BandedMatrix:
    """diag(a_j) T(2-2cos): row j equals a_j (-1, 2, -1)."""
    av = _nondiv_samples(a, n)  # before toeplitz, whose own n check names no scheme
    return toeplitz(LAPLACE_SYMBOL, n).row_scaled(av)


def _nondiv_correction(a: Coefficient, n) -> BandedMatrix:
    """N = K - K~ for K = diag(a_j) T(2-2cos) and its arrow-shaped
    symmetrization K~ = S(a) o T(2-2cos)."""
    return _nondiv_diffusion(a, n) - _hadamard_with_toeplitz(_nondiv_samples(a, n), LAPLACE_SYMBOL)


def fd_nondiv(a: Coefficient, b: Coefficient, c: Coefficient) -> DiscretizationCase:
    _require_continuous(a, "diffusion")
    _require_bounded(b, "convection")
    _require_bounded(c, "reaction")
    zero_lower = b.sup == 0 and c.sup == 0  # by the values; an undeclared sup is nonzero
    Z = partial(fd_lower_order_matrix, b, c)

    def build(n):
        K = _nondiv_diffusion(a, n)
        return K if zero_lower else K + Z(n)

    companions = {"N": partial(_nondiv_correction, a)}
    if not zero_lower:
        companions["Z"] = Z
    return DiscretizationCase(
        name="fd_t4",
        tag="FD convection-diffusion-reaction, non-divergence form",
        build=build,
        predicted_symbol=multiply(a, LAPLACE_SYMBOL),
        companions=companions,
    )


def _fourth_order_samples(coef: Coefficient, n) -> np.ndarray:
    """``coef`` at the FD nodes; fd_t5 and its companions check n here."""
    if n < 4:
        raise ValueError(f"fourth-order scheme needs n >= 4, got n = {n}")
    return np.asarray(coef(fd_interior_grid(n).points), dtype=float)


def _fourth_order_diffusion(a: Coefficient, n) -> BandedMatrix:
    """Interior rows a_j (1,-16,30,-16,1)/12; rows 1 and n use the (-1,2,-1)
    closure a_j (2, -1), truncated at the boundary."""
    av = _fourth_order_samples(a, n)
    boundary = np.isin(np.arange(n), (0, n - 1))
    return (toeplitz(FOURTH_ORDER_LAPLACE_SYMBOL, n).row_scaled(av * ~boundary)
            + toeplitz(LAPLACE_SYMBOL, n).row_scaled(av * boundary))


def _fourth_order_lower(b: Coefficient, c: Coefficient, n) -> BandedMatrix:
    """One-sided convection h bidiag(-b_j, b_j) plus the 3-point reaction
    (h^2/3) tridiag(c_j, c_j, c_j)."""
    h = 1.0 / (n + 1)
    bv, cv = _fourth_order_samples(b, n), _fourth_order_samples(c, n)
    return BandedMatrix.from_diagonals(
        n,
        {
            0: h * bv + (h * h / 3) * cv,
            -1: -h * bv[1:] + (h * h / 3) * cv[1:],
            1: (h * h / 3) * cv[:-1],
        },
    )


def _fourth_order_correction(a: Coefficient, n) -> BandedMatrix:
    """N = K - K~ for the scheme's diffusion matrix K and the symmetrization
    K~ = S(a) o T((30-32cos+2cos2)/12): its first and last rows are O(1)
    (the closures), the rows between O(omega_a(2h))."""
    return (_fourth_order_diffusion(a, n)
            - _hadamard_with_toeplitz(_fourth_order_samples(a, n), FOURTH_ORDER_LAPLACE_SYMBOL))


def fd_fourth_order_scheme(a: Coefficient, b: Coefficient, c: Coefficient) -> DiscretizationCase:
    _require_continuous(a, "diffusion")
    _require_bounded(b, "convection")
    _require_bounded(c, "reaction")
    Z = partial(_fourth_order_lower, b, c)
    return DiscretizationCase(
        name="fd_t5",
        tag="FD fourth-order scheme for the second derivative",
        build=lambda n: _fourth_order_diffusion(a, n) + Z(n),
        predicted_symbol=multiply(a, FOURTH_ORDER_LAPLACE_SYMBOL),
        companions={"Z": Z, "N": partial(_fourth_order_correction, a)},
    )


def fd_fourth_derivative(a: Coefficient) -> DiscretizationCase:
    _require_continuous(a, "coefficient")

    def build(n):
        if n < 5:
            raise ValueError("fourth-derivative stencil needs n >= 5")
        # a at the inner nodes x_2 .. x_{n+1} of the (n+2)-node FD grid
        av = np.asarray(a(fd_interior_grid(n + 2).points[1:-1]), dtype=float)
        return toeplitz(FOURTH_DERIVATIVE_SYMBOL, n).row_scaled(av)

    return DiscretizationCase(
        name="fd_t6",
        tag="FD fourth derivative",
        build=build,
        predicted_symbol=multiply(a, FOURTH_DERIVATIVE_SYMBOL),
    )


def fd_nonuniform_matrix(a: Coefficient, gmap: GridMap, n) -> BandedMatrix:
    """The mapped-grid diffusion matrix; fd_t7's build and certificate check n here."""
    if n < 2:
        raise ValueError(f"mapped-grid scheme (fd_t7) needs n >= 2, got n = {n}")
    h = 1.0 / (n + 1)
    xhat = np.arange(0, n + 2) * h
    x = np.asarray(gmap.G(xhat), dtype=float)
    steps = np.diff(x)  # h_1 .. h_{n+1}
    if np.any(steps <= 0):
        raise ValueError(f"grid map {gmap.name!r} is not increasing on the mesh")
    mids = (x[:-1] + x[1:]) / 2            # x_j - h_j/2 for j = 1..n+1
    ratio = np.asarray(a(mids), dtype=float) / steps
    diag = ratio[:-1] + ratio[1:]
    off = -ratio[1:-1]
    return BandedMatrix.tridiagonal(diag, off, off)


@cache
def _on_mapped_grid(a: Coefficient, gmap: GridMap):
    """a(G(x)) and G' as Coefficients, the same two for equal (a, gmap), so
    that fd_t7 cases built apart predict equal symbols."""
    return (Coefficient(f"{a.name}(G)", lambda x: a(np.asarray(gmap.G(x))), a.regularity),
            Coefficient(f"{gmap.name}'", gmap.dG, "continuous"))


def fd_nonuniform(a: Coefficient, gmap: GridMap) -> DiscretizationCase:
    _require_continuous(a, "diffusion")
    a_of_G, dG = _on_mapped_grid(a, gmap)
    symbol = divide(multiply(a_of_G, LAPLACE_SYMBOL), CoeffFactor(dG))
    return DiscretizationCase(
        name="fd_t7",
        tag=f"FD diffusion on the mapped grid G = {gmap.name}",
        build=lambda n: fd_nonuniform_matrix(a, gmap, n),
        alpha_power=-1,
        predicted_symbol=symbol,
        symbol_unbounded=bool(gmap.singularities),
    )


# ----------------------------------------------------------------------------
# FE families
# ----------------------------------------------------------------------------

#: Gauss-Legendre points per element of every FE integral (exact to degree 9)
_GAUSS_POINTS = 5


def _element_quadrature(n, singular_points=()):
    """Gauss-Legendre nodes/weights per element [x_{e-1}, x_e], e = 1..n+1
    (nudged off singular points), the rising hat (x - x_{e-1})/h there, and h."""
    h = 1.0 / (n + 1)
    # np.polynomial loads on its first use: here, not on import gltkit
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    left = np.arange(n + 1)[:, None] * h
    nodes = left + (gx[None, :] + 1.0) * (h / 2)
    weights = np.broadcast_to(gw[None, :] * (h / 2), nodes.shape)
    for s in singular_points:
        hit = np.abs(nodes - s) < 1e-12
        if np.any(hit):
            nodes = np.where(hit, nodes + 1e-9 * h, nodes)
    return nodes, weights, (nodes - left) / h, h


def _element_integrals(g: Coefficient, n) -> np.ndarray:
    """The integral of g over each of the n + 1 elements, by the composite
    Gauss-Legendre rule (exact for polynomial g of degree up to 9)."""
    nodes, weights, _, _ = _element_quadrature(n, g.singular_points)
    return np.sum(weights * np.asarray(g(nodes), dtype=float), axis=1)


def fe_stiffness(g: Coefficient, n) -> BandedMatrix:
    """K_n(g): tridiagonal hat-function stiffness matrix for coefficient g.

    Entries are per-element integrals of g scaled by the constant slopes
    +-1/h.
    """
    return _stiffness_from_element_integrals(_element_integrals(g, n))


def _stiffness_from_element_integrals(I) -> BandedMatrix:
    """The hat-function stiffness tridiagonal from the coefficient's integral over each element."""
    h = 1.0 / I.size
    diag = (I[:-1] + I[1:]) / h**2
    off = -I[1:-1] / h**2
    return BandedMatrix.tridiagonal(diag, off, off)


def fe_mass(g: Coefficient, n) -> BandedMatrix:
    """M_n(g): tridiagonal hat-function mass matrix for coefficient g."""
    nodes, weights, asc, _ = _element_quadrature(n, g.singular_points)
    gv = np.asarray(g(nodes), dtype=float)
    desc = 1.0 - asc
    s_aa = np.sum(weights * gv * asc * asc, axis=1)
    s_dd = np.sum(weights * gv * desc * desc, axis=1)
    s_ad = np.sum(weights * gv * asc * desc, axis=1)
    diag = s_aa[:-1] + s_dd[1:]
    off = s_ad[1:-1]
    return BandedMatrix.tridiagonal(diag, off, off)


def fe_convection(b: Coefficient, n) -> BandedMatrix:
    """Matrix of integrals of b phi_j' phi_i (skew part of the FE system)."""
    nodes, weights, asc, h = _element_quadrature(n, b.singular_points)
    bv = np.asarray(b(nodes), dtype=float)
    desc = 1.0 - asc
    s_a = np.sum(weights * bv * asc, axis=1) / h    # integral of b * rising / h
    s_d = np.sum(weights * bv * desc, axis=1) / h
    diag = s_a[:-1] - s_d[1:]
    sup = s_d[1:-1]        # (i, i+1): phi_{i+1}' = 1/h against falling phi_i
    sub = -s_a[1:-1]       # (i+1, i): phi_i' = -1/h against rising phi_{i+1}
    return BandedMatrix.from_diagonals(n, {0: diag, 1: sup, -1: sub})


def fe_gradient_coupling(n) -> BandedMatrix:
    """H_n = [integral of phi_j' phi_i] = (1/2) tridiag(-1, 0, 1), exactly."""
    half = np.full(n - 1, 0.5)
    return BandedMatrix.from_diagonals(n, {0: np.zeros(n), 1: half, -1: -half})


def fe_cdr(a: Coefficient, b: Coefficient, c: Coefficient) -> DiscretizationCase:
    symmetric = b.sup == 0 and c.sup == 0  # by the values; an undeclared sup is nonzero

    def lower_order(n):
        return fe_convection(b, n) + fe_mass(c, n)

    def build(n):
        K = fe_stiffness(a, n)
        return K if symmetric else K + lower_order(n)

    return DiscretizationCase(
        name="fe_t1",
        tag="FE convection-diffusion-reaction (hat functions)",
        build=build,
        alpha_power=-1,
        predicted_symbol=multiply(a, LAPLACE_SYMBOL),
        companions={} if symmetric else {"Z": lower_order},
    )


def fe_mass_case(g: Coefficient) -> DiscretizationCase:
    return DiscretizationCase(
        name="fe_mass",
        tag="FE mass matrix (hat functions)",
        build=lambda n: fe_mass(g, n),
        alpha_power=1,
        predicted_symbol=multiply(g, MASS_SYMBOL),
    )


def fe_system_schur(a: Coefficient, rho: float) -> DiscretizationCase:
    """The Schur complement ``S = rho M + H^T K^{-1} H`` of the FE
    saddle-point system (K = K_n(a), M = M_n(1), H = ``fe_gradient_coupling``)
    as a :class:`~gltkit.linalg.RankOneUpdate` ``T + s u u^T``; neither
    K^{-1} nor S is formed.

    With I_e the integral of a over element e = 0..n, h = 1/(n+1),
    ``W = diag(I_e / h^2)``, G the (n+1) x n element-slope matrix (``G[e, j]
    = h phi_j'``: +1 at e = j, -1 at e = j + 1) and E the element-node
    incidence matrix (1 at e = j and e = j + 1), ``K = G^T W G`` and ``H =
    (1/2) E^T G`` exactly.  The columns of G sum to zero and G has full
    column rank, so null(G^T) = span(1) and ``G K^{-1} G^T = W^{-1} - W^{-1}
    1 1^T W^{-1} / (1^T W^{-1} 1)``.  ``E = -(I + 2U) G`` (U the strictly
    upper triangular ones), ``U + U^T = 1 1^T - I`` and ``1^T G = 0`` give
    ``E^T G = -G^T E``, so ``H^T K^{-1} H = (1/4) E^T G K^{-1} G^T E`` and,
    with ``v = h^2 / I`` (the diagonal of W^{-1})::

        u = v[:-1] + v[1:]                                 (= E^T v)
        T = rho M + (1/4) tridiag(v[1:-1], u, v[1:-1])     (= rho M + E^T W^{-1} E / 4)
        s = -1 / (4 sum v)

    Every I_e must be positive (W SPD); otherwise ``SpdError`` names the
    element, also where K alone would still be SPD.
    """
    def build(n):
        I = _element_integrals(a, n)
        if not np.all(I > 0):
            e = int(np.argmax(I <= 0))
            raise SpdError(f"schur needs a positive integral of a over every element: that of "
                           f"{a.name!r} over element {e} of n = {n} is {I[e]:.3e}")
        v = (1.0 / (n + 1)) ** 2 / I
        u = v[:-1] + v[1:]
        off = v[1:-1] / 4
        T = fe_mass(coefficient_preset("one"), n).scaled(rho) \
            + BandedMatrix.tridiagonal(u / 4, off, off)
        return RankOneUpdate(T, u, -1.0 / (4 * np.sum(v)))

    sigma = add(
        TrigFactor(TrigPoly.from_cosines([2 * rho / 3, rho / 3])),
        divide(multiply(SIN_SYMBOL, SIN_SYMBOL), multiply(a, LAPLACE_SYMBOL)),
    )
    return DiscretizationCase(
        name="schur",
        tag=f"FE saddle-point Schur complement, rho={rho:g}",
        build=build,
        alpha_power=1,
        predicted_symbol=sigma,
        # sin^2 / (a (2 - 2 cos)) = (1 + cos) / (2a): unbounded where a vanishes
        symbol_unbounded=not a.inf,
    )


def fe_eigproblem(a: Coefficient, c: Coefficient) -> DiscretizationCase:
    def build(n):
        # the constructor's banded Cholesky raises SpdError unless M is SPD (c > 0 a.e.)
        return Pencil(fe_stiffness(a, n), fe_mass(c, n))

    symbol = divide(multiply(a, TrigPoly.from_cosines([6.0, -6.0])),
                    multiply(c, TrigPoly.from_cosines([2.0, 1.0])))
    return DiscretizationCase(
        name="Ln",
        tag="FE generalized eigenproblem pencil (stiffness, mass)",
        build=build,
        alpha_power=-2,
        predicted_symbol=symbol,
    )


# ----------------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------------

def _coef_param(params, key, default_name):
    name = params.get(key, default_name)
    if isinstance(name, Coefficient):
        return name
    return coefficient_preset(name)


#: name -> (accepted ``key=value`` parameters, factory(a, params))
_CASE_FACTORIES = {
    "fd_t1": ((), lambda a, p: fd_diffusion(a)),
    "fd_t2": (("b", "c"), lambda a, p: fd_cdr_dirichlet(
        a, _coef_param(p, "b", "one"), _coef_param(p, "c", "one"))),
    "fd_t3": (("b", "c"), lambda a, p: fd_cdr_neumann(
        a, _coef_param(p, "b", "one"), _coef_param(p, "c", "one"))),
    "fd_t4": (("b", "c"), lambda a, p: fd_nondiv(
        a, _coef_param(p, "b", "one"), _coef_param(p, "c", "one"))),
    "fd_t5": (("b", "c"), lambda a, p: fd_fourth_order_scheme(
        a, _coef_param(p, "b", "one"), _coef_param(p, "c", "one"))),
    "fd_t6": ((), lambda a, p: fd_fourth_derivative(a)),
    "fd_t7": (("q",), lambda a, p: fd_nonuniform(a, power_map(float(p.get("q", 2.0))))),
    "fe_t1": (("b", "c"), lambda a, p: fe_cdr(
        a, _coef_param(p, "b", "zero"), _coef_param(p, "c", "zero"))),
    "fe_mass": ((), lambda a, p: fe_mass_case(a)),
    "schur": (("rho",), lambda a, p: fe_system_schur(a, rho=float(p.get("rho", 1.0)))),
    "Ln": (("c",), lambda a, p: fe_eigproblem(a, _coef_param(p, "c", "one"))),
}


def case_names():
    return sorted(_CASE_FACTORIES)


def get_case(spec: str, coefficient=None) -> DiscretizationCase:
    """Resolve a registry spec like ``fd_t1``, ``fd_t7:q=2`` or
    ``schur:rho=0`` into a DiscretizationCase.

    ``coefficient`` (preset name, ``csv:PATH`` spec, or Coefficient) feeds
    the main diffusion coefficient; secondary coefficients default to the
    values documented in the factory table and can be overridden with
    ``key=value`` parameters in the spec string; a key the case does not
    accept raises ValueError.
    """
    head, _, tail = spec.partition(":")
    if head not in _CASE_FACTORIES:
        raise KeyError(f"unknown case {head!r}; known cases: {', '.join(case_names())}")
    params = {}
    if tail:
        for item in tail.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed case parameter {item!r}")
            params[key.strip()] = value.strip()
    accepted, factory = _CASE_FACTORIES[head]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"case {head!r} does not accept parameter(s) {', '.join(unknown)}; "
                         f"accepted: {', '.join(accepted) or 'none'}")
    if coefficient is None:
        coefficient = "xexp"
    if not isinstance(coefficient, Coefficient):
        coefficient = coefficient_preset(coefficient)
    return factory(coefficient, params)


def registry_lines():
    """One formatted line per registered case for the listing command."""
    lines = []
    for name in case_names():
        case = get_case(name)
        lines.append(f"{name} | {case.predicted_symbol} | alpha={case.alpha_text} | {case.tag}")
    return lines
