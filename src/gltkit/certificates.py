"""Finite-n inequality certificates.

Each registered family evaluates, at every point of an (n, m) grid, an
inequality that is provable for the corresponding matrix construction.
These are exact statements, not asymptotic trends, so a single numerical
violation indicates a defect in the matrix builders (or in the bound's
ingredients such as a supplied modulus of continuity) and fails the build.

The fd_t2 to fd_t5 families bound the corrections that the cases declare
as ``companions`` (see :class:`gltkit.builders.DiscretizationCase`), read by
their names ``Z``, ``R`` and ``N``.

Registered families
-------------------
thm2 (its checks are labelled "hadamard")
    ||S(a) o T(f) - D(a) T(f)||_2 <= r^(1/2) ||f||_inf n^(1/2)
    omega_a(r/n + 2 m(G_n)) for trig polynomials of degree r and
    asymptotically uniform grids.
fd_t2
    ||Z_n||_2 <= 2^(1/2) (n-1)^(1/2) ||b||_inf h/2 + n^(1/2) ||c||_inf h^2
    for the centred convection plus reaction correction.
fd_t3
    ||R_n||_2^2 <= 2 (||a||_inf + (h/2) ||b||_inf)^2 for the Neumann
    boundary correction.
fd_t4
    ||N_n||_2^2 <= (n-1) omega_a(h)^2 for the case's correction N_n =
    K_n - K~_n, the non-divergence diffusion matrix minus its arrow-shaped
    symmetrization.
fd_t5
    The rows of the case's correction N_n = K_n - K~_n split into its first
    and last rows R_n and the rows between I_n: ||R_n||_2^2 <= 7 ||a||_inf^2
    and ||I_n||_2^2 <= 257 n omega_a(2h)^2.
fd_t7
    For the mapped grid with s singularities of G': the rows meeting the
    1/m-balls around the singularities number at most 2 s (n+1)/m + s, and
    away from the balls the residual rows obey the explicit entry bound
    driven by omega_a, omega_G' and the off-ball minimum of G'.
fe_t1
    ||K_n(g) - K_n(g_m)||_1 <= 4 (n+1)^2 ||g - g_m||_L1 for the truncation
    g_m = min(g, m) of an unbounded integrable coefficient (trace norm from
    the eigenvalues of the symmetric difference; element integrals of the
    truncated tail are computed in closed form so the certificate tests the
    exact inequality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builders import (_hadamard_with_toeplitz, _stiffness_from_element_integrals,
                       fd_cdr_dirichlet, fd_cdr_neumann, fd_fourth_order_scheme,
                       fd_interior_grid, fd_nondiv, fd_nonuniform_matrix, half_node_grid,
                       power_map, toeplitz, uniform_grid)
from .linalg import schatten_norm, spectral_norm
from .symbols import (
    Coefficient,
    FOURTH_DERIVATIVE_SYMBOL,
    LAPLACE_SYMBOL,
    TrigPoly,
    coefficient_preset,
    modulus_upper_bound,
)

DEFAULT_NS = (50, 100, 200, 500)
DEFAULT_MS = (2, 4, 8)

#: trig polynomials used by the Hadamard-split family, with exact sup norms
_HADAMARD_POLYS = (
    ("2-2cos", LAPLACE_SYMBOL, 4.0),
    ("6-8cos+2cos2", FOURTH_DERIVATIVE_SYMBOL, 16.0),
    ("2-2cos3", TrigPoly.from_cosines([2.0, 0.0, 0.0, -2.0]), 4.0),
)


@dataclass(frozen=True)
class CertificateCheck:
    family: str
    label: str
    n: int
    m: int | None
    lhs: float
    rhs: float

    @property
    def ok(self):
        return self.lhs <= self.rhs * (1 + 1e-12)

    def line(self):
        mark = "PASS" if self.ok else "FAIL"
        mtxt = "" if self.m is None else f" m={self.m}"
        return (f"[{mark}] {self.family}: {self.label} (n={self.n}{mtxt}): "
                f"lhs={self.lhs:.6e} <= rhs={self.rhs:.6e}")


# ----------------------------------------------------------------------------
# family implementations
# ----------------------------------------------------------------------------

def _family_thm2(ns, ms, seed=0):
    checks = []
    for a_name in ("x", "xexp"):
        a = coefficient_preset(a_name)
        for n in ns:
            grids = (("uniform", uniform_grid(n)), ("fd-nodes", fd_interior_grid(n)),
                     ("half-nodes", half_node_grid(n, 0.5)))
            for grid_name, grid in grids:
                for f_name, f, f_sup in _HADAMARD_POLYS:
                    r = f.degree
                    if r >= n:
                        continue
                    a_vals = np.asarray(a(grid.points), dtype=float)
                    lhs = schatten_norm(_hadamard_with_toeplitz(a_vals, f)
                                        - toeplitz(f, n).row_scaled(a_vals), 2)
                    omega = modulus_upper_bound(a, r / n + 2 * grid.au_deviation)
                    rhs = math.sqrt(r) * f_sup * math.sqrt(n) * omega
                    checks.append(CertificateCheck(
                        "hadamard", f"a={a_name}, f={f_name}, grid={grid_name}", n, None, lhs, rhs))
    return checks


def _random_table_coefficient(seed):
    """A piecewise-linear table of 33 uniform knots with values drawn from U(-1, 2)."""
    vals = np.random.default_rng(seed).uniform(-1.0, 2.0, size=33)
    return Coefficient.from_table(np.linspace(0.0, 1.0, 33), vals, name=f"table-seed{seed}")


def _family_fd_t2(ns, ms, seed=0):
    checks = []
    rnd_b = _random_table_coefficient(seed)
    rnd_c = _random_table_coefficient(seed + 1)
    pairs = (("b=one,c=one", coefficient_preset("one"), coefficient_preset("one")),
             ("b=x,c=1+x", coefficient_preset("x"), coefficient_preset("1+x")),
             ("random tables", rnd_b, rnd_c))
    a = coefficient_preset("one")
    for label, b, c in pairs:
        case = fd_cdr_dirichlet(a, b, c)
        for n in ns:
            h = 1.0 / (n + 1)
            lhs = schatten_norm(case.companions["Z"](n), 2)
            rhs = math.sqrt(2.0 * (n - 1)) * b.sup * h / 2 + math.sqrt(n) * c.sup * h * h
            checks.append(CertificateCheck("fd_t2", f"lower-order bound, {label}", n, None, lhs, rhs))
    return checks


def _family_fd_t3(ns, ms, seed=0):
    checks = []
    rnd_b = _random_table_coefficient(seed + 2)
    combos = (("a=xexp,b=one", "xexp", coefficient_preset("one")),
              ("a=1+x,b=table", "1+x", rnd_b))
    c = coefficient_preset("one")
    for label, a_name, b in combos:
        a = coefficient_preset(a_name)
        case = fd_cdr_neumann(a, b, c)
        for n in ns:
            h = 1.0 / (n + 1)
            lhs = schatten_norm(case.companions["R"](n), 2) ** 2
            rhs = 2.0 * (a.sup + (h / 2) * b.sup) ** 2
            checks.append(CertificateCheck("fd_t3", f"boundary rank-2 bound, {label}", n, None, lhs, rhs))
    return checks


def _family_fd_t4(ns, ms, seed=0):
    checks = []
    one = coefficient_preset("one")
    for a_name in ("x", "xexp"):
        a = coefficient_preset(a_name)
        case = fd_nondiv(a, one, one)
        for n in ns:
            h = 1.0 / (n + 1)
            lhs = schatten_norm(case.companions["N"](n), 2) ** 2
            rhs = (n - 1) * modulus_upper_bound(a, h) ** 2
            checks.append(CertificateCheck("fd_t4", f"symmetrization bound, a={a_name}", n, None, lhs, rhs))
    return checks


def _family_fd_t5(ns, ms, seed=0):
    checks = []
    one = coefficient_preset("one")
    for a_name in ("x", "xexp"):
        a = coefficient_preset(a_name)
        case = fd_fourth_order_scheme(a, one, one)
        for n in ns:
            h = 1.0 / (n + 1)
            N = case.companions["N"](n)  # K - K~, split into its boundary and interior rows
            boundary = np.isin(np.arange(n), (0, n - 1))
            checks.append(CertificateCheck(
                "fd_t5", f"boundary-row bound, a={a_name}", n, None,
                schatten_norm(N.row_scaled(boundary), 2) ** 2, 7.0 * a.sup ** 2))
            checks.append(CertificateCheck(
                "fd_t5", f"interior-difference bound, a={a_name}", n, None,
                schatten_norm(N.row_scaled(~boundary), 2) ** 2,
                257.0 * n * modulus_upper_bound(a, 2 * h) ** 2))
    return checks


def _family_fd_t7(ns, ms, seed=0):
    """Small-rank/small-norm split for G(x) = x^2 (singularity at 0)."""
    checks = []
    gmap = power_map(2.0)
    s = len(gmap.singularities)
    g_sup = 2.0                    # max of G'(x) = 2x on [0,1]
    for a_name in ("one", "x"):
        a = coefficient_preset(a_name)
        for n in ns:
            h = 1.0 / (n + 1)
            xhat = fd_interior_grid(n).points
            A = fd_nonuniform_matrix(a, gmap, n).scaled(h)
            ratio = a(np.asarray(gmap.G(xhat))) / np.asarray(gmap.dG(xhat))
            Z = A - toeplitz(LAPLACE_SYMBOL, n).row_scaled(ratio)
            omega_dG = 2.0 * h  # G'' = 2 is constant, so omega is exact
            for m in ms:
                in_ball = np.zeros(n, dtype=bool)
                for sing in gmap.singularities:
                    in_ball |= np.abs(xhat - sing) < 1.0 / m
                count = int(np.sum(in_ball))
                checks.append(CertificateCheck(
                    "fd_t7", f"ball row count, a={a_name}", n, m,
                    float(count), 2.0 * s * (n + 1) / m + s))
                # G' is monotone, so its minimum off the balls is at an end of [1/m, 1]
                m_off = float(min(gmap.dG(1.0 / m), gmap.dG(1.0)))
                if omega_dG >= m_off:
                    continue  # bound inapplicable at this (n, m); skip, do not fake
                N = Z.row_scaled(~in_ball)
                entry_bound = (modulus_upper_bound(a, (h / 2) * g_sup) / (m_off - omega_dG)
                               + a.sup * omega_dG / (m_off * (m_off - omega_dG)))
                checks.append(CertificateCheck(
                    "fd_t7", f"off-ball residual bound, a={a_name}", n, m,
                    spectral_norm(N), 3.0 * entry_bound))
    return checks


# -- fe_t1: exact element integrals of the truncated singular tail -----------

_SING_CENTER = 0.5
_SING_EXPONENT = -0.25


def truncated_tail_l1(m) -> float:
    """||g - min(g, m)||_L1 for g = |x - 1/2|^(-1/4): equals (2/3) m^(-3)."""
    radius = float(m) ** (1.0 / _SING_EXPONENT)  # m^-4
    if radius >= _SING_CENTER:
        raise ValueError("truncation level too small for the closed form")
    return (2.0 / 3.0) * float(m) ** -3


def _tail_element_integrals(n, m):
    """Exact per-element integrals of (g - m)+ for g = |x - 1/2|^(-1/4)."""
    h = 1.0 / (n + 1)
    edges = np.arange(n + 2) * h
    radius = float(m) ** -4
    lo, hi = _SING_CENTER - radius, _SING_CENTER + radius

    def antiderivative(t):
        # integral of |t - c|^(-1/4): sign(t-c) * (4/3) |t-c|^(3/4)
        d = t - _SING_CENTER
        return np.sign(d) * (4.0 / 3.0) * np.abs(d) ** 0.75

    a = np.clip(edges[:-1], lo, hi)
    b = np.clip(edges[1:], lo, hi)
    return antiderivative(b) - antiderivative(a) - float(m) * (b - a)


def _family_fe_t1(ns, ms, seed=0):
    checks = []
    for n in ns:
        for m in ms:
            K_diff = _stiffness_from_element_integrals(_tail_element_integrals(n, m))
            lhs = schatten_norm(K_diff, 1)  # trace norm, from the eigenvalues
            rhs = 4.0 * (n + 1) ** 2 * truncated_tail_l1(m)
            checks.append(CertificateCheck(
                "fe_t1", "stiffness truncation trace-norm bound", n, m, lhs, rhs))
    return checks


_FAMILIES = {
    "thm2": _family_thm2,
    "fd_t2": _family_fd_t2,
    "fd_t3": _family_fd_t3,
    "fd_t4": _family_fd_t4,
    "fd_t5": _family_fd_t5,
    "fd_t7": _family_fd_t7,
    "fe_t1": _family_fe_t1,
}


def certificate_families():
    return sorted(_FAMILIES)


def run_certificates(family: str, ns=None, ms=None, seed=0) -> list:
    """Evaluate every registered inequality of ``family`` on the (n, m) grid."""
    if family not in _FAMILIES:
        raise KeyError(f"unknown certificate family {family!r}; "
                       f"known: {', '.join(certificate_families())}")
    ns = tuple(ns) if ns else DEFAULT_NS
    ms = tuple(ms) if ms else DEFAULT_MS
    return _FAMILIES[family](ns, ms, seed=seed)


def run_all_certificates(ns=None, ms=None, seed=0) -> dict:
    return {fam: run_certificates(fam, ns, ms, seed=seed) for fam in certificate_families()}

