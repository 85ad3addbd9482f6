"""Tests for grids and the FD/FE matrix families."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gltkit.linalg as linalg
from gltkit import (
    Coefficient,
    ComplexSpectrumError,
    LAPLACE_SYMBOL,
    SIN_SYMBOL,
    SpdError,
    TrigPoly,
    as_dense,
    arrow_sampling,
    coefficient_preset,
    diag_sampling,
    fd_cdr_dirichlet,
    fd_cdr_neumann,
    fd_diffusion,
    fd_fourth_derivative,
    fd_fourth_order_scheme,
    fd_interior_grid,
    fd_nondiv,
    fd_nonuniform,
    fe_cdr,
    fe_convection,
    fe_eigproblem,
    fe_gradient_coupling,
    fe_mass,
    fe_stiffness,
    fe_system_schur,
    get_case,
    mapped_grid,
    power_map,
    registry_lines,
    symbol_eval,
    sym_eigvals,
    toeplitz,
    uniform_grid,
)
from gltkit.builders import _CASE_FACTORIES, GridMap, case_names, fd_nonuniform_matrix
from gltkit.symbols import FOURTH_ORDER_LAPLACE_SYMBOL

ONE = coefficient_preset("one")
X = coefficient_preset("x")
XEXP = coefficient_preset("xexp")
ZERO = coefficient_preset("zero")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_uniform_grid_points_and_deviation():
    g = uniform_grid(4)
    assert np.allclose(g.points, [0.25, 0.5, 0.75, 1.0])
    assert g.au_deviation == 0.0


def test_mapped_grid_square():
    g = mapped_grid(power_map(2.0), 3)
    assert np.allclose(g.points, [1 / 16, 4 / 16, 9 / 16])


def test_fd_interior_grid_deviation_closed_form():
    for n in (3, 10, 57):
        assert fd_interior_grid(n).au_deviation == pytest.approx(1.0 / (n + 1), abs=1e-15)


def test_grid_map_rejects_non_bijection():
    with pytest.raises(ValueError):
        GridMap("bad", lambda x: 0.5 * np.asarray(x), lambda x: 0.5 * np.ones_like(np.asarray(x)))
    with pytest.raises(ValueError):
        GridMap("dec", lambda x: np.asarray(x) + np.sin(2 * np.pi * np.asarray(x)) / 2,
                lambda x: 1 + np.pi * np.cos(2 * np.pi * np.asarray(x)))


# ---------------------------------------------------------------------------
# Toeplitz and sampling matrices
# ---------------------------------------------------------------------------

def test_toeplitz_laplacian_3x3():
    assert np.allclose(as_dense(toeplitz(LAPLACE_SYMBOL, 3)),
                       [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


def test_toeplitz_sine_gives_gradient_coupling():
    n = 5
    H = -1j * as_dense(toeplitz(SIN_SYMBOL, n))
    assert np.allclose(H.imag, 0.0, atol=1e-15)
    assert np.allclose(H.real, as_dense(fe_gradient_coupling(n)), atol=1e-15)


def test_toeplitz_constant():
    assert np.allclose(as_dense(toeplitz(TrigPoly([3.5]), 2)), 3.5 * np.eye(2))


def test_toeplitz_degree_must_be_below_n():
    with pytest.raises(ValueError):
        toeplitz(LAPLACE_SYMBOL, 1)


def test_sampling_matrices_constant_coefficient():
    g = uniform_grid(4)
    assert np.allclose(as_dense(diag_sampling(ONE, g)), np.eye(4))
    assert np.allclose(arrow_sampling(ONE, g), np.ones((4, 4)))


def test_arrow_sampling_hand_values():
    S = arrow_sampling(X, uniform_grid(3))
    ref = np.array([[1, 1, 1], [1, 2, 2], [1, 2, 3]]) / 3.0
    assert np.allclose(S, ref, atol=1e-15)


def test_diag_sampling_first_entry():
    g = uniform_grid(7)
    D = diag_sampling(XEXP, g)
    assert D.diagonal_values(0)[0] == pytest.approx(float(XEXP(1 / 7)))


# ---------------------------------------------------------------------------
# FD families
# ---------------------------------------------------------------------------

def test_fd_diffusion_constant_coefficient():
    A = as_dense(fd_diffusion(ONE).build(3))
    assert np.array_equal(A, as_dense(toeplitz(LAPLACE_SYMBOL, 3)))


def test_fd_diffusion_linear_coefficient_hand_values():
    A = as_dense(fd_diffusion(X).build(2))  # h = 1/3, samples at 1/6, 1/2, 5/6
    assert np.allclose(A, [[2 / 3, -1 / 2], [-1 / 2, 4 / 3]], atol=1e-15)


def test_fd_diffusion_symbol_at_theta_pi():
    case = fd_diffusion(XEXP)
    for x in (0.2, 0.7, 1.0):
        assert symbol_eval(case.predicted_symbol, x, math.pi) == pytest.approx(4 * float(XEXP(x)))


def test_fd_diffusion_gerschgorin_containment():
    case = fd_diffusion(XEXP)
    ev = case.spectrum(120).values
    assert ev[0] >= -1e-12
    assert ev[-1] <= 4 * math.exp(-1) + 1e-12


def test_fd_diffusion_exact_symmetry():
    A = fd_diffusion(XEXP).build(40)
    assert np.array_equal(as_dense(A), as_dense(A).T)


def test_fd_cdr_reduces_to_diffusion_without_lower_order_terms():
    B = fd_cdr_dirichlet(XEXP, ZERO, ZERO).build(5)
    A = fd_diffusion(XEXP).build(5)
    assert np.array_equal(as_dense(B), as_dense(A))


def test_fd_cdr_pure_convection_hand_values():
    case = fd_cdr_dirichlet(ZERO, ONE, ZERO)
    Z = as_dense(case.build(2))  # h = 1/3
    assert np.allclose(Z, (1 / 6) * np.array([[0, 1], [-1, 0]]), atol=1e-15)


def test_fd_cdr_lower_order_norm_bound_random():
    rng = np.random.default_rng(0)
    xs = np.linspace(0, 1, 21)
    b = Coefficient.from_table(xs, rng.uniform(-1, 1, 21))
    c = Coefficient.from_table(xs, rng.uniform(-2, 2, 21))
    case = fd_cdr_dirichlet(ONE, b, c)
    n = 100
    h = 1.0 / (n + 1)
    Z = as_dense(case.companions["Z"](n))
    b_sup = np.max(np.abs(b(np.linspace(0, 1, 2001))))
    c_sup = np.max(np.abs(c(np.linspace(0, 1, 2001))))
    assert np.linalg.norm(Z, "fro") <= math.sqrt(2 * (n - 1)) * b_sup * h / 2 + math.sqrt(n) * c_sup * h * h


def test_fd_cdr_requires_bounded_tags():
    unbounded = Coefficient("sing", lambda x: np.abs(x - 0.5) ** -0.25, "L1", singular_points=(0.5,))
    # fd_t2 .. fd_t5, with an unbounded b and with an unbounded c
    for factory in (fd_cdr_dirichlet, fd_cdr_neumann, fd_nondiv, fd_fourth_order_scheme):
        for role, b, c in (("convection", unbounded, ONE), ("reaction", ONE, unbounded)):
            with pytest.raises(ValueError, match=f"{role} coefficient 'sing' must carry a bounded"):
                factory(ONE, b, c)


def test_fd_neumann_correction_rank_and_hand_values():
    case = fd_cdr_neumann(ONE, ZERO, ONE)
    n = 6
    R = as_dense(case.companions["R"](n))
    assert np.linalg.matrix_rank(R) <= 2
    C = as_dense(case.build(n))
    h = 1.0 / (n + 1)
    expected = as_dense(toeplitz(LAPLACE_SYMBOL, n)) + h * h * np.eye(n)
    expected[0, 0] -= 1.0
    expected[-1, -1] -= 1.0
    assert np.allclose(C, expected, atol=1e-15)


def test_fd_neumann_boundary_norm_bound():
    rng = np.random.default_rng(1)
    xs = np.linspace(0, 1, 21)
    a = Coefficient.from_table(xs, rng.uniform(0.5, 2, 21))
    b = Coefficient.from_table(xs, rng.uniform(-1, 1, 21))
    case = fd_cdr_neumann(a, b, ONE)
    n = 50
    h = 1.0 / (n + 1)
    R = as_dense(case.companions["R"](n))
    a_sup = np.max(np.abs(a(np.linspace(0, 1, 2001))))
    b_sup = np.max(np.abs(b(np.linspace(0, 1, 2001))))
    assert np.linalg.norm(R, "fro") ** 2 <= 2 * (a_sup + h / 2 * b_sup) ** 2


def test_fd_nondiv_constant_coefficient_collapses():
    case = fd_nondiv(ONE, ZERO, ZERO)
    T = as_dense(toeplitz(LAPLACE_SYMBOL, 4))
    assert np.array_equal(as_dense(case.build(4)), T)
    assert not as_dense(case.companions["N"](4)).any()  # K~ = K = T


@pytest.mark.parametrize("factory", [fd_nondiv, fe_cdr])
def test_lower_order_part_vanishes_by_its_values_not_its_name(factory):
    n = 6
    plain = factory(X, ZERO, ZERO)
    # an all-zero table builds as the zero preset does
    table = Coefficient.from_table([0.0, 1.0], [0.0, 0.0])
    same = factory(X, table, table)
    assert set(same.companions) == set(plain.companions)
    assert np.array_equal(as_dense(same.build(n)), as_dense(plain.build(n)))
    # a nonzero coefficient named "zero" is not dropped
    named = Coefficient("zero", lambda x: np.ones_like(x), "continuous")
    kept = factory(X, ZERO, named)
    assert "Z" in kept.companions
    assert not np.array_equal(as_dense(kept.build(n)), as_dense(plain.build(n)))


def test_fd_nondiv_subdiagonal_shift():
    case = fd_nondiv(X, ZERO, ZERO)
    n = 3  # h = 1/4, a_j = j/4
    K = case.build(n)
    Kt = K - case.companions["N"](n)
    assert np.allclose(K.diagonal_values(-1), [-2 / 4, -3 / 4])
    assert np.allclose(Kt.diagonal_values(-1), [-1 / 4, -2 / 4])


def test_fd_nondiv_symmetrization_bound_exact_modulus():
    case = fd_nondiv(X, ZERO, ZERO)
    n = 100
    h = 1.0 / (n + 1)
    N = as_dense(case.companions["N"](n))
    assert np.linalg.norm(N, "fro") ** 2 <= (n - 1) * h * h * (1 + 1e-12)


def test_fd_nondiv_requires_continuous_tag():
    rough = Coefficient("rough", lambda x: np.sign(x - 0.5) + 1.5, "ae_continuous")
    with pytest.raises(ValueError):
        fd_nondiv(rough, ONE, ONE)


def test_fourth_order_scheme_rows():
    case = fd_fourth_order_scheme(ONE, ZERO, ZERO)
    K = case.build(6)
    assert (K.lower_bw, K.upper_bw) == (2, 2)
    K = as_dense(K) * 12
    assert np.allclose(K[2, :5], [1, -16, 30, -16, 1])
    assert np.allclose(K[0, :2], [24, -12])
    assert np.allclose(K[-1, -2:], [-12, 24])
    assert np.allclose(K[1, :5], [-16, 30, -16, 1, 0])


def test_fourth_order_symbol_second_order_zero():
    th = 1e-3
    p = FOURTH_ORDER_LAPLACE_SYMBOL
    assert float(p(np.array(th))) / th**2 == pytest.approx(1.0, abs=1e-5)


def test_fourth_order_boundary_split_bounds():
    case = fd_fourth_order_scheme(XEXP, ONE, ONE)
    n = 50
    N = case.companions["N"](n)
    assert max(N.lower_bw, N.upper_bw) <= 2
    K = as_dense(case.build(n)) - as_dense(case.companions["Z"](n))
    K_tilde = (arrow_sampling(XEXP, fd_interior_grid(n))
               * as_dense(toeplitz(FOURTH_ORDER_LAPLACE_SYMBOL, n)))
    assert np.allclose(as_dense(N), K - K_tilde, rtol=0, atol=1e-14)
    # the certificate's split: the two boundary rows and the rows between
    boundary = np.isin(np.arange(n), (0, n - 1))
    Rd, Nd = as_dense(N.row_scaled(boundary)), as_dense(N.row_scaled(~boundary))
    assert not Rd[1:-1].any() and np.array_equal(Rd + Nd, as_dense(N))
    a_sup = math.exp(-1)
    assert np.linalg.norm(Rd, "fro") ** 2 <= 7 * a_sup**2
    h = 1.0 / (n + 1)
    omega = XEXP.exact_modulus(2 * h)
    assert np.linalg.norm(Nd, "fro") ** 2 <= 257 * n * omega**2


def test_fourth_order_rejects_small_n():
    case = fd_fourth_order_scheme(ONE, ZERO, ZERO)
    for make in (case.build, *case.companions.values()):
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match="needs n >= 4"):
                make(n)


def test_nondiv_and_mapped_grid_reject_n_below_two():
    nondiv = fd_nondiv(X, ONE, ONE)
    for make in (nondiv.build, nondiv.companions["N"]):
        with pytest.raises(ValueError, match=r"non-divergence scheme \(fd_t4\) needs n >= 2"):
            make(1)
    with pytest.raises(ValueError, match=r"mapped-grid scheme \(fd_t7\) needs n >= 2"):
        fd_nonuniform(X, power_map(2.0)).build(1)
    assert nondiv.build(2).n == 2 and fd_nonuniform(X, power_map(2.0)).build(2).n == 2


def test_fourth_derivative_middle_row_and_scaling():
    case = fd_fourth_derivative(ONE)
    A = as_dense(case.build(5))
    assert np.allclose(A[2], [1, -4, 6, -4, 1])
    case_x = fd_fourth_derivative(X)
    n = 7
    Ax = as_dense(case_x.build(n))
    h = 1.0 / (n + 3)
    for j in range(n):
        scale = (j + 2) * h  # a evaluated at x_{j+2} in 1-based node numbering
        assert np.allclose(Ax[j], A5_row(j, n) * scale, atol=1e-14)


def A5_row(j, n):
    row = np.zeros(n)
    stencil = {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}
    for k, v in stencil.items():
        if 0 <= j + k < n:
            row[j + k] = v
    return row


def test_fourth_derivative_symbol_fourth_order_zero():
    from gltkit import FOURTH_DERIVATIVE_SYMBOL
    th = 1e-3
    assert float(FOURTH_DERIVATIVE_SYMBOL(np.array(th))) / th**4 == pytest.approx(1.0, abs=1e-5)


def test_fourth_derivative_rejects_small_n():
    with pytest.raises(ValueError):
        fd_fourth_derivative(ONE).build(4)


def test_nonuniform_identity_map_reproduces_divergence_form():
    case7 = fd_nonuniform(XEXP, power_map(1.0))
    case1 = fd_diffusion(XEXP)
    n = 9
    scaled = case7.alpha(n) * as_dense(case7.build(n))
    assert np.allclose(scaled, as_dense(case1.build(n)), atol=1e-13)


def test_nonuniform_square_map_hand_values():
    A = as_dense(fd_nonuniform_matrix(ONE, power_map(2.0), 2))
    assert np.allclose(A[0], [12.0, -3.0])
    assert np.allclose(A[1], [-3.0, 3.0 + 9.0 / 5.0])


def test_nonuniform_symbol_value():
    case = fd_nonuniform(ONE, power_map(2.0))
    for xh in (0.25, 0.5, 1.0):
        assert symbol_eval(case.predicted_symbol, xh, math.pi) == pytest.approx(4.0 / (2 * xh))
    assert case.symbol_unbounded


def test_nonuniform_detects_non_increasing_mesh():
    # dG lies about monotonicity; the mesh steps expose the decrease
    sneaky = GridMap("sneak", lambda x: np.asarray(x) - np.sin(2 * np.pi * np.asarray(x)) / 4,
                     lambda x: np.ones_like(np.asarray(x)))
    with pytest.raises(ValueError):
        fd_nonuniform_matrix(ONE, sneaky, 8)


def test_nonuniform_exact_symmetry():
    A = as_dense(fd_nonuniform(X, power_map(2.0)).build(30))
    assert np.array_equal(A, A.T)


# ---------------------------------------------------------------------------
# FE families
# ---------------------------------------------------------------------------

def brute_force_fe_entry(g, i, j, n, derivative, points=100001):
    """Midpoint-rule oracle for FE entries with hat functions."""
    h = 1.0 / (n + 1)
    x = (np.arange(points) + 0.5) / points
    def hatf(k):
        return np.clip(1 - np.abs(x - (k + 1) * h) / h, 0.0, None)
    def hatd(k):
        c = (k + 1) * h
        return np.where((x > c - h) & (x <= c), 1.0 / h, np.where((x > c) & (x < c + h), -1.0 / h, 0.0))
    fi = hatd(i) if derivative else hatf(i)
    fj = hatd(j) if derivative else hatf(j)
    return float(np.mean(np.asarray(g(x)) * fi * fj))


def test_fe_stiffness_constant_exact():
    n = 6
    h = 1.0 / (n + 1)
    K = as_dense(fe_stiffness(ONE, n))
    assert np.allclose(K, as_dense(toeplitz(LAPLACE_SYMBOL, n)) / h, atol=1e-10)


def test_fe_stiffness_linear_coefficient_n1():
    K = as_dense(fe_stiffness(X, 1))
    assert K[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert K[0, 0] == pytest.approx(brute_force_fe_entry(X, 0, 0, 1, True), rel=1e-8)


def test_fe_stiffness_off_band_zero():
    K = as_dense(fe_stiffness(XEXP, 8))
    assert np.allclose(K - np.triu(np.tril(K, 1), -1), 0.0)


def test_fe_stiffness_polynomial_exactness():
    """The 5-point element rule integrates a degree-9 coefficient exactly:
    K matches the closed-form element integrals of 1 + x^9."""
    nonic = Coefficient("nonic", lambda x: 1 + x**9, "continuous")
    n = 5
    h = 1.0 / (n + 1)
    e = np.arange(n + 2)
    I = h + ((e[1:] * h) ** 10 - (e[:-1] * h) ** 10) / 10  # integral over element e
    ref = (np.diag(I[:-1] + I[1:]) - np.diag(I[1:-1], 1) - np.diag(I[1:-1], -1)) / h**2
    assert np.allclose(as_dense(fe_stiffness(nonic, n)), ref, rtol=1e-13, atol=0)


def test_fe_mass_constant_exact():
    n = 5
    h = 1.0 / (n + 1)
    M = as_dense(fe_mass(ONE, n))
    ref = (h / 6) * (np.diag(4 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))
    assert np.allclose(M, ref, atol=1e-14)
    interior_row_sums = (6 / h) * M.sum(axis=1)[1:-1]
    assert np.allclose(interior_row_sums, 6.0)


def test_fe_mass_oracle_linear_coefficient():
    n = 10
    M = as_dense(fe_mass(X, n))
    for (i, j) in [(0, 0), (3, 3), (3, 4), (9, 9)]:
        assert M[i, j] == pytest.approx(brute_force_fe_entry(X, i, j, n, False), abs=1e-8)


def test_fe_convection_constant():
    H = as_dense(fe_convection(ONE, 5))
    assert np.allclose(H, as_dense(fe_gradient_coupling(5)), atol=1e-12)


def test_schur_hand_check_n2():
    case = fe_system_schur(ONE, rho=0.0)
    S = as_dense(case.build(2))
    ref = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 12 / 3  # (n+1) S = [[2,-1],[-1,2]]/12
    assert np.allclose(S, ref, atol=1e-14)
    # dense-solve oracle
    n = 7
    S = as_dense(case.build(n))
    K = as_dense(fe_stiffness(ONE, n))
    H = as_dense(fe_gradient_coupling(n))
    oracle = H.T @ np.linalg.solve(K, H)
    assert np.allclose(S, oracle, atol=1e-12)


def test_schur_symmetric_and_spd_requirement():
    case = fe_system_schur(XEXP, rho=1.0)
    S = as_dense(case.build(20))
    assert np.max(np.abs(S - S.T)) <= 1e-12 * np.max(np.abs(S))
    assert linalg.is_symmetric(S) and case.spectrum(20).solver == "pencil_rank_one"
    # T + s u u^T is the dense M + H^T K^{-1} H to rounding
    H = as_dense(fe_gradient_coupling(20))
    X = linalg.solve_spd_banded(fe_stiffness(XEXP, 20), H)
    ref = as_dense(fe_mass(ONE, 20)) + H.T @ X
    assert np.max(np.abs(S - ref)) <= 1e-13 * np.max(np.abs(ref))
    negative = Coefficient("neg", lambda x: -np.ones_like(x), "continuous")
    with pytest.raises(SpdError):
        fe_system_schur(negative, rho=1.0).build(5)
    # K = (I_0 + I_1) / h^2 > 0 at n = 1, but I_0 < 0: the build asks for every I_e > 0
    signed = Coefficient.from_table([0, 0.49, 0.51, 1], [-2, -2, 6, 6])
    assert linalg.is_symmetric(fe_stiffness(signed, 1)) and fe_stiffness(signed, 1).toarray()[0, 0] > 0
    with pytest.raises(SpdError, match="over element 0 of n = 1 is -"):
        fe_system_schur(signed, rho=1.0).build(1)


def test_schur_symbol_is_unbounded_where_a_may_vanish():
    """sin^2 / (a (2 - 2cos)) = (1 + cos) / (2a): bounded only when min |a|
    on [0, 1] is declared and positive."""
    for name in ("one", "1+x", "expx"):
        assert not get_case("schur", name).symbol_unbounded, name
    for name in ("x", "xexp", "zero"):
        assert get_case("schur", name).symbol_unbounded, name
    assert fe_system_schur(Coefficient("c", lambda x: 1.0 + x), rho=1.0).symbol_unbounded
    assert not fe_system_schur(Coefficient.from_table([0, 1], [2, 3]), rho=1.0).symbol_unbounded
    assert fe_system_schur(Coefficient.from_table([0, 1], [-1, 3]), rho=1.0).symbol_unbounded


def test_eigproblem_exact_eigenvalues_constant_coefficients():
    case = fe_eigproblem(ONE, ONE)
    n = 50
    ev = case.spectrum(n).values
    th = np.arange(1, n + 1) * np.pi / (n + 1)
    ref = np.sort((6 - 6 * np.cos(th)) / (2 + np.cos(th)))
    assert np.max(np.abs(ev - ref)) < 1e-8
    assert np.all(ev > 0)


def test_eigproblem_hand_check_n2():
    ev = fe_eigproblem(ONE, ONE).spectrum(2).values
    assert ev[0] == pytest.approx(1.2, rel=1e-12)


def test_eigproblem_mass_spd_requirement():
    negative = Coefficient("neg", lambda x: -np.ones_like(x), "continuous")
    with pytest.raises(SpdError):
        fe_eigproblem(ONE, negative).build(5)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_lines_contain_required_entries():
    text = "\n".join(registry_lines())
    assert "fd_t1 | (xexp(x)) * (2-2cos(theta)) | alpha=1 | FD diffusion" in text
    assert ("Ln | ((xexp(x)) * (6-6cos(theta))) / ((one(x)) * (2+cos(theta))) "
            "| alpha=(n+1)^-2 | FE generalized") in text


#: the corrections each case declares; every other registry case declares none
DECLARED_CORRECTIONS = {
    "fd_t2": {"Z"}, "fd_t3": {"Z", "R"}, "fd_t4": {"N", "Z"}, "fd_t4:b=zero,c=zero": {"N"},
    "fd_t5": {"Z", "N"}, "fe_t1": set(), "fe_t1:b=x,c=one": {"Z"},
}


@pytest.mark.parametrize("coeff", ("xexp", "one", "x"))
@pytest.mark.parametrize("spec", case_names() + ["fd_t4:b=zero,c=zero", "fe_t1:b=x,c=one"])
def test_build_minus_its_corrections_is_symmetric(spec, coeff):
    """The split a case declares: build(n) minus the sum of its companions
    is symmetric, Z and N vanish in the normalized Frobenius norm divided
    by n^(1/2), and R has rank at most 2."""
    case = get_case(spec, coeff)
    assert set(case.companions) == DECLARED_CORRECTIONS.get(spec, set())
    for n in (4, 7, 50, 400):
        if not case.companions:
            break
        A = case.build(n)
        for name, make in case.companions.items():
            Y = make(n)
            A = A - Y
            if name == "R":
                assert np.linalg.matrix_rank(as_dense(Y)) <= 2
        assert linalg.is_symmetric(A), (spec, coeff, n)
    for name in set(case.companions) - {"R"}:
        decay = [linalg.schatten_norm(case.companions[name](n), 2) * case.alpha(n) / math.sqrt(n)
                 for n in (100, 800)]
        assert decay[1] <= 0.5 * decay[0], (spec, coeff, name, decay)


def test_alpha_is_a_power_of_n_plus_one():
    got = {name: (get_case(name).alpha(7), get_case(name).alpha_text) for name in case_names()}
    assert got["fd_t1"] == (1.0, "1") and got["fe_mass"] == (8.0, "n+1")
    assert got["fd_t7"] == (1.0 / 8, "1/(n+1)") and got["Ln"] == (1.0 / 64, "(n+1)^-2")


def test_registry_parameter_parsing():
    case = get_case("fd_t7:q=3", "one")
    assert "x^3" in case.tag
    case = get_case("schur:rho=0", "one")
    assert "rho=0" in case.tag
    with pytest.raises(KeyError):
        get_case("fd_t99")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(case_names()), st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=5))
def test_registry_rejects_keys_a_case_does_not_accept(name, key):
    accepted = _CASE_FACTORIES[name][0]
    assume(key not in accepted)
    with pytest.raises(ValueError, match="does not accept"):
        get_case(f"{name}:{key}=1", "one")
    for good in accepted:  # every declared key is consumed, not rejected
        spec = f"{name}:{good}={'one' if good in ('b', 'c') else '3'}"
        assert get_case(spec, "one").name == get_case(name, "one").name


def test_case_spectrum_scaling():
    case = get_case("fe_t1", "one")
    n = 12
    ev = case.spectrum(n).values
    ref = sym_eigvals(fe_stiffness(ONE, n)).values / (n + 1)
    assert np.allclose(ev, ref)


def test_fe_entries_match_simpson_oracle_to_1e10():
    # element-wise Simpson: inside each element the integrand is a smooth
    # polynomial (hat slopes are constant there), so the oracle converges
    from scipy.integrate import simpson
    n = 6
    h = 1.0 / (n + 1)
    quad = Coefficient("quad", lambda x: 1 + 2 * x + 3 * x**2, "continuous")

    def hatf(k, x):
        return np.clip(1 - np.abs(x - (k + 1) * h) / h, 0.0, None)

    def hatd(k, x):
        c = (k + 1) * h
        return np.where((x >= c - h) & (x < c), 1.0 / h,
                        np.where((x >= c) & (x < c + h), -1.0 / h, 0.0))

    def oracle(i, j, derivative):
        total = 0.0
        for e in range(n + 1):
            x = np.linspace(e * h, (e + 1) * h, 2001)
            x[-1] -= 1e-14  # keep all points inside the half-open element
            fi = hatd(i, x) if derivative else hatf(i, x)
            fj = hatd(j, x) if derivative else hatf(j, x)
            total += simpson(quad(x) * fi * fj, x=x)
        return total

    K = as_dense(fe_stiffness(quad, n))
    M = as_dense(fe_mass(quad, n))
    for (i, j) in [(0, 0), (2, 2), (2, 3), (5, 5)]:
        assert abs(K[i, j] - oracle(i, j, True)) < 1e-10 * max(1.0, abs(K[i, j]))
        assert abs(M[i, j] - oracle(i, j, False)) < 1e-10


def test_fe_symmetric_cases_exactly_symmetric():
    K = as_dense(fe_stiffness(XEXP, 25))
    M = as_dense(fe_mass(XEXP, 25))
    assert np.array_equal(K, K.T) and np.array_equal(M, M.T)
    A = as_dense(get_case("fe_t1", "xexp").build(25))
    assert np.array_equal(A, A.T)


# ---------------------------------------------------------------------------
# spectrum paths chosen from the matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec, solver", [
    ("fd_t2", "similarity_tridiagonal"),
    ("fd_t3", "similarity_tridiagonal"),
    ("fd_t4", "similarity_tridiagonal"),
    ("fd_t4:b=zero,c=zero", "similarity_tridiagonal"),
    ("fd_t6", "similarity_band"),
])
def test_similarity_paths_match_dense_eigenvalues(spec, solver):
    case = get_case(spec, "xexp")
    n = 200
    ev = case.spectrum(n)
    assert ev.solver == solver
    dense = case.complex_spectrum(n)
    assert np.max(np.abs(ev.values - np.sort(dense.real))) <= 1e-12 * np.max(np.abs(dense))


def test_fourth_order_scheme_stays_on_the_dense_path():
    assert get_case("fd_t5", "xexp").spectrum(60).solver == "nonsym_dense"


def test_negative_products_fall_back_to_dense_and_raise(monkeypatch):
    # convection h/2 outweighs diffusion 1e-6: lower * upper < 0 on every row
    tiny = Coefficient("tiny", lambda x: np.full_like(np.asarray(x, dtype=float), 1e-6),
                       "continuous")
    case = fd_cdr_dirichlet(tiny, ONE, ONE)
    n = 50
    A = case.build(n)
    assert np.all(A.diagonal_values(-1) * A.diagonal_values(1) < 0)
    dense_calls = []
    original = linalg.nonsym_eigvals
    monkeypatch.setattr(linalg, "nonsym_eigvals",
                        lambda M: dense_calls.append(M) or original(M))
    with pytest.raises(ComplexSpectrumError, match="fd_t2 at n=50"):
        case.spectrum(n)
    assert len(dense_calls) == 1


#: (solver of spectrum, solver of singular_spectrum) per registry case with a = x e^-x
_SOLVERS = {
    "fd_t1": ("sym_tridiagonal", "sym_tridiagonal"),
    "fd_t2": ("similarity_tridiagonal", "svd_dense"),
    "fd_t3": ("similarity_tridiagonal", "svd_dense"),
    "fd_t4": ("similarity_tridiagonal", "svd_dense"),
    "fd_t5": ("nonsym_dense", "svd_dense"),
    "fd_t6": ("similarity_band", "svd_dense"),
    "fd_t7": ("sym_tridiagonal", "sym_tridiagonal"),
    "fe_t1": ("sym_tridiagonal", "sym_tridiagonal"),
    "fe_mass": ("sym_tridiagonal", "sym_tridiagonal"),
    "schur": ("pencil_rank_one", "pencil_rank_one"),
    "Ln": ("pencil_band", "pencil_band"),
}
#: where a = 1 changes the path: fd_t6's row scaling is then the identity
_SOLVERS_ONE = {**_SOLVERS, "fd_t6": ("sym_band", "sym_band")}


@pytest.mark.parametrize("coeff, table", [("xexp", _SOLVERS), ("one", _SOLVERS_ONE)])
@pytest.mark.parametrize("name", case_names())
def test_every_case_pins_its_solvers(name, coeff, table):
    case = get_case(name, coeff)
    assert (case.spectrum(8).solver, case.singular_spectrum(8).solver) == table[name]


@pytest.mark.parametrize("spec", ["fd_t7", "fe_t1", "fe_mass"])
def test_alpha_after_the_solve_matches_the_normalized_matrix(spec):
    case = get_case(spec, "xexp")
    n = 60
    assert case.alpha(n) != 1.0
    ref = np.linalg.eigvalsh(case.normalized_dense(n))
    got = case.spectrum(n).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_pencil_case_has_no_dense_form():
    case = get_case("Ln", "xexp")
    with pytest.raises(ValueError, match="no dense form"):
        case.normalized_dense(5)
    with pytest.raises(ValueError, match="no dense form"):
        case.complex_spectrum(5)


@pytest.mark.parametrize("spec", ["fd_t1", "fd_t2", "fd_t4:b=zero,c=zero", "fd_t6", "schur"])
def test_singular_spectrum_matches_dense_svd(spec):
    case = get_case(spec, "xexp")
    n = 60
    ref = np.sort(np.linalg.svd(case.normalized_dense(n), compute_uv=False))
    got = case.singular_spectrum(n)
    assert got.kind == "singular_values"
    assert np.max(np.abs(got.values - ref)) <= 1e-10
