"""Tests for the dense/banded linear algebra layer."""
import contextlib
import dataclasses
import importlib.machinery
import io
import os
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

import gltkit.linalg as linalg
from gltkit import (
    BandedMatrix,
    ComplexSpectrumError,
    EigenConvergenceError,
    Pencil,
    RankOneUpdate,
    SpdError,
    SpectralSet,
    SymmetryError,
    as_dense,
    generalized_sym_eigvals,
    get_case,
    nonsym_eigvals,
    real_eigvals,
    schatten_norm,
    singular_values,
    solve_spd_banded,
    spectral_norm,
    sym_eigpairs,
    sym_eigvals,
    toeplitz,
    LAPLACE_SYMBOL,
    MASS_SYMBOL,
    TrigPoly,
)
from gltkit.builders import (
    _hadamard_with_toeplitz,
    arrow_sampling,
    case_names,
    fe_gradient_coupling,
    fe_mass,
    fe_stiffness,
    uniform_grid,
)
from gltkit.certificates import run_all_certificates
from gltkit.symbols import Coefficient, TrigPoly, coefficient_preset


# ---------------------------------------------------------------------------
# independent oracle: eigenvalue counting via LDL^T inertia (the dense form
# of Sturm-sequence sign counting), refined by bisection
# ---------------------------------------------------------------------------

def _count_eigs_below(A, x):
    M = A - x * np.eye(A.shape[0])
    neg = 0
    for k in range(M.shape[0]):
        piv = M[k, k]
        if piv == 0.0:
            piv = 1e-300
        if piv < 0:
            neg += 1
        M[k + 1:, k + 1:] -= np.outer(M[k + 1:, k], M[k + 1:, k]) / piv
    return neg


def bisection_eigvals(A, tol=1e-10):
    n = A.shape[0]
    radius = np.max(np.sum(np.abs(A), axis=1))  # Gerschgorin bound
    out = np.empty(n)
    for k in range(n):
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _count_eigs_below(A, mid) >= k + 1:
                hi = mid
            else:
                lo = mid
        out[k] = 0.5 * (lo + hi)
    return out


# ---------------------------------------------------------------------------
# symmetric eigenvalues
# ---------------------------------------------------------------------------

def test_tridiagonal_toeplitz_eigenvalues_exact():
    n = 8
    ev = sym_eigvals(toeplitz(LAPLACE_SYMBOL, n)).values
    ref = np.sort(2 - 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.max(np.abs(ev - ref)) < 1e-10


def test_identity_eigenvalues():
    ev = sym_eigvals(np.eye(4)).values
    assert np.allclose(ev, 1.0, atol=0)


def test_random_symmetric_matches_inertia_bisection_oracle():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((50, 50))
    A = (A + A.T) / 2
    ev = sym_eigvals(A).values
    ref = bisection_eigvals(A)
    assert np.max(np.abs(ev - ref)) < 1e-8


def test_tridiagonal_path_handles_n_5000_quickly():
    n = 5000
    d = 2 * np.ones(n)
    e = -np.ones(n - 1)
    t0 = time.time()
    ev = sym_eigvals(BandedMatrix.tridiagonal(d, e, e)).values
    assert time.time() - t0 < 30.0
    ref = 2 - 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert np.max(np.abs(ev - np.sort(ref))) < 1e-9


def test_eigenpair_residuals():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40))
    A = (A + A.T) / 2
    vals, vecs = sym_eigpairs(A)
    norm_A = np.linalg.norm(A, 2)
    res = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
    assert np.max(res) <= 1e-9 * norm_A


def test_nonsymmetric_input_rejected():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(SymmetryError):
        sym_eigvals(A)
    assert len(sym_eigvals(A + A.T)) == 2


def test_banded_wide_band_path():
    rng = np.random.default_rng(11)
    n = 30
    d0 = rng.standard_normal(n)
    d1 = rng.standard_normal(n - 1)
    d2 = rng.standard_normal(n - 2)
    A = BandedMatrix.from_diagonals(n, {0: d0, 1: d1, -1: d1, 2: d2, -2: d2})
    assert np.allclose(sym_eigvals(A).values, np.linalg.eigvalsh(A.toarray()))


# ---------------------------------------------------------------------------
# singular values / nonsymmetric spectra
# ---------------------------------------------------------------------------

def test_singular_values_diagonal():
    s = singular_values(np.diag([3.0, -4.0])).values
    assert np.allclose(s, [3.0, 4.0])


def test_singular_values_of_forward_difference_matches_gram_oracle():
    # bidiagonal realization of the first-difference factor
    K = toeplitz(TrigPoly([-1.0, 1.0, 0.0]), 5)  # coefficients c_{-1}=-1, c_0=1
    A = K.toarray()
    assert np.allclose(A, np.eye(5) - np.diag(np.ones(4), 1))
    s = singular_values(A).values
    gram = np.sort(np.sqrt(np.clip(np.linalg.eigvalsh(A.T @ A), 0, None)))
    assert np.max(np.abs(s - gram)) < 1e-8


def test_singular_values_zero_matrix():
    assert np.allclose(singular_values(np.zeros((3, 3))).values, 0.0)


def test_nonsym_rotation_eigenvalues():
    ev = nonsym_eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert sorted(np.round(ev.imag, 12)) == [-1.0, 1.0]
    assert np.allclose(ev.real, 0.0)


def test_nonsym_positive_diagonal_times_laplacian_is_real():
    # D T with D positive diagonal is similar to D^(1/2) T D^(1/2)
    n = 60
    a = 1.0 + np.arange(1, n + 1) / (n + 1)
    T = as_dense(toeplitz(LAPLACE_SYMBOL, n))
    ev = nonsym_eigvals(np.diag(a) @ T)
    assert np.max(np.abs(ev.imag)) <= 1e-7 * np.linalg.norm(np.diag(a) @ T, 2)


def test_nonsym_upper_triangular_gives_diagonal():
    rng = np.random.default_rng(5)
    A = np.triu(rng.standard_normal((10, 10)))
    ev = np.sort_complex(nonsym_eigvals(A))
    assert np.allclose(np.sort_complex(A.diagonal().astype(complex)), ev)


# ---------------------------------------------------------------------------
# solver dispatch: the path follows from the matrix
# ---------------------------------------------------------------------------

@st.composite
def positive_product_tridiagonals(draw):
    """Nonsymmetric tridiagonals with every lower[i] * upper[i] > 0."""
    n = draw(st.integers(2, 20))
    entries = st.floats(-5.0, 5.0, allow_nan=False)
    magnitudes = st.floats(0.5, 2.0)
    d = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    lo = np.array(draw(st.lists(magnitudes, min_size=n - 1, max_size=n - 1)))
    up = np.array(draw(st.lists(magnitudes, min_size=n - 1, max_size=n - 1)))
    signs = np.array(draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n - 1, max_size=n - 1)))
    return BandedMatrix.tridiagonal(d, signs * lo, signs * up)


@settings(max_examples=60, deadline=None)
@given(positive_product_tridiagonals())
def test_positive_product_tridiagonal_takes_similarity_path(A):
    ev = real_eigvals(A)
    dense = A.toarray()
    if ev.solver != "sym_tridiagonal":  # symmetric draws are rare but possible
        assert ev.solver == "similarity_tridiagonal"
    scale = max(np.max(np.abs(ev.values)), 1.0)
    ref = np.sort(np.linalg.eigvals(dense).real)
    assert np.max(np.abs(ev.values - ref)) <= 1e-8 * scale
    # power traces are invariants no eigensolver enters: sum lambda^k = tr A^k
    P = np.eye(A.n)
    for k in (1, 2, 3):
        P = P @ dense
        assert abs(np.sum(ev.values ** k) - np.trace(P)) <= 1e-10 * A.n * scale ** k


def _diag_times_symmetric_band(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1, 3.0, n)
    s1, s2 = rng.uniform(-2.0, -0.5, n - 1), rng.standard_normal(n - 2)
    S = BandedMatrix.from_diagonals(n, {0: rng.uniform(4, 6, n), 1: s1, -1: s1, 2: s2, -2: s2})
    diags = {k: S.diagonal_values(k) * (d[: n - k] if k >= 0 else d[-k:]) for k in range(-2, 3)}
    return d, S, BandedMatrix.from_diagonals(n, diags)


def test_diagonal_times_symmetric_band_takes_similarity_band_path():
    d, S, A = _diag_times_symmetric_band(40, 23)
    ev = real_eigvals(A)
    assert ev.solver == "similarity_band"
    root = np.sqrt(d)
    ref = np.linalg.eigvalsh(root[:, None] * S.toarray() * root[None, :])
    assert np.max(np.abs(ev.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_band_that_is_not_diagonal_times_symmetric_goes_dense():
    _, _, A = _diag_times_symmetric_band(40, 29)
    bands = A.bands.copy()
    bands[0, 5] += 0.05  # one second-superdiagonal entry: ratios stay positive
    ev = real_eigvals(BandedMatrix(A.n, 2, 2, bands))
    assert ev.solver == "nonsym_dense"


def test_symmetric_paths_are_named():
    T = toeplitz(LAPLACE_SYMBOL, 10)
    assert real_eigvals(T).solver == "sym_tridiagonal"
    assert real_eigvals(T.toarray()).solver == "sym_dense"
    _, S, _ = _diag_times_symmetric_band(10, 31)
    assert real_eigvals(S).solver == "sym_band"


def test_negative_products_fall_back_to_dense_and_raise():
    n = 12
    A = BandedMatrix.tridiagonal(np.zeros(n), -np.ones(n - 1), np.ones(n - 1))
    with pytest.raises(ComplexSpectrumError):
        real_eigvals(A)
    # bidiagonal: zero products, real spectrum (the diagonal) through the dense path
    B = BandedMatrix.tridiagonal(np.arange(1.0, n + 1), np.ones(n - 1), np.zeros(n - 1))
    ev = real_eigvals(B)
    assert ev.solver == "nonsym_dense"
    assert np.allclose(ev.values, np.arange(1.0, n + 1), atol=1e-12)


def test_one_symmetry_test_per_solve():
    """Each dispatcher proves symmetry once and solves without a second
    test; the public sym_eigvals keeps its own guard.  The spectral norm of
    a real band needs no symmetry, and an operand proven symmetric when it
    was made (a RankOneUpdate) is solved without another test."""
    T = toeplitz(LAPLACE_SYMBOL, 30)
    _, _, A = _diag_times_symmetric_band(30, 37)
    S = get_case("schur", "xexp").build(30)
    assert real_eigvals(S).solver == "pencil_rank_one"
    expected = [
        (lambda: real_eigvals(T), 1),
        (lambda: real_eigvals(A), 2),  # A itself, then its similar band S
        (lambda: schatten_norm(T, 1), 1),
        (lambda: spectral_norm(T), 0),
        (lambda: real_eigvals(S), 0),
        (lambda: get_case("fd_t1", "xexp").singular_spectrum(30), 1),
        (lambda: sym_eigvals(T), 1),
    ]
    for solve, count in expected:
        with mock.patch.object(linalg, "_symmetry_defect",
                               wraps=linalg._symmetry_defect) as spy:
            solve()
        assert spy.call_count == count
    # 12 trace norms of fe_t1, one test each; the 24 spectral norms of
    # fd_t7's nonsymmetric band go straight to A^T A (one failing test each before)
    with mock.patch.object(linalg, "_symmetry_defect", wraps=linalg._symmetry_defect) as spy:
        run_all_certificates(seed=7)
    assert spy.call_count == 12


def test_real_drivers_refuse_complex_operands():
    """A complex symmetric operand has a complex spectrum (here 2 +- 1.80i,
    2 +- 1.25i, 2 +- 0.45i): the tridiagonal, band and dense symmetric
    branches, the band pencil and the banded solves raise instead of
    dropping its imaginary parts.  The singular values keep the SVD."""
    tri = toeplitz(TrigPoly([1j, 2, 1j]), 6)
    penta = toeplitz(TrigPoly([0.5j, 1j, 2, 1j, 0.5j]), 6)
    mass = toeplitz(MASS_SYMBOL, 6)
    assert np.allclose(np.sort(np.abs(nonsym_eigvals(tri).imag)),
                       np.repeat(2 * np.cos(np.pi * np.arange(3, 0, -1) / 7), 2))
    for solve in (lambda: sym_eigvals(tri), lambda: real_eigvals(tri),
                  lambda: sym_eigvals(penta), lambda: real_eigvals(penta),
                  lambda: sym_eigvals(tri.toarray()), lambda: real_eigvals(tri.toarray()),
                  lambda: generalized_sym_eigvals(tri, mass),
                  lambda: real_eigvals(Pencil(tri, mass)),
                  lambda: solve_spd_banded(tri, np.ones(6)),
                  lambda: linalg.spd_cholesky_banded(tri)):
        with pytest.raises(ValueError, match="complex matrix"):
            solve()
    sigma = linalg.singular_spectrum(tri)
    assert sigma.solver == "svd_dense"
    assert np.allclose(sigma.values, np.linalg.svd(tri.toarray(), compute_uv=False)[::-1])


def test_complex_pencil_and_rank_one_operands_are_refused_when_made():
    """The complex symmetric band is refused where the operand is made, not
    only when real_eigvals solves it."""
    tri = toeplitz(TrigPoly([1j, 2, 1j]), 6)
    for make in (lambda: Pencil(tri, toeplitz(MASS_SYMBOL, 6)),
                 lambda: RankOneUpdate(tri, [1.0] * 6, 1.0)):
        with pytest.raises(ValueError, match="complex matrix"):
            make()


# ---------------------------------------------------------------------------
# Schatten norms
# ---------------------------------------------------------------------------

def test_schatten_trace_norm_diag():
    assert schatten_norm(np.diag([1.0, -2.0, 3.0]), 1) == pytest.approx(6.0)


def test_schatten_two_equals_frobenius():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((17, 17))
    assert schatten_norm(A, 2) == pytest.approx(np.sqrt(np.sum(A**2)), abs=1e-12)


def test_spectral_norm_bounded_by_one_inf_geometric_mean():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((20, 20))
    lhs = schatten_norm(A, np.inf)
    rhs = np.sqrt(np.max(np.sum(np.abs(A), axis=0)) * np.max(np.sum(np.abs(A), axis=1)))
    assert lhs <= rhs * (1 + 1e-12)


def test_schatten_rejects_p_below_one():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_monotone_in_p():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((12, 12))
    ps = [1.0, 1.5, 2.0, 3.0, 10.0, np.inf]
    norms = [schatten_norm(A, p) for p in ps]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_trace_norm_bounded_by_entry_sum():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((15, 15))
    assert schatten_norm(A, 1) <= np.sum(np.abs(A)) * (1 + 1e-12)


@st.composite
def norm_test_matrices(draw):
    """(matrix, structure): random bands, symmetric or not, and dense
    matrices, with entries that are 0 or of magnitude in [0.01, 5]."""
    n = draw(st.integers(1, 24))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 5.0), st.floats(-5.0, -0.01))
    kind = draw(st.sampled_from(("band", "symmetric band", "dense", "symmetric dense")))
    if kind.endswith("dense"):
        A = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
        return (A + A.T if kind.startswith("symmetric") else A), kind
    kl = draw(st.integers(0, min(3, n - 1)))
    ku = kl if kind.startswith("symmetric") else draw(st.integers(0, min(3, n - 1)))
    diags = {k: np.array(draw(st.lists(entry, min_size=n - abs(k), max_size=n - abs(k))))
             for k in range(-kl, ku + 1)}
    if kind.startswith("symmetric"):
        diags.update({-k: diags[k] for k in range(1, ku + 1)})
    return BandedMatrix.from_diagonals(n, diags), kind


@settings(max_examples=120, deadline=None)
@given(norm_test_matrices())
def test_schatten_norm_routes_match_dense_svd(case):
    A, kind = case
    s = np.linalg.svd(as_dense(A), compute_uv=False)
    for p in (1, 2, 3, np.inf):
        with mock.patch.object(linalg, "singular_values", wraps=linalg.singular_values) as svd:
            got = schatten_norm(A, p)
        ref = np.linalg.norm(s, p)
        assert abs(got - ref) <= 1e-12 * ref, (kind, p)
        structured = (p == 2 or linalg.is_symmetric(A, tol=0.0)
                      or (kind == "band" and np.isinf(p)))
        assert svd.call_count == (0 if structured else 1), (kind, p)


def test_banded_frobenius_ignores_band_padding():
    # bands[0, 0] and bands[2, 2] lie outside the matrix; junk there must not count
    bands = np.array([[7.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 8.0, 9.0]])
    A = BandedMatrix(3, 1, 1, bands)
    assert schatten_norm(A, 2) == pytest.approx(np.linalg.norm(A.toarray()), rel=1e-15)
    assert schatten_norm(A, np.inf) == pytest.approx(np.linalg.norm(A.toarray(), 2), rel=1e-13)


@pytest.mark.parametrize("coeff", ["xexp", "one"])
@pytest.mark.parametrize("name", case_names())
def test_schatten_norm_is_the_norm_of_the_singular_spectrum(name, coeff):
    """Off the two shortcuts (p = 2 and p = inf on a nonsymmetric band),
    schatten_norm takes the one singular-value route, bit for bit."""
    case = get_case(name, coeff)
    for n in (1, 2, 7, 50):
        try:
            A = case.build(n)
        except ValueError:  # below the stencil's smallest n
            continue
        if isinstance(A, Pencil):
            continue
        for p in (1, 3):
            expected = float(np.linalg.norm(linalg.singular_spectrum(A).values, p))
            assert schatten_norm(A, p) == expected, (n, p)


def test_schatten_norm_of_a_rank_one_update_forms_no_dense_matrix():
    A = get_case("schur", "xexp").build(400)
    with mock.patch.object(RankOneUpdate, "toarray", autospec=True,
                           side_effect=RankOneUpdate.toarray) as toarray:
        for p in (1, 3, np.inf):
            schatten_norm(A, p)
        assert linalg.singular_spectrum(A).solver == "pencil_rank_one"
    assert toarray.call_count == 0


def test_a_pencil_has_no_schatten_norm():
    A = get_case("Ln", "xexp").build(20)
    assert isinstance(A, Pencil)
    for p in (1, 2, np.inf):
        with pytest.raises(ValueError, match="pencil"):
            schatten_norm(A, p)


def test_band_padding_does_not_make_a_band_symmetric():
    # bands[0, 0] = 1e20 lies outside the matrix; the stored band has upper
    # off-diagonal 1 and lower off-diagonal 1e-3, so it is not symmetric
    A = BandedMatrix(4, 1, 1, np.array([[1e20, 1, 1, 1], [2, 2, 2, 2], [1e-3, 1e-3, 1e-3, 0]]))
    assert linalg._max_abs(A) == 2.0
    assert not linalg.is_symmetric(A)
    got = real_eigvals(A)
    assert got.solver == "similarity_tridiagonal"
    dense = np.sort(np.linalg.eigvals(A.toarray()).real)
    assert np.allclose(got.values, dense, rtol=0, atol=1e-12)  # about [1.949, 1.980, 2.020, 2.051]


# ---------------------------------------------------------------------------
# band algebra: sums, differences, row scaling, products and transposes
# ---------------------------------------------------------------------------

def _diagonal_sum(A, B):
    """Reference sum diagonal by diagonal: the band covers both operands,
    all-zero outer diagonals drop, the main diagonal stays."""
    kl, ku = max(A.lower_bw, B.lower_bw), max(A.upper_bw, B.upper_bw)
    diags = {}
    for k in range(-kl, ku + 1):
        total = sum(m.diagonal_values(k) for m in (A, B))
        if np.any(total != 0) or k == 0:
            diags[k] = total
    return BandedMatrix.from_diagonals(A.n, diags)


@st.composite
def band_operands(draw):
    """(A, B, v): two bands of one size with independent bandwidths and
    junk in the band padding, where B either is independent of A or copies
    some of A's diagonals (so differences cancel whole diagonals), and a
    float or bool row scaling v."""
    n = draw(st.integers(1, 10))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                      st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))

    def band(kl, ku):
        rows = kl + ku + 1
        bands = np.array(draw(st.lists(entry, min_size=rows * n, max_size=rows * n)))
        return BandedMatrix(n, kl, ku, bands.reshape(rows, n))

    bw = st.integers(0, min(3, n - 1))
    A = band(draw(bw), draw(bw))
    if draw(st.booleans()):
        B = band(draw(bw), draw(bw))
    else:
        B = band(A.lower_bw, A.upper_bw)
        shared = np.array(draw(st.lists(st.booleans(), min_size=B.bands.shape[0],
                                        max_size=B.bands.shape[0])))
        B = BandedMatrix(n, B.lower_bw, B.upper_bw, np.where(shared[:, None], A.bands, B.bands))
    values = st.booleans() if draw(st.booleans()) else entry
    v = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return A, B, v


@settings(max_examples=300, deadline=None)
@given(band_operands())
def test_band_sum_difference_and_row_scaling_match_dense(operands):
    A, B, v = operands
    n, Ad, Bd = A.n, A.toarray(), B.toarray()
    for got, ref, dense in ((A + B, _diagonal_sum(A, B), Ad + Bd),
                            (A - B, _diagonal_sum(A, B.scaled(-1.0)), Ad - Bd)):
        assert (got.lower_bw, got.upper_bw) == (ref.lower_bw, ref.upper_bw)
        assert got.toarray().tobytes() == ref.toarray().tobytes()
        assert np.array_equal(got.toarray(), dense)  # == also equates 0.0 and -0.0
    scaled = A.row_scaled(v)
    assert (scaled.lower_bw, scaled.upper_bw) == (A.lower_bw, A.upper_bw)
    assert scaled.bands.dtype == float
    assert np.array_equal(scaled.toarray(), np.diag(v) @ Ad)
    # A.T moves stored values only, so it is exact; padding stays out of it
    At = A.T
    assert (At.lower_bw, At.upper_bw) == (A.upper_bw, A.lower_bw)
    assert At.toarray().tobytes() == np.ascontiguousarray(Ad.T).tobytes()
    # each entry of a product sums at most bw + 1 terms, bw = A.lower_bw +
    # A.upper_bw, so it and the dense product each err by at most
    # (bw + 1) (eps / 2) (|A||B|), plus the underflow term of the rounding model
    terms = A.lower_bw + A.upper_bw + 1
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    C = A @ B
    assert (C.lower_bw, C.upper_bw) == (min(A.lower_bw + B.lower_bw, n - 1),
                                        min(A.upper_bw + B.upper_bw, n - 1))
    assert np.all(np.abs(C.toarray() - Ad @ Bd) <= terms * eps * (np.abs(Ad) @ np.abs(Bd)) + tiny)


def _toarray_writing_every_stored_entry(A):
    """The dense form as it was made before +0.0 went unwritten: each
    stored diagonal written whole."""
    D = np.zeros((A.n, A.n), dtype=A.bands.dtype)
    for k in range(-A.lower_bw, A.upper_bw + 1):
        v = A.diagonal_values(k)
        i = np.arange(v.size) + max(0, -k)
        D[i, i + k] = v
    return D


@st.composite
def signed_zero_bands(draw):
    """A band of n <= 40 and bandwidths <= 3 whose parts are drawn from
    +0.0, -0.0, subnormals and finite floats; complex for half the draws."""
    n = draw(st.integers(1, 40))
    kl, ku = (draw(st.integers(0, min(3, n - 1))) for _ in range(2))
    part = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300]),
                     st.floats(allow_nan=False, allow_infinity=False))
    size = (kl + ku + 1) * n
    bands = np.array(draw(st.lists(part, min_size=size, max_size=size)))
    if draw(st.booleans()):
        z = np.empty(size, dtype=complex)  # set, not summed, so -0.0 parts survive
        z.real, z.imag = bands, draw(st.lists(part, min_size=size, max_size=size))
        bands = z
    return BandedMatrix(n, kl, ku, bands.reshape(kl + ku + 1, n))


@settings(max_examples=200, deadline=None)
@given(signed_zero_bands())
@example(BandedMatrix(3, 1, 0, np.array([[-0.0, 0.0, 2.0], [0.0, -0.0, 0.0]])))
@example(BandedMatrix(2, 0, 1, np.array([[9.0, complex(0.0, -0.0)],
                                         [complex(-0.0, 0.0), 5e-324j]])))
def test_toarray_has_the_bytes_of_writing_every_stored_entry(A):
    got, ref = A.toarray(), _toarray_writing_every_stored_entry(A)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_a_sparse_band_maps_only_the_pages_its_dense_form_touches():
    """toarray leaves +0.0 unwritten, so the pages of np.zeros that no
    other entry lands on are never mapped: a diagonal of n = 4000 (128 MB
    dense) with two nonzeros grew ru_maxrss by 0.1 MB, and by 120.5 MB
    when every stored entry was written."""
    out = _fresh_python("""
import resource
import numpy as np
from gltkit.linalg import BandedMatrix
d = np.zeros(4000)
d[0], d[-1] = 1.0, 2.0
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
A = BandedMatrix.diagonal(d).toarray()
grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
assert (A[0, 0], A[-1, -1], np.count_nonzero(A)) == (1.0, 2.0, 2)
print(grew)
""")
    assert int(out) < 8 * 1024, f"ru_maxrss grew by {int(out) / 1024:.1f} MB"


def test_band_algebra_rejects_mismatched_operands():
    T = toeplitz(LAPLACE_SYMBOL, 4)
    with pytest.raises(ValueError):
        T + toeplitz(LAPLACE_SYMBOL, 5)
    with pytest.raises(TypeError):
        T - np.eye(4)
    with pytest.raises(ValueError):
        T.row_scaled(np.ones(3))
    with pytest.raises(ValueError):
        T @ toeplitz(LAPLACE_SYMBOL, 5)
    # a band times a dense array is not band algebra, whatever its shape; the
    # TypeError is raised here, not left to numpy's matmul
    for X in (np.ones((4, 2)), np.ones((5, 2)), np.eye(4)):
        with pytest.raises(TypeError, match="expected BandedMatrix operands"):
            T @ X


# ---------------------------------------------------------------------------
# symmetric-definite band pencils
# ---------------------------------------------------------------------------

@st.composite
def band_pencils(draw):
    """A symmetric band K and a strictly diagonally dominant (so SPD) band M
    of size 1..40 with independent bandwidths 0..3, so M's band may be the
    wider one."""
    n = draw(st.integers(1, 40))
    entry = st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False)

    def symmetric_band(diagonal):
        diags = {0: diagonal}
        for k in range(1, draw(st.integers(0, min(3, n - 1))) + 1):
            diags[k] = diags[-k] = np.array(draw(st.lists(entry, min_size=n - k,
                                                           max_size=n - k)))
        return BandedMatrix.from_diagonals(n, diags)

    K = symmetric_band(np.array(draw(st.lists(entry, min_size=n, max_size=n))))
    off = symmetric_band(np.zeros(n))
    margin = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)))
    M = off + BandedMatrix.diagonal(np.abs(off.toarray()).sum(axis=1) + margin)
    return K, M, draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(band_pencils())
def test_band_pencil_matches_dense_eigh(pencil):
    K, M, j = pencil
    ev = generalized_sym_eigvals(K, M)
    ref = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    assert ev.solver == "pencil_band" and ev.kind == "eigenvalues"
    assert np.all(np.diff(ev.values) >= 0)
    scale = max(np.max(np.abs(ref)), np.finfo(float).tiny)
    assert np.max(np.abs(ev.values - ref)) <= 1e-10 * scale
    # -M is negative definite; zeroing row and column j makes M singular
    mask = np.ones(K.n)
    mask[j] = 0.0
    for bad in (M.scaled(-1.0), M.row_scaled(mask).T.row_scaled(mask)):
        with pytest.raises(SpdError):
            generalized_sym_eigvals(K, bad)
    if K.n > 1:
        corner = BandedMatrix.from_diagonals(K.n, {1: np.eye(1, K.n - 1)[0]})
        with pytest.raises(SymmetryError):
            generalized_sym_eigvals(K + corner, M)
    for dense in ((K.toarray(), M), (K, M.toarray())):
        with pytest.raises(TypeError):
            generalized_sym_eigvals(*dense)


def test_band_pencil_with_wider_mass_band():
    # a diagonal K against a pentadiagonal M: K's band is padded to M's
    n = 12
    K = BandedMatrix.diagonal(np.arange(1.0, n + 1))
    M = BandedMatrix.from_diagonals(n, {0: 4 * np.ones(n), 2: np.ones(n - 2), -2: np.ones(n - 2)})
    ev = generalized_sym_eigvals(K, M).values
    ref = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    assert np.max(np.abs(ev - ref)) <= 1e-13 * np.max(np.abs(ref))
    with pytest.raises(ValueError, match="size mismatch"):
        generalized_sym_eigvals(K, BandedMatrix.diagonal(np.ones(n + 1)))


def test_pencil_operand_is_solved_by_the_band_pencil_driver():
    n = 9
    K = fe_stiffness(coefficient_preset("xexp"), n)
    M = fe_mass(coefficient_preset("xexp"), n)
    got, ref = real_eigvals(Pencil(K, M)), generalized_sym_eigvals(K, M)
    assert got.solver == ref.solver == "pencil_band"
    assert np.array_equal(got.values, ref.values)
    with pytest.raises(SpdError):
        Pencil(K, M.scaled(-1.0))
    with pytest.raises(ValueError, match="size mismatch"):
        Pencil(K, fe_mass(coefficient_preset("one"), n + 1))
    with pytest.raises(TypeError):
        Pencil(K.toarray(), M)
    with pytest.raises(ValueError, match="no dense form"):
        as_dense(Pencil(K, M))


def test_pencil_is_checked_once_and_solved_without_guards():
    n = 40
    K = fe_stiffness(coefficient_preset("xexp"), n)
    M = fe_mass(coefficient_preset("xexp"), n)
    with pytest.raises(SymmetryError):
        Pencil(K + BandedMatrix.from_diagonals(n, {1: np.eye(1, n - 1)[0]}), M)
    case, calls = get_case("Ln", "xexp"), []
    original_call = linalg._call
    with mock.patch.object(linalg, "_symmetry_defect", wraps=linalg._symmetry_defect) as defect, \
            mock.patch.object(linalg, "_call",
                              side_effect=lambda name, **a: calls.append(name)
                              or original_call(name, **a)):
        got = case.spectrum(n)
    # K and M tested once each when the Pencil is made; one banded Cholesky of M
    assert defect.call_count == 2
    assert calls == ["dpbtrf", "dsbgv"]
    P = case.build(n)
    ref = generalized_sym_eigvals(P.K, P.M)
    assert got.solver == ref.solver == "pencil_band"
    assert np.array_equal(got.values, np.sort(case.alpha(n) * ref.values))


def test_lapack_binding_checks_the_capsule_signature():
    assert set(linalg._ARGTYPES) == {"dsbevd", "dsbevx", "dsbgv", "dpbsv", "dpbtrf"}
    for name, argtypes in linalg._ARGTYPES.items():
        routine = linalg._lapack(name, argtypes)
        assert callable(routine) and routine is linalg._lapack(name, argtypes)
        with pytest.raises(RuntimeError, match=f"{name} is declared as"):
            linalg._lapack(name, argtypes[:-1])
        # the first argument is a char * or an int *; declare it as a double *
        swapped = (linalg._C_TYPES["d"],) + argtypes[1:]
        with pytest.raises(RuntimeError, match=f"{name} is declared as"):
            linalg._lapack(name, swapped)


# ---------------------------------------------------------------------------
# LAPACK bindings against the scipy.linalg wrappers they replace
# ---------------------------------------------------------------------------

def _scipy_sym_eigvals(A):
    """``_sym_eigvals`` through scipy.linalg's tridiagonal and band drivers."""
    if not isinstance(A, BandedMatrix):
        return SpectralSet(np.sort(np.linalg.eigvalsh(as_dense(A))), "eigenvalues", "sym_dense")
    if max(A.lower_bw, A.upper_bw) <= 1:
        d = A.diagonal_values(0).astype(float)
        if A.n > 1:
            d = sla.eigvalsh_tridiagonal(d, A.diagonal_values(-1).astype(float))
        return SpectralSet(np.sort(d), "eigenvalues", "sym_tridiagonal")
    vals = sla.eig_banded(linalg._upper_band(A), lower=False, eigvals_only=True)
    return SpectralSet(np.sort(vals), "eigenvalues", "sym_band")


def _scipy_banded_spectral_norm(A):
    top = sla.eig_banded(linalg._upper_band(A.T @ A), lower=False, eigvals_only=True,
                         select="i", select_range=(A.n - 1, A.n - 1))
    return float(np.sqrt(max(top[0], 0.0)))


def _scipy_cholesky(A):
    linalg.require_symmetric(A)
    try:
        return sla.cholesky_banded(linalg._upper_band(A), lower=False)
    except sla.LinAlgError as exc:
        raise SpdError(str(exc)) from exc


def _spd_bands(n, upper_bw):
    """A diagonally dominant SPD band with ``upper_bw`` off-diagonals on each side."""
    rng = np.random.default_rng(n + upper_bw)
    diags = {}
    for k in range(1, min(upper_bw, n - 1) + 1):
        diags[k] = diags[-k] = rng.standard_normal(n - k)
    diags[0] = 2.0 * upper_bw + 1.0 + rng.random(n)
    return BandedMatrix.from_diagonals(n, diags)


def _stev_eigvals(A):
    """Eigenvalues of a symmetric tridiagonal band by LAPACK's tridiagonal
    driver ``dstev``, from its diagonal and upper diagonal."""
    d, e = A.diagonal_values(0).astype(float), A.diagonal_values(1).astype(float)
    return np.sort(sla.eigvalsh_tridiagonal(d, e, lapack_driver="stev"))


def _registry_tridiagonals():
    """Every symmetric tridiagonal of a registry case: a built band, the
    symmetric band a nonsymmetric one is diagonally similar to, the two
    bands of a pencil and the band of a rank-one update."""
    out = []
    for name in case_names():
        for coeff in ("xexp", "one", "1+x"):
            case = get_case(name, coeff)
            for n in (1, 2, 7, 50, 400):
                try:
                    A = case.build(n)
                except ValueError:  # below the stencil's smallest n
                    continue
                parts = ((A.K, A.M) if isinstance(A, Pencil) else
                         (A.T,) if isinstance(A, RankOneUpdate) else (A,))
                for B in parts:
                    if not isinstance(B, BandedMatrix) or max(B.lower_bw, B.upper_bw) > 1:
                        continue
                    if not linalg.is_symmetric(B):
                        B = (linalg._diagonal_similarity(B) or (None,))[0]
                    if B is not None:
                        out.append((f"{name}/{coeff}/{n}", B))
    return out


def test_every_registry_tridiagonal_gets_the_bits_of_the_tridiagonal_driver():
    operands = _registry_tridiagonals()
    assert len(operands) >= 140
    for label, A in operands:
        got = linalg._sym_eigvals(A)
        assert got.solver == "sym_tridiagonal", label
        assert np.array_equal(got.values, _stev_eigvals(A)), label


_MIXED_SCALE = st.builds(lambda m, p: m * 10.0 ** p,
                         st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
                         st.integers(-8, 8))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 59).flatmap(lambda n: st.tuples(
    st.lists(_MIXED_SCALE, min_size=n, max_size=n),
    st.lists(st.one_of(st.just(0.0), _MIXED_SCALE), min_size=n - 1, max_size=n - 1),
    st.booleans())))
def test_band_driver_gives_the_bits_of_the_tridiagonal_driver(args):
    d, e, diagonal = args
    A = BandedMatrix.diagonal(d) if diagonal else BandedMatrix.tridiagonal(d, e, e)
    got = linalg._sym_eigvals(A)
    assert got.solver == "sym_tridiagonal"
    assert np.array_equal(got.values, _stev_eigvals(A))


@pytest.mark.parametrize("coeff", ["xexp", "one"])
@pytest.mark.parametrize("name", case_names())
def test_bound_routines_give_the_bytes_of_the_scipy_wrappers(name, coeff, monkeypatch):
    case = get_case(name, coeff)
    sizes = []
    for n in (1, 2, 7, 400):
        try:
            case.build(n)
            sizes.append(n)
        except ValueError:  # below the stencil's smallest n
            pass

    def results():
        out = []
        for n in sizes:
            for s in (case.spectrum(n), case.singular_spectrum(n)):
                out.append((s.values, s.solver))
            A = case.build(n)
            if isinstance(A, BandedMatrix) and not linalg.is_symmetric(A, tol=0.0):
                out.append((np.array([linalg.spectral_norm(A)]), "spectral_norm"))
        return out

    got = results()
    monkeypatch.setattr(linalg, "_sym_eigvals", _scipy_sym_eigvals)
    monkeypatch.setattr(linalg, "_banded_spectral_norm", _scipy_banded_spectral_norm)
    monkeypatch.setattr(linalg, "spd_cholesky_banded", _scipy_cholesky)
    ref = results()
    assert len(got) == len(ref) >= 2
    for (v, solver), (w, ref_solver) in zip(got, ref):
        assert solver == ref_solver
        assert np.array_equal(v, w)


@pytest.mark.parametrize("upper_bw", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 7, 400])
def test_spd_solve_and_cholesky_give_the_bytes_of_the_scipy_wrappers(n, upper_bw):
    A = _spd_bands(n, upper_bw)
    B = np.random.default_rng(n).standard_normal((n, 3))
    X = solve_spd_banded(A, B)
    # the bytes of scipy's dpbsv wrapper; solveh_banded calls it as well, but
    # hands a tridiagonal to dptsv (LDL^T), which agrees only to rounding
    _, ref, info = sla.lapack.dpbsv(linalg._upper_band(A), B, lower=0)
    assert info == 0 and np.array_equal(X, ref)
    ldl = sla.solveh_banded(linalg._upper_band(A), B, lower=False)
    assert np.max(np.abs(X - ldl), initial=0.0) <= 1e-14 * np.max(np.abs(X), initial=0.0)
    assert np.array_equal(solve_spd_banded(A, B[:, 0]), X[:, 0])
    assert solve_spd_banded(A, B[:, :0]).shape == (n, 0)
    assert np.array_equal(linalg.spd_cholesky_banded(A), _scipy_cholesky(A))


@pytest.mark.parametrize("upper_bw", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_every_spd_driver_rejects_a_band_that_is_not_spd(n, upper_bw):
    A = _spd_bands(n, upper_bw).scaled(-1.0)  # negative definite: the first pivot fails
    with pytest.raises(SpdError, match="leading minor of order 1 "):
        linalg.spd_cholesky_banded(A)  # dpbtrf
    with pytest.raises(SpdError, match="leading minor of order 1 "):
        solve_spd_banded(A, np.ones(n))  # dpbsv
    with pytest.raises(SpdError, match="dpbstf"):
        generalized_sym_eigvals(_spd_bands(n, upper_bw), A)  # dsbgv's info > n


def test_lapack_info_codes_map_to_exceptions():
    n = 5
    with pytest.raises(ValueError, match=r"dsbevx: argument 4 \(n\)"):
        linalg._check_info("dsbevx", -4, n)
    with pytest.raises(ValueError, match=r"dpbsv: argument 7 \(b\)"):
        linalg._check_info("dpbsv", -7, n)
    linalg._check_info("dsbevd", 0, n)
    for info in (1, n):
        for name in ("dpbtrf", "dpbsv"):
            with pytest.raises(SpdError, match=f"order {info} "):
                linalg._check_info(name, info, n)
        for name in ("dsbevd", "dsbevx", "dsbgv"):
            with pytest.raises(EigenConvergenceError, match=f"info = {info}"):
                linalg._check_info(name, info, n)
    with pytest.raises(SpdError, match="dpbstf"):
        linalg._check_info("dsbgv", n + 1, n)
    with pytest.raises(EigenConvergenceError):
        linalg._check_info("dsbevd", n + 1, n)
    with pytest.raises(SpdError):
        linalg._check_info("dpbtrf", n + 1, n)


def test_lapack_arguments_are_checked_before_the_call():
    A = _spd_bands(6, 2)
    ab = linalg._upper_band(A)
    for bad in (np.ascontiguousarray(ab), ab.astype(np.float32)):
        with pytest.raises(TypeError, match="Fortran-ordered float64"):
            linalg._call("dpbtrf", uplo="U", n=6, kd=2, ab=bad, ldab=3)
    ab.flags.writeable = False
    with pytest.raises(TypeError, match="not writable"):
        linalg._call("dpbtrf", uplo="U", n=6, kd=2, ab=ab, ldab=3)


def test_spectral_norm_tolerance_is_twice_the_lapack_safe_minimum():
    from scipy.linalg import lapack

    assert 2 * np.finfo(float).tiny == 2 * lapack.dlamch("S")


@st.composite
def mixed_scale_bands(draw):
    """Real bands with kl, ku in 0..3 and n in 1..40: whole diagonals of
    zeros, and entries from 1e-100 to 1e100 in magnitude."""
    n = draw(st.integers(1, 40))
    kl, ku = (draw(st.integers(0, min(3, n - 1))) for _ in range(2))
    entry = st.builds(lambda u, s: u * s, st.floats(-1.0, 1.0),
                      st.sampled_from([1e-100, 1e-8, 1.0, 1e8, 1e100]))
    rows = [[0.0] * n if draw(st.booleans()) else
            draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(kl + ku + 1)]
    return BandedMatrix(n, kl, ku, np.array(rows))


@settings(max_examples=300, deadline=None)
@given(mixed_scale_bands())
def test_upper_gram_is_the_upper_band_of_the_full_product(A):
    """The diagonals k >= 0 of A.T A, formed alone, are those of the whole
    product, bit for bit, in LAPACK's Fortran-ordered upper band storage."""
    got, full = linalg._upper_gram(A), linalg._upper_band(A.T @ A)
    assert got.shape == full.shape and got.flags.f_contiguous
    assert got.tobytes(order="F") == full.tobytes(order="F")


@st.composite
def scaled_real_bands(draw):
    """Real bands, symmetric or not, of n in 1..40 and kl, ku in 0..3, with
    entries from +-0.0 and finite floats in [-4, 4] (subnormals included),
    all times one 2^k with k in -1000..1000."""
    n = draw(st.integers(1, 40))
    kl = draw(st.integers(0, min(3, n - 1)))
    symmetric = draw(st.booleans())
    ku = kl if symmetric else draw(st.integers(0, min(3, n - 1)))
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
    scale = 2.0 ** draw(st.integers(-1000, 1000))
    diags = {k: scale * np.array(draw(st.lists(entry, min_size=n - abs(k), max_size=n - abs(k))))
             for k in range(-kl, ku + 1)}
    if symmetric:
        diags.update({-k: diags[k] for k in range(1, ku + 1)})
    return BandedMatrix.from_diagonals(n, diags)


_SCALE_DEFECT = [BandedMatrix.tridiagonal(np.full(5, 2 * s), np.full(4, -s), np.full(4, -2 * s))
                 for s in (1e200, 1e-200, 1e300, 1e-300, 1e-310)]


@settings(max_examples=400, deadline=None)
@given(scaled_real_bands())
@example(_SCALE_DEFECT[0])  # overflowed A^T A, ValueError "non-finite entries"
@example(_SCALE_DEFECT[1])  # underflowed A^T A, 0.0 for 4.62e-200
@example(_SCALE_DEFECT[2])
@example(_SCALE_DEFECT[3])
@example(_SCALE_DEFECT[4])  # a subnormal max |A|, scaled by 2^1023
@example(BandedMatrix.tridiagonal(np.full(6, 1e200), np.full(5, -1e200), np.full(5, -1e200)))
@example(BandedMatrix.diagonal(np.array([5e-324, -0.0])))
@example(BandedMatrix(3, 1, 1, np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, 0.0]])))
def test_spectral_norm_of_a_real_band_is_the_dense_two_norm(A):
    """Every real band, symmetric or not, takes the A^T A route, scaled by a
    power of two, so it holds at every finite scale; a zero band gives 0."""
    with mock.patch.object(linalg, "_sym_eigvals") as sym, \
            mock.patch.object(linalg, "singular_values") as svd:
        got = spectral_norm(A)
    assert sym.call_count == svd.call_count == 0
    ref = np.linalg.norm(A.toarray(), 2)
    if ref == 0.0:
        assert got == 0.0 and not np.any(A.bands)
    else:
        assert abs(got - ref) <= 1e-14 * ref, (got, ref)


def _upper_band_by_diagonals(A, kd=0):
    """The upper band storage as it was built before: the diagonals k >= 0
    rebuilt through ``from_diagonals`` (so the padding is zero), with K's
    rows above its band added by hand for a pencil."""
    ab = np.asfortranarray(BandedMatrix.from_diagonals(
        A.n, {k: v for k, v in A._diagonals() if k >= 0}).bands)
    if kd <= A.upper_bw:
        return ab
    padded = np.zeros((kd + 1, A.n), order="F")
    padded[kd - A.upper_bw:] = ab
    return padded


def _with_junk_padding(A, junk):
    """``A`` with every band slot outside the matrix set to ``junk``."""
    bands = np.full(A.bands.shape, junk)
    for k, v in A._diagonals():
        bands[linalg._slot(A.upper_bw, A.n, k)] = v
    return BandedMatrix(A.n, A.lower_bw, A.upper_bw, bands)


@settings(max_examples=200, deadline=None)
@given(band_pencils(), st.floats(allow_nan=False, allow_infinity=False),
       st.sampled_from(["K", "pencil", "lower", "upper"]))
def test_band_storage_is_read_without_its_padding(pencil, junk, operand):
    """``_upper_band`` copies the rows of ``A.bands``, junk padding and all:
    the eigenvalues of a symmetric band (also with an all-zero outer
    diagonal on one side) and of a Pencil have the bytes of the route that
    rebuilt the band from its diagonals, and come ascending without a sort."""
    K, M, _ = pencil
    if operand in ("lower", "upper") and K.n > K.upper_bw + 1:
        wider = -(K.upper_bw + 1) if operand == "lower" else K.upper_bw + 1
        K = BandedMatrix.from_diagonals(K.n, dict(K._diagonals())
                                        | {wider: np.zeros(K.n - K.upper_bw - 1)})
        assert K.lower_bw != K.upper_bw
    A = Pencil(_with_junk_padding(K, junk), _with_junk_padding(M, -junk))
    if operand != "pencil":
        A = A.K
    got = real_eigvals(A)
    with mock.patch.object(linalg, "_upper_band", _upper_band_by_diagonals):
        ref = real_eigvals(A)
    assert got.solver == ref.solver
    assert got.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(got.values, np.sort(got.values))


def test_spectra_keep_the_signed_zeros_lapack_returns():
    """A spectrum is not re-sorted after LAPACK: numpy 2.4's np.sort turned
    the one -0.0 that dsbevd returns for this diagonal into five, in the
    solve and again in the case's normalization."""
    D = BandedMatrix.diagonal(np.append(np.zeros(8), -0.0))
    case = dataclasses.replace(get_case("fd_t1", "one"), build=lambda n: D)
    for values in (real_eigvals(D).values, case.spectrum(9).values):
        assert np.signbit(values).sum() == 1 and not np.any(values)


def test_nonsymmetric_spectra_keep_their_signed_zeros(monkeypatch):
    """The dense nonsymmetric path sorts stably: numpy 2.4's default np.sort
    turned one -0.0 among eight +0.0 into five."""
    zeros = np.append(np.zeros(8), -0.0).astype(complex)
    monkeypatch.setattr(linalg, "nonsym_eigvals", lambda A: zeros)
    A = np.triu(np.ones((9, 9)))
    ev = real_eigvals(A)
    assert ev.solver == "nonsym_dense"
    assert np.signbit(ev.values).sum() == 1 and not np.any(ev.values)


def _fresh_python(code):
    """stdout of ``code`` run in a new interpreter that imports this gltkit."""
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_SPECTRA = """
from gltkit import get_case
print(repr([(c, get_case(c, "xexp").spectrum(30).values.tobytes().hex())
            for c in ("fd_t1", "fd_t6", "Ln", "schur")]))
"""


def _spectra_here():
    """What ``_SPECTRA`` prints, computed in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_SPECTRA, {})
    return out.getvalue().strip()


def test_cli_runs_import_no_scipy_linalg_module_but_the_capsules():
    out = _fresh_python("""
import contextlib, io, sys
import gltkit.cli, gltkit.linalg
argvs = (["certify", "--family", "all"],
         ["compare", "--case", "schur", "--coeff", "one", "--n", "20,40", "--r", "100",
          "--format", "json"],
         ["spectrum", "--case", "fd_t6", "--n", "30"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [gltkit.cli.main(argv) for argv in argvs]
loaded = sorted(m for m in sys.modules if m == "scipy.linalg" or m.startswith("scipy.linalg."))
module = gltkit.linalg._cython_lapack
import scipy.linalg
from scipy.linalg import cython_lapack
print(codes, loaded, gltkit.linalg.LAPACK_SOURCE == module.__file__,
      scipy.linalg.cython_lapack is cython_lapack is module
      is sys.modules["scipy.linalg.cython_lapack"])
""")
    assert out.split() == ["[0,", "0,", "0]", "[]", "True", "True"]
    assert os.path.isfile(linalg.LAPACK_SOURCE)
    assert linalg.LAPACK_SOURCE.endswith(tuple(importlib.machinery.EXTENSION_SUFFIXES))


def test_lapack_capsules_loaded_by_scipy_first_are_reused():
    out = _fresh_python("""
import sys
import scipy.linalg
import gltkit.linalg
print(gltkit.linalg._cython_lapack is sys.modules["scipy.linalg.cython_lapack"],
      gltkit.linalg.LAPACK_SOURCE == scipy.linalg.cython_lapack.__file__)
""" + _SPECTRA)
    flags, spectra = out.split("\n", 1)
    assert flags == "True True"
    assert spectra.strip() == _spectra_here()


def test_lapack_falls_back_to_the_scipy_linalg_import_without_the_extension_file():
    out = _fresh_python("""
import importlib.machinery, sys
importlib.machinery.EXTENSION_SUFFIXES = []  # the extension file is not found
import gltkit.linalg
print(gltkit.linalg.LAPACK_SOURCE, "scipy.linalg" in sys.modules)
""" + _SPECTRA)
    flags, spectra = out.split("\n", 1)
    assert flags == "scipy.linalg import True"
    assert spectra.strip() == _spectra_here()


# ---------------------------------------------------------------------------
# a symmetric band plus a rank-one term, T + s u u^T, as an n x n band pencil;
# the FE Schur complement rho M + H^T K^{-1} H is built as one
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table_coefficient(tmp_path_factory):
    path = tmp_path_factory.mktemp("schur") / "a.csv"
    path.write_text("x,value\n0,1\n0.3,2.5\n0.7,0.4\n1,1.5\n")
    return f"csv:{path}"


def _schur_dense(a, rho, n):
    """The dense Schur complement rho M + H^T (K^{-1} H), with K = K_n(a)."""
    K, H = as_dense(fe_stiffness(a, n)), as_dense(fe_gradient_coupling(n))
    return rho * as_dense(fe_mass(coefficient_preset("one"), n)) + H.T @ np.linalg.solve(K, H)


def _operand_scale(S, ref):
    """max |lambda|, or the largest entry of T or s u u^T where they cancel
    to a smaller spectrum (n = 1 with rho = 0 gives lambda = 0 exactly, and
    the pencil then returns about eps max |T|)."""
    return max(np.max(np.abs(ref)), linalg._max_abs(S.T), abs(S.s) * np.max(S.u ** 2))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 400])
@pytest.mark.parametrize("rho", [-1, 0, 1])
@pytest.mark.parametrize("coeff", ["one", "xexp", "table"])
def test_schur_eigvals_match_dense_eigvalsh(coeff, rho, n, table_coefficient):
    coeff = table_coefficient if coeff == "table" else coeff
    ref = np.linalg.eigvalsh(_schur_dense(coefficient_preset(coeff), rho, n))
    got = real_eigvals(get_case(f"schur:rho={rho}", coeff).build(n))
    assert got.solver == "pencil_rank_one"
    # at n = 1 with rho = 0 the coupling H is zero: both spectra are exactly 0
    assert np.max(np.abs(got.values - ref)) <= 1e-11 * np.max(np.abs(ref))
    if (coeff, rho) == ("one", -1):
        assert ref[-1] < 0  # an all-negative spectrum


@pytest.mark.parametrize("coeff, rho", [("one", -1), ("xexp", 1)])
def test_schur_spectrum_at_n_1600_matches_dense_eigvalsh(coeff, rho):
    # the pencil's error grows with n; at n = 1600 it was 4.3e-12 max |lambda|
    # for (one, -1) and 4e-14 for (xexp, 1)
    n = 1600
    ref = np.linalg.eigvalsh(_schur_dense(coefficient_preset(coeff), rho, n))
    got = get_case(f"schur:rho={rho}", coeff).build(n)
    assert np.max(np.abs(real_eigvals(got).values - ref)) <= 5e-11 * np.max(np.abs(ref))


def test_schur_spectrum_at_n_3200_matches_dense_eigvalsh():
    # (one, -1) is the worst of the presets at n = 1600; at n = 3200 the error
    # was 3.2e-12 max |lambda|.  The oracle is the dense T + s u u^T, which
    # the tests above tie to rho M + H^T K^{-1} H at smaller n.
    S = get_case("schur:rho=-1", "one").build(3200)
    got = real_eigvals(S)
    ref = np.linalg.eigvalsh(as_dense(S))
    assert got.solver == "pencil_rank_one"
    assert np.max(np.abs(got.values - ref)) <= 5e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("rho", [-1, 0, 1])
def test_schur_pencil_runs_the_way_u_grows_least(rho):
    # a decreasing a makes u = v[:-1] + v[1:] (v = h^2 / I_e) increase, which
    # costs the pencil digits (4.9e-11 max |lambda| at n = 400 read forwards);
    # read backwards it is 2e-14
    a = Coefficient("xexp mirrored", lambda x: (1 - x) * np.exp(x - 1))
    n = 400
    ref = np.linalg.eigvalsh(_schur_dense(a, rho, n))
    got = real_eigvals(get_case(f"schur:rho={rho}", a).build(n))
    assert got.solver == "pencil_rank_one"
    assert np.max(np.abs(got.values - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [50, 200])
def test_schur_of_a_bump_coefficient_is_solved_densely(n):
    # a = 10^1.5 on the middle fifth and 10^-1.5 elsewhere: u dips between two
    # large stretches, so it grows by about 1000 read either way.  The pencil
    # gave 4e-9 max |lambda| at n = 50 and failed its trace check at n = 200.
    a = Coefficient.from_table(np.linspace(0, 1, 5), 10.0 ** np.array([-1.5, -1.5, 1.5, -1.5, -1.5]))
    S = get_case("schur", a).build(n)
    assert min(linalg._growth(S.u), linalg._growth(S.u[::-1])) > linalg._RANK_ONE_GROWTH_LIMIT
    got = real_eigvals(S)
    ref = np.linalg.eigvalsh(_schur_dense(a, 1.0, n))
    assert got.solver == "sym_dense"
    assert np.max(np.abs(got.values - ref)) <= 1e-10 * _operand_scale(S, ref)


@pytest.mark.parametrize("coeff", ["one", "xexp", "table"])
@pytest.mark.parametrize("rho", [-1.0, 0.0, 0.5, 1.0])
def test_schur_complement_densifies_to_the_dense_build_bit_for_bit(coeff, rho,
                                                                   table_coefficient):
    """The schur operand T + s u u^T densifies to the dense rho M + H^T
    K^{-1} H to 1e-13, relative to the larger of the two's entries (at n = 1
    with rho = 0 the latter is 0).  The name is older than the identity;
    the two are no longer equal bit for bit."""
    coeff = table_coefficient if coeff == "table" else coeff
    a = coefficient_preset(coeff)
    for n in (1, 2, 7, 60):
        S = get_case(f"schur:rho={rho}", coeff).build(n)
        assert isinstance(S, RankOneUpdate)
        ref = _schur_dense(a, rho, n)
        scale = max(np.max(np.abs(ref)), linalg._max_abs(S.T))
        assert np.max(np.abs(as_dense(S) - ref)) <= 1e-13 * scale


def test_rank_one_trace_identity_is_checked(monkeypatch):
    n = 60
    S = get_case("schur", "xexp").build(n)
    original = linalg._pencil_eigvals
    solves = []

    def spy(K, M):
        solves.append((K, M))
        return original(K, M)

    monkeypatch.setattr(linalg, "_pencil_eigvals", spy)
    lam = real_eigvals(S).values
    # one n x n solve: K' is pentadiagonal (ka = 2), given by its upper
    # diagonals alone, and L L^T tridiagonal (kb = 1)
    [(K, M)] = solves
    assert (K.n, K.lower_bw, K.upper_bw, M.upper_bw) == (n, 0, 2, 1)
    trace = np.sum(S.T.diagonal_values(0)) + S.s * (S.u @ S.u)
    assert abs(np.sum(lam) - trace) <= 1e-13 * n * np.max(np.abs(lam))

    def perturbed(K, M):  # the largest eigenvalue off by 1e-6 of itself
        values = original(K, M).values.copy()
        values[-1] += 1e-6 * np.max(np.abs(values))
        return SpectralSet(values, "eigenvalues", "pencil_band")

    monkeypatch.setattr(linalg, "_pencil_eigvals", perturbed)
    with pytest.raises(EigenConvergenceError, match="trace check"):
        real_eigvals(S)


def test_schur_spectrum_allocates_no_n_by_n_array():
    case, n = get_case("schur", "one"), 400
    case.spectrum(8)  # binds the LAPACK routine outside the measurement
    tracemalloc.start()
    try:
        ev = case.spectrum(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ev.solver == "pencil_rank_one"
    assert peak < 8 * n * n / 4, peak


def test_schur_complement_checks_its_operands():
    # the operand of the Schur complement: a RankOneUpdate T + s u u^T
    n = 6
    T, u = toeplitz(LAPLACE_SYMBOL, n), np.linspace(0.5, 2.0, n)
    assert np.array_equal(as_dense(RankOneUpdate(T, u, -0.5)), T.toarray() - 0.5 * np.outer(u, u))
    for bad in (np.where(np.arange(n) == 2, 0.0, u), np.where(np.arange(n) == 2, np.inf, u),
                np.where(np.arange(n) == 2, np.nan, u), u[:-1]):
        with pytest.raises(ValueError, match="finite nonzero"):
            RankOneUpdate(T, bad, 1.0)
    with pytest.raises(ValueError, match="s must be finite"):
        RankOneUpdate(T, u, np.nan)
    with pytest.raises(SymmetryError):
        RankOneUpdate(BandedMatrix.from_diagonals(n, {0: np.ones(n), 1: np.ones(n - 1)}), u, 1.0)
    with pytest.raises(TypeError):
        RankOneUpdate(T.toarray(), u, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40),
       st.lists(st.one_of(st.sampled_from([-1.5, 1.5]), st.floats(-1.5, 1.5)),
                min_size=2, max_size=6),
       st.floats(-2.0, 2.0))
@example(40, [-1.5, -1.5, 1.5, -1.5, -1.5], 1.0)  # a bump the pencil cannot solve
def test_schur_eigvals_of_random_bands_match_dense(n, values, rho):
    """Random piecewise-linear coefficients a > 0 through 2 to 6 knots
    spanning up to three decades, and rho of either sign: the spectrum of
    the schur build against dense eigvalsh of rho M + H^T K^{-1} H, within
    1e-10 of the operand's scale.  About half of the knot values sit at an
    end of the range, so a quarter of the draws have a bump in a and go to
    the dense solve.  Over 12000 draws, a third of them with every knot at
    an end of the range, the worst error was 5.8e-12 of that scale."""
    a = Coefficient.from_table(np.linspace(0, 1, len(values)), 10.0 ** np.array(values))
    ref = np.linalg.eigvalsh(_schur_dense(a, rho, n))
    S = get_case(f"schur:rho={rho!r}", a).build(n)
    assert np.max(np.abs(real_eigvals(S).values - ref)) <= 1e-10 * _operand_scale(S, ref)


@st.composite
def rank_one_operands(draw):
    """A symmetric band T of size 1..40 and bandwidth 0..3, u with entries
    of either sign and magnitude in [0.5, 2], and s of either sign."""
    n = draw(st.integers(1, 40))
    entry = st.floats(-5.0, 5.0, allow_subnormal=False)
    diags = {}
    for k in range(draw(st.integers(0, min(3, n - 1))) + 1):
        diags[k] = diags[-k] = np.array(draw(st.lists(entry, min_size=n - k, max_size=n - k)))
    magnitude = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    s = draw(st.floats(0.01, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return BandedMatrix.from_diagonals(n, diags), sign * magnitude, s


@settings(max_examples=300, deadline=None)
@given(rank_one_operands())
def test_rank_one_update_of_random_bands_matches_dense(operands):
    T, u, s = operands
    ref = np.linalg.eigvalsh(T.toarray() + s * np.outer(u, u))
    got = real_eigvals(RankOneUpdate(T, u, s))
    assert got.solver == "pencil_rank_one"
    assert np.max(np.abs(got.values - ref)) <= 1e-11 * _operand_scale(RankOneUpdate(T, u, s), ref)


@settings(max_examples=300, deadline=None)
@given(band_operands())
def test_symmetry_defect_of_a_band_is_the_dense_defect(operands):
    A = operands[0]  # unequal bandwidths, junk in the padding, n = 1 included
    Ad = A.toarray()
    assert linalg._symmetry_defect(A) == float(np.abs(Ad - Ad.T).max())
    assert linalg._symmetry_defect(A + A.T) == 0.0


# ---------------------------------------------------------------------------
# SPD banded solves
# ---------------------------------------------------------------------------

def test_solve_scaled_identity():
    A = BandedMatrix.diagonal(2.0 * np.ones(3))
    X = solve_spd_banded(A, np.eye(3))
    assert np.allclose(X, 0.5 * np.eye(3))


def test_solve_laplacian_first_column_matches_closed_form_inverse():
    n = 4
    A = toeplitz(LAPLACE_SYMBOL, n)
    x = solve_spd_banded(A, np.eye(n)[:, 0])
    i = np.arange(1, n + 1)
    ref = np.minimum(i, 1) * (n + 1 - np.maximum(i, 1)) / (n + 1)
    assert np.allclose(x, ref, atol=1e-12)
    assert np.allclose(A.toarray() @ x, np.eye(n)[:, 0], atol=1e-12)


def test_solve_rejects_singular_matrix():
    A = BandedMatrix.diagonal(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(SpdError):
        solve_spd_banded(A, np.ones(3))


def test_solve_roundtrip_large_random_spd():
    rng = np.random.default_rng(29)
    n = 2000
    d = 4.0 + rng.random(n)
    e = rng.random(n - 1) - 0.5
    A = BandedMatrix.tridiagonal(d, e, e)
    B = rng.standard_normal((n, 3))
    X = solve_spd_banded(A, B)
    res = np.max(np.abs(A.toarray() @ X - B))
    assert res <= 1e-9 * np.max(np.abs(B)) * np.max(d)


# ---------------------------------------------------------------------------
# Hadamard products
# ---------------------------------------------------------------------------

def test_hadamard_arrow_with_laplacian_matches_hand_pattern():
    x, grid = coefficient_preset("x"), uniform_grid(3)
    got = as_dense(_hadamard_with_toeplitz(x(grid), LAPLACE_SYMBOL))
    ref = np.array([
        [2 / 3, -1 / 3, 0.0],
        [-1 / 3, 4 / 3, -2 / 3],
        [0.0, -2 / 3, 2.0],
    ])
    assert np.allclose(got, ref, atol=1e-15)
    assert np.array_equal(got, arrow_sampling(x, grid) * as_dense(toeplitz(LAPLACE_SYMBOL, 3)))


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------

def test_symmetric_singular_values_are_abs_eigenvalues():
    rng = np.random.default_rng(37)
    A = rng.standard_normal((25, 25))
    A = (A + A.T) / 2
    sv = singular_values(A).values
    ev = np.sort(np.abs(sym_eigvals(A).values))
    assert np.max(np.abs(sv - ev)) < 1e-8


def test_trace_preservation_both_solvers():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((30, 30))
    S = (A + A.T) / 2
    assert np.sum(sym_eigvals(S).values) == pytest.approx(np.trace(S), rel=1e-8)
    assert np.sum(nonsym_eigvals(A)).real == pytest.approx(np.trace(A), rel=1e-8)
    assert np.sum(nonsym_eigvals(A)).imag == pytest.approx(0.0, abs=1e-8)
