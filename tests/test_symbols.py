"""Tests for trig polynomials, coefficients, symbol trees, rearrangement,
and the two moduli of continuity."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gltkit import (
    ComplexSymbolError,
    Coefficient,
    CoeffFactor,
    FOURTH_DERIVATIVE_SYMBOL,
    FOURTH_ORDER_LAPLACE_SYMBOL,
    LAPLACE_SYMBOL,
    MASS_SYMBOL,
    Rearrangement,
    SIN_SYMBOL,
    SymbolExpr,
    SymbolSingularityError,
    TrigFactor,
    TrigPoly,
    add,
    case_names,
    coefficient_preset,
    conjugate,
    divide,
    get_case,
    modulus_of_continuity,
    modulus_of_integral_continuity,
    modulus_upper_bound,
    monotone_rearrangement,
    multiply,
    symbol_eval,
)
from gltkit import symbols

XEXP = coefficient_preset("xexp")
RECT = symbols.SYMBOL_RECT


def _every_node(N):
    """The nodes i/N, i = 0..N, at which R reads every one of N sorted
    samples."""
    return np.arange(N + 1) / N


# ---------------------------------------------------------------------------
# trig polynomials
# ---------------------------------------------------------------------------

def test_laplace_symbol_at_pi():
    assert LAPLACE_SYMBOL(math.pi) == pytest.approx(4.0)


def test_fourth_order_symbol_vanishes_at_zero():
    assert FOURTH_ORDER_LAPLACE_SYMBOL(0.0) == pytest.approx(0.0, abs=1e-15)
    # stencil coefficients (1,-16,30,-16,1)/12 written out
    assert np.allclose(FOURTH_ORDER_LAPLACE_SYMBOL.coeffs.real * 12,
                       [1.0, -16.0, 30.0, -16.0, 1.0])


def test_fourth_derivative_symbol_at_pi():
    assert FOURTH_DERIVATIVE_SYMBOL(math.pi) == pytest.approx(16.0)


def test_sine_symbol_is_real_valued_with_complex_coefficients():
    assert SIN_SYMBOL.real_valued
    th = np.linspace(-np.pi, np.pi, 11)
    assert np.allclose(SIN_SYMBOL(th), np.sin(th), atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=4))
def test_fourier_coefficients_bounded_by_sup_norm(cosines):
    f = TrigPoly.from_cosines(cosines)
    sup = f.sup_norm(20001)
    assert np.all(np.abs(f.coeffs) <= sup + 1e-9)


# ---------------------------------------------------------------------------
# symbol evaluation
# ---------------------------------------------------------------------------

def test_symbol_eval_diffusion_at_corner():
    kappa = multiply(XEXP, LAPLACE_SYMBOL)
    assert symbol_eval(kappa, 1.0, math.pi) == pytest.approx(4.0 / math.e, rel=1e-12)


def test_symbol_eval_schur_second_term():
    sigma_term = divide(multiply(SIN_SYMBOL, SIN_SYMBOL),
                        multiply(coefficient_preset("one"), LAPLACE_SYMBOL))
    assert symbol_eval(sigma_term, 0.3, math.pi / 2) == pytest.approx(0.5, rel=1e-12)


def test_symbol_eval_raises_at_quotient_singularity():
    q = divide(TrigFactor(SIN_SYMBOL), TrigFactor(LAPLACE_SYMBOL))
    with pytest.raises(SymbolSingularityError):
        symbol_eval(q, 0.5, 0.0)


def test_symbol_algebra_add_distributes():
    a, b = coefficient_preset("x"), coefficient_preset("1+x")
    f = LAPLACE_SYMBOL
    left = add(multiply(a, f), multiply(b, f))
    for x, th in [(0.1, 0.3), (0.9, 2.5), (0.5, 1.0)]:
        ref = (a(x) + b(x)) * f(th)
        assert symbol_eval(left, x, th) == pytest.approx(float(ref), rel=1e-12)


def test_symbol_algebra_multiply_point():
    kappa = multiply(coefficient_preset("x"), LAPLACE_SYMBOL)
    assert symbol_eval(kappa, 0.5, math.pi) == pytest.approx(2.0)


def test_json_roundtrip():
    kappa = add(
        TrigFactor(TrigPoly.from_cosines([2 / 3, 1 / 3])),
        divide(multiply(SIN_SYMBOL, SIN_SYMBOL),
               multiply(coefficient_preset("xexp"), LAPLACE_SYMBOL)),
    )
    back = SymbolExpr.from_json(kappa.to_json())
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, th = rng.uniform(0.05, 1.0), rng.uniform(0.1, math.pi)
        assert symbol_eval(back, x, th) == pytest.approx(symbol_eval(kappa, x, th), rel=1e-12)


def _coefficients(kappa):
    """The coefficients of the CoeffFactor leaves of ``kappa``, by name."""
    if isinstance(kappa, CoeffFactor):
        return {kappa.coefficient.name: kappa.coefficient}
    found = {}
    for child in getattr(kappa, "children", ()):
        found |= _coefficients(child)
    return found


@pytest.mark.parametrize("coeff", ["xexp", "one", "x"])
@pytest.mark.parametrize("name", case_names())
def test_json_roundtrip_of_every_registry_symbol(name, coeff):
    kappa = get_case(name, coeff).predicted_symbol
    back = SymbolExpr.from_json(kappa.to_json(), _coefficients(kappa))
    assert back.to_json() == kappa.to_json()
    assert str(back) == str(kappa)
    flags = ("is_real", "has_quotient", "reads_x")
    assert [getattr(back, f) for f in flags] == [getattr(kappa, f) for f in flags]


@pytest.mark.parametrize("obj,match", [
    ({"kind": "quot", "children": ["trig:[1.0]"]}, "quot node takes 2"),
    ({"kind": "conj", "children": ["trig:[1.0]", "trig:[2.0]"]}, "conj node takes 1"),
    ({"kind": "pow", "children": ["trig:[1.0]"]}, "unknown symbol node kind 'pow'"),
])
def test_json_malformed_node_rejected(obj, match):
    with pytest.raises(ValueError, match=match):
        SymbolExpr.from_json(json.dumps(obj))


def test_node_flags_follow_children(tmp_path):
    theta_only = divide(LAPLACE_SYMBOL, MASS_SYMBOL)
    assert theta_only.has_quotient and theta_only.is_real and not theta_only.reads_x
    mixed = add(multiply(XEXP, SIN_SYMBOL), conjugate(theta_only))
    assert mixed.has_quotient and mixed.is_real and mixed.reads_x
    assert not multiply(XEXP, TrigPoly([0.0, 0.0, 1.0])).is_real
    assert not add(XEXP, LAPLACE_SYMBOL).has_quotient
    # a coefficient whose exact modulus vanishes, omega_a(1) = 0, does not
    # read x; a table does, even with equal values, for it has no exact
    # modulus at all
    for name in ("one", "zero"):
        factor = CoeffFactor(coefficient_preset(name))
        assert not factor.reads_x and factor.is_real and not factor.has_quotient
        assert not multiply(factor, LAPLACE_SYMBOL).reads_x
    table = tmp_path / "flat.csv"
    table.write_text("x,value\n0,2\n1,2\n")
    for a in (coefficient_preset("x"), XEXP, Coefficient.from_table([0.0, 1.0], [2.0, 2.0]),
              coefficient_preset(f"csv:{table}")):
        assert CoeffFactor(a).reads_x
        assert multiply(coefficient_preset("one"), a, LAPLACE_SYMBOL).reads_x


#: the registry cases whose coefficients are all constant with the ``one``
#: preset as their main one; fd_t7 reads x through its grid map
CONSTANT_COEFFICIENT_CASES = ("Ln", "fd_t1", "fd_t2", "fd_t3", "fd_t4", "fd_t5", "fd_t6",
                              "fe_mass", "fe_t1", "schur")


def test_registry_symbols_with_constant_coefficients_do_not_read_x():
    assert set(CONSTANT_COEFFICIENT_CASES) | {"fd_t7"} == set(case_names())
    for name in CONSTANT_COEFFICIENT_CASES:
        assert not get_case(name, "one").predicted_symbol.reads_x, name
        assert get_case(name, "xexp").predicted_symbol.reads_x, name
    assert get_case("fd_t7", "one").predicted_symbol.reads_x


def test_json_unknown_coefficient_rejected():
    with pytest.raises(KeyError):
        SymbolExpr.from_json('"coeff:nonexistent"')


# ---------------------------------------------------------------------------
# monotone rearrangement
# ---------------------------------------------------------------------------

def test_rearrangement_of_theta_only_symbol_tracks_sorted_profile():
    t = np.linspace(0.0, 1.0, 1001)
    R = monotone_rearrangement(TrigFactor(LAPLACE_SYMBOL), 400, t)
    assert np.max(np.abs(R(t) - (2 - 2 * np.cos(np.pi * t)))) < 0.02


def test_rearrangement_error_halves_when_r_doubles():
    t = np.linspace(0.0, 1.0, 2001)
    ref = 2 - 2 * np.cos(np.pi * t)
    errs = {}
    for r in (100, 200):
        R = monotone_rearrangement(TrigFactor(LAPLACE_SYMBOL), r, t)
        errs[r] = np.max(np.abs(R(t) - ref))
    assert errs[200] <= 0.6 * errs[100]


def test_rearrangement_of_identity_coefficient():
    t = np.linspace(0.0, 1.0, 777)
    R = monotone_rearrangement(CoeffFactor(coefficient_preset("x")), 500, t)
    assert np.max(np.abs(R(t) - t)) <= 1.0 / 500 + 1e-12


def test_rearrangement_lattice_needs_an_integral_r():
    # r = 2.5 would put the lattice at 0.4, 0.8, 1.2, past the rectangle
    kappa = CoeffFactor(coefficient_preset("x"))
    for bad in (2.5, 2.0, 0, -3, "4"):
        with pytest.raises(ValueError, match="integer >= 1"):
            monotone_rearrangement(kappa, bad, [1.0])
    R = monotone_rearrangement(kappa, np.int64(2), _every_node(4))
    assert R.values.tolist() == [0.5, 0.5, 1.0, 1.0] and R.r == 2


@pytest.mark.parametrize("r", [1, 7, 5000])
def test_lattice_nodes_are_i_over_r_of_the_symbol_rectangle(r):
    """The table-2 column rests on this node convention: x = i/r and
    theta = i pi/r, i = 1..r, byte for byte."""
    x, theta = symbols._lattice(r)
    assert x.tobytes() == (np.arange(1, r + 1) / r).tobytes()
    assert theta.tobytes() == (np.arange(1, r + 1) * math.pi / r).tobytes()


def test_rearrangement_endpoint_reaches_essential_sup():
    R = monotone_rearrangement(multiply(XEXP, LAPLACE_SYMBOL), 5000, ts=[1.0])
    assert R(1.0) == pytest.approx(4.0 / math.e, abs=1e-3)
    assert R.ess_inf == pytest.approx(0.0, abs=1e-3)


def test_rearrangement_eval_endpoints_and_midpoint():
    R = monotone_rearrangement(TrigFactor(LAPLACE_SYMBOL), 13, _every_node(13 * 13))
    assert R(0.0) == R.values[0]
    assert R(1.0) == R.values[-1]
    N = R.node_count - 1
    assert N == R.N == R.values.size
    mid = (0.5 / N) + (1.0 / N)  # midpoint of the second node interval
    assert R(mid) == pytest.approx((R.values[0] + R.values[1]) / 2)


def test_rearrangement_eval_rejects_out_of_range():
    R = monotone_rearrangement(TrigFactor(LAPLACE_SYMBOL), 10, [0.5])
    eps = np.finfo(float).eps
    for bad in (1.5, np.nan, -eps, 1.0 + eps, [0.5, np.nan], [0.0, -eps]):
        with pytest.raises(ValueError):
            R(bad)


def test_rearrangement_needs_one_value_per_rank_from_0_to_N_minus_1():
    for values, N, ranks in (([0.0, 1.0], 3, [0, 1]),   # no sample of rank N - 1
                             ([0.0, 1.0], 3, [1, 2]),   # none of rank 0
                             ([0.0, 1.0, 1.0], 3, [0, 2, 2]),
                             ([0.0, 1.0], 3, [0, 1, 2])):
        with pytest.raises(ValueError, match="need"):
            Rearrangement(values=np.array(values), N=N, r=1, ranks=ranks)


@st.composite
def samples_and_points(draw):
    """Nondecreasing samples with repeats, and t in [0, 1] including 0, 1
    and exact nodes i/N (N samples give the N + 1 nodes 0, 1/N, ..., 1)."""
    pool = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([-1.0, 0.0, 2.5]))
    samples = np.sort(np.array(draw(st.lists(pool, min_size=1, max_size=60))))
    N = samples.size
    node = st.integers(0, N).map(lambda i: i / N)
    t = draw(st.lists(st.one_of(st.floats(0.0, 1.0), node, st.sampled_from([0.0, 1.0])),
                      min_size=1, max_size=20))
    return samples, np.array(t)


@settings(max_examples=200, deadline=None)
@given(samples_and_points())
def test_rearrangement_eval_is_np_interp_bit_for_bit(data):
    samples, t = data
    N = samples.size
    # node 0 repeats the smallest sample
    expected = np.interp(t * N, np.arange(N + 1), np.concatenate(([samples[0]], samples)))
    # every sample, and only those of the ends of the intervals t falls in
    k = np.floor(t * N).astype(int)
    ends = np.unique(np.concatenate(([0, N - 1], np.maximum(k - 1, 0), np.minimum(k, N - 1))))
    for ranks in (np.arange(N), ends):
        R = Rearrangement(values=samples[ranks], N=N, r=1, ranks=ranks)
        assert R(t).tobytes() == expected.tobytes()
        for ti, ei in zip(t, expected):
            assert np.float64(R(ti)).tobytes() == ei.tobytes()


def test_rearrangement_of_masked_symbol_matches_sort_and_concatenate():
    """Read at every node, the rearrangement of a symbol with excluded
    lattice points keeps np.sort of the kept values, bit for bit; the N + 1
    nodes are implicit."""
    r = 40
    dip = Coefficient.from_table([0.0, 0.5, 1.0], [1.0, 0.0, 2.0], name="dip")
    kappa = divide(TrigFactor(LAPLACE_SYMBOL), CoeffFactor(dip))
    x = np.arange(1, r + 1) * 1.0 / r  # the lattice of monotone_rearrangement
    theta = np.arange(1, r + 1) * math.pi / r
    vals, invalid = kappa.eval_masked(x[:, None], theta[None, :])
    flat = np.ravel(vals)[~np.ravel(invalid)]
    expected = np.sort(flat)
    R = monotone_rearrangement(kappa, r, _every_node(expected.size))
    assert R.excluded == r  # the whole lattice row at x = 1/2
    assert R.node_count == r * r - r + 1
    assert R.values.tobytes() == expected.tobytes()


def _whole_grid_samples(kappa, axes, absolute):
    """The reference for grid_samples: one evaluation on the whole grid,
    then the excluded points dropped by one boolean mask."""
    shape = tuple(a.size for a in axes)
    vals, invalid = kappa.eval_masked(axes[0][:, None], axes[1][None, :])
    vals = np.broadcast_to(np.abs(vals) if absolute else np.asarray(vals), shape)
    flat = np.array(vals, dtype=float).reshape(-1)
    keep = np.ones(flat.size, bool) if invalid is None else \
        ~np.broadcast_to(invalid, shape).reshape(-1)
    return flat[keep], flat.size - int(np.count_nonzero(keep))


def _assert_grid_samples_match_whole_grid(kappa, axes, absolute):
    expected, excluded = _whole_grid_samples(kappa, axes, absolute)
    if expected.size == 0:
        with pytest.raises(SymbolSingularityError):
            symbols.grid_samples(kappa, axes, absolute)
        return
    samples, got_excluded = symbols.grid_samples(kappa, axes, absolute)
    assert samples.tobytes() == expected.tobytes()
    assert got_excluded == excluded


@pytest.mark.parametrize("name", case_names())
def test_blocked_grid_samples_match_the_whole_grid(tmp_path, name):
    """Every registry symbol, with a coefficient that vanishes at x = 1/2
    among them (schur then excludes a lattice row), at sizes of one block
    (r = 1, 2) and of several (r = 17, 600): the blocked samples and the
    excluded count are the whole-grid ones, byte for byte."""
    table = tmp_path / "zero.csv"
    table.write_text("x,value\n0,1\n0.5,0\n1,2\n")
    for coeff in ("xexp", "one", f"csv:{table}"):
        kappa = get_case(name, coeff).predicted_symbol
        for r in (1, 2, 17, 600):
            for absolute in (False, True):
                _assert_grid_samples_match_whole_grid(kappa, symbols._lattice(r), absolute)


_DIP = Coefficient.from_table([0.0, 0.5, 1.0], [1.0, 0.0, 2.0], name="dip")
_HALF = Coefficient.from_table([0.0, 0.5, 1.0], [1.0, 0.0, 0.0], name="half")  # 0 for x >= 1/2
_E_ITHETA = TrigPoly([0.0, 0.0, 1.0])


@pytest.mark.parametrize("kappa,rect,absolute", [
    # a theta-only quotient excludes the column theta = pi once per grid, an
    # x-only one the row x = 1/2 in its block
    (divide(multiply(XEXP, LAPLACE_SYMBOL), TrigFactor(SIN_SYMBOL)), RECT, False),
    (divide(TrigFactor(LAPLACE_SYMBOL), CoeffFactor(_DIP)), RECT, True),
    (add(divide(TrigFactor(LAPLACE_SYMBOL), TrigFactor(SIN_SYMBOL)),
         multiply(XEXP, LAPLACE_SYMBOL), TrigFactor(SIN_SYMBOL)), RECT, False),
    (TrigFactor(LAPLACE_SYMBOL), RECT, False),                   # theta-only root
    (CoeffFactor(coefficient_preset("x")), RECT, True),           # x-only root
    (multiply(XEXP, _E_ITHETA), RECT, True),                      # complex, as moduli
    (conjugate(multiply(XEXP, SIN_SYMBOL)), RECT, False),
    # half the x rows excluded, whole blocks of them at r = 600
    (divide(add(XEXP, TrigFactor(LAPLACE_SYMBOL)), CoeffFactor(_HALF)),
     RECT, False),
    # complex, the row x = 1/2 excluded, as moduli
    (divide(multiply(XEXP, _E_ITHETA), CoeffFactor(_DIP)), RECT, True),
    (CoeffFactor(XEXP), RECT, False),                             # x-only root, real
])
@pytest.mark.parametrize("r", [1, 2, 17, 600])
def test_blocked_grid_samples_match_the_whole_grid_on_every_tree_shape(kappa, rect, absolute, r):
    # every row's rect is SYMBOL_RECT, the one rectangle _lattice samples; the
    # column stays so that the test IDs do not change
    assert rect == symbols.SYMBOL_RECT
    _assert_grid_samples_match_whole_grid(kappa, symbols._lattice(r), absolute)


def test_grid_samples_refuse_complex_values_unless_asked_for_moduli():
    axes = symbols._lattice(17)
    for kappa in (multiply(XEXP, _E_ITHETA),
                  divide(TrigFactor(_E_ITHETA), CoeffFactor(_DIP))):
        with pytest.raises(ComplexSymbolError):
            symbols.grid_samples(kappa, axes)


@pytest.mark.parametrize("name", case_names())
def test_rearrangement_needs_no_second_full_size_array(name):
    """grid_samples, which fills the Weyl quadrature samples, evaluates the
    grid in blocks straight into the buffer it returns, so the traced peak
    stays within 1.1 full-size float arrays for every registry symbol,
    quotients and sums included."""
    kappa = get_case(name, "xexp").predicted_symbol
    r = 2000
    tracemalloc.start()
    try:
        samples, excluded = symbols.grid_samples(kappa, symbols._lattice(r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.size + excluded == r * r
    assert peak <= 1.1 * 8 * r * r


@pytest.mark.parametrize("kappa,rect,r", [
    (CoeffFactor(coefficient_preset("x")), RECT, 1),    # x-only, returns its input
    (CoeffFactor(coefficient_preset("x")), RECT, 7),
    (TrigFactor(LAPLACE_SYMBOL), RECT, 7),               # theta-only
    (divide(CoeffFactor(coefficient_preset("x")), CoeffFactor(coefficient_preset("one"))),
     RECT, 7),                                           # x-only quotient
    (divide(TrigFactor(LAPLACE_SYMBOL), TrigFactor(MASS_SYMBOL)),
     RECT, 7),                                           # theta-only quotient
])
def test_rearrangement_never_sorts_the_lattice(monkeypatch, kappa, rect, r):
    """The rearrangement samples the r-by-r lattice of SYMBOL_RECT (every
    row's ``rect``, kept so that the test IDs do not change), which ends at
    its far corner, and neither returns nor overwrites its axes."""
    lattice, made = symbols._lattice, []

    def recording_lattice(r):
        axes = lattice(r)
        made.append([(a, a.copy()) for a in axes])
        return axes

    monkeypatch.setattr(symbols, "_lattice", recording_lattice)
    R = monotone_rearrangement(kappa, r, _every_node(r * r))
    assert np.all(np.diff(R.values) >= 0)
    assert R.node_count == r * r + 1
    assert rect == symbols.SYMBOL_RECT
    assert [axis[-1] for axis, _ in made[0]] == [hi for _, hi in symbols.SYMBOL_RECT]
    for axis, before in made[0]:
        assert not np.shares_memory(R.values, axis)
        assert axis.tobytes() == before.tobytes()


def test_rearrangement_requires_real_symbol():
    complex_poly = TrigPoly([0.0, 0.0, 1.0])  # e^{i theta}
    for kappa in (TrigFactor(complex_poly), multiply(coefficient_preset("one"), complex_poly),
                  multiply(XEXP, complex_poly)):
        with pytest.raises(ComplexSymbolError):
            monotone_rearrangement(kappa, 10, [0.5])


def test_rearrangement_with_singular_points_excludes_and_renormalizes():
    kappa = divide(multiply(coefficient_preset("one"), LAPLACE_SYMBOL),
                   CoeffFactor(coefficient_preset("x")))
    # (2-2cos)/x is finite on the sampling lattice (x >= 1/r), nothing excluded
    R = monotone_rearrangement(kappa, 50, [0.5])
    assert R.excluded == 0
    # a denominator that vanishes identically kills every lattice point, on
    # the lattice of a symbol that reads x and on the row of one that does not
    zero = Coefficient("null", lambda x: np.zeros_like(x), "continuous")
    for bad, reads_x in ((divide(TrigFactor(LAPLACE_SYMBOL), CoeffFactor(zero)),
                          True), (get_case("Ln:c=zero", "one").predicted_symbol, False)):
        assert bad.reads_x == reads_x
        with pytest.raises(SymbolSingularityError, match="every grid point"):
            monotone_rearrangement(bad, 10, [0.5])


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=3),
       st.integers(5, 40))
def test_rearrangement_samples_always_nondecreasing(cosines, r):
    kappa = multiply(coefficient_preset("1+x"), TrigPoly.from_cosines(cosines))
    R = monotone_rearrangement(kappa, r, _every_node(r * r))
    assert np.all(np.diff(R.values) >= 0)


_SCALES = st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])


@st.composite
def blocks_ranks_and_range(draw):
    """Values with ties, +-0.0 and negatives at scales from 1e-300 to
    1e300 (or one constant), cut into blocks of random sizes; ascending
    ranks from 0 to N - 1 (or all of them); and a bucket range that may
    miss some of the values or be a single point."""
    special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e300])
    scaled = st.builds(lambda u, s: u * s, st.floats(-1.0, 1.0), _SCALES)
    if draw(st.booleans()):
        values = draw(st.lists(st.one_of(scaled, special), min_size=1, max_size=80))
    else:
        values = [draw(st.one_of(scaled, special))] * draw(st.integers(1, 40))
    values = np.array(values, dtype=float)
    N = values.size
    cuts = sorted(draw(st.lists(st.integers(0, N), max_size=6)))
    blocks = np.split(values, cuts)
    ranks = np.arange(N)
    if draw(st.booleans()):
        ranks = np.unique([0, N - 1] + draw(st.lists(st.integers(0, N - 1), max_size=10)))
    lo, hi = sorted(draw(st.lists(st.one_of(st.sampled_from(values.tolist()), scaled),
                                  min_size=2, max_size=2)))
    return blocks, ranks, (lo, hi)


def test_bucket_count_follows_the_lattice():
    """int32 counts of a byte per 8 samples (the power of two at or above
    r^2 / 32), within 2^16 buckets and 2 MB of counts: 2^16 buckets up to
    r = 1448, 2^18 up to r = 2896, and the 2^19 cap from r = 2897 on;
    from 2^31 samples on, the 2 MB hold 2^18 intp counts."""
    count = {r: symbols._bucket_count(r * r) for r in (1, 300, 1000, 1448, 1449, 2048, 2049,
                                                       2896, 2897, 5000, 46340)}
    int32 = np.dtype(np.int32)
    assert count == {1: (1 << 16, int32), 300: (1 << 16, int32), 1000: (1 << 16, int32),
                     1448: (1 << 16, int32), 1449: (1 << 17, int32), 2048: (1 << 17, int32),
                     2049: (1 << 18, int32), 2896: (1 << 18, int32), 2897: (1 << 19, int32),
                     5000: (1 << 19, int32), 46340: (1 << 19, int32)}
    assert symbols._bucket_count(0) == (1 << 16, int32)
    intp = np.dtype(np.intp)
    assert symbols._bucket_count(2 ** 31 - 1) == (1 << 19, int32)
    assert symbols._bucket_count(2 ** 31) == symbols._bucket_count(10 ** 10) == (1 << 18, intp)


def _check_selection(data, samples):
    """The selection over ``samples`` expected values picks what np.sort
    puts at the ranks."""
    blocks, ranks, value_range = data
    values = np.concatenate(blocks)

    def passes():
        return (block.copy() for block in blocks)

    N, got_ranks, got = symbols._select_ranks(passes, value_range, lambda N: ranks, samples)
    assert N == values.size and got_ranks is ranks
    expected = np.sort(values)[ranks]
    # bit for bit, ranks 0 and N - 1 included; +0.0 and -0.0 compare equal,
    # and np.sort itself orders them as they come
    assert np.array_equal(got, expected)
    nonzero = expected != 0
    assert got[nonzero].tobytes() == expected[nonzero].tobytes()


@settings(max_examples=300, deadline=None)
@given(blocks_ranks_and_range())
def test_selection_picks_the_order_statistics_np_sort_puts_at_the_ranks(data):
    blocks = data[0]
    _check_selection(data, sum(b.size for b in blocks))  # at most 80 values: 2^16 buckets


@settings(max_examples=300, deadline=None)
@given(blocks_ranks_and_range())
def test_selection_at_the_bucket_cap_picks_the_same_order_statistics(data):
    _check_selection(data, 1 << 24)  # 2^19 int32 buckets


@settings(max_examples=300, deadline=None)
@given(blocks_ranks_and_range())
def test_selection_with_intp_counts_picks_the_same_order_statistics(data):
    _check_selection(data, 1 << 31)  # 2^18 intp buckets


# 2^16 and 2^19 int32 buckets, 2^18 intp buckets
_SAMPLES = [pytest.param(samples, id=f"samples={samples}") for samples in (0, 1 << 24, 1 << 31)]


def _blocks_of(values, size=7):
    return np.split(values, range(size, values.size, size))


@pytest.mark.parametrize("samples", _SAMPLES)
@pytest.mark.parametrize("values,value_range", [
    # ties: three values repeated, in shuffled order
    (np.random.default_rng(0).permutation(np.repeat([3.0, 1.0, 2.0], [50, 30, 20])), (1.0, 3.0)),
    # values beyond the range on both sides, the range ends among them
    (np.linspace(-10.0, 10.0, 101), (-1.0, 1.0)),
    # a range a bucket wide: everything below, in or above one bucket
    (np.linspace(0.0, 1.0, 64), (0.5, math.nextafter(0.5, 1.0))),
    # a single-point range
    (np.linspace(0.0, 1.0, 64), (0.5, 0.5)),
    # all values in the first of the buckets
    (1.0 + np.arange(64) * np.finfo(float).eps, (1.0, 2.0)),
], ids=["ties", "beyond", "one-bucket", "point", "first-bucket"])
def test_selection_matches_np_sort_on_ties_and_narrow_ranges(values, value_range, samples):
    samples = max(samples, values.size)
    for ranks in (np.arange(values.size), np.array([0, values.size // 3, values.size - 1])):
        _check_selection((_blocks_of(values), ranks, value_range), samples)


@pytest.mark.parametrize("samples", _SAMPLES)
def test_selection_skips_the_clip_of_a_block_inside_the_range(monkeypatch, samples):
    """Pass 1 clips only the blocks that reach past the buckets; pass 2
    clips every block, so a sample that moves between the passes still
    lands in an end bucket."""
    clip, clipped = np.clip, []

    def counting(t, *args, **kwargs):
        clipped.append(t.size)
        return clip(t, *args, **kwargs)

    monkeypatch.setattr(np, "clip", counting)
    inside = np.linspace(0.0, 1.0, 70)
    blocks = _blocks_of(inside)
    samples = max(samples, inside.size)
    _check_selection((blocks, np.arange(inside.size), (-1.0, 2.0)), samples)
    assert len(clipped) == len(blocks)  # pass 2 alone
    clipped.clear()
    # the top value maps to the last bucket's end: that block is clipped
    _check_selection((blocks, np.arange(inside.size), (-1.0, 1.0)), samples)
    assert clipped == [blocks[-1].size] + [b.size for b in blocks]
    clipped.clear()
    _check_selection((blocks, np.arange(inside.size), (0.5, 2.0)), samples)
    below = [b.size for b in blocks if b.min() < 0.5]
    assert clipped == below + [b.size for b in blocks]


def _full_sort_rearrangement(kappa, r, t):
    """The oracle: the whole lattice evaluated at once, the excluded points
    dropped, everything sorted, and np.interp on the N + 1 nodes."""
    x, theta = symbols._lattice(r)
    vals, invalid = kappa.eval_masked(x[:, None], theta[None, :])
    flat = np.broadcast_to(vals, (r, r)).reshape(-1)
    if invalid is not None:
        flat = flat[~np.broadcast_to(invalid, (r, r)).reshape(-1)]
    s = np.sort(flat)
    N = s.size
    return np.interp(t * N, np.arange(N + 1), np.concatenate(([s[0]], s))), N, r * r - N


@pytest.mark.parametrize("name", case_names())
def test_streamed_rearrangement_matches_a_full_sort_at_its_nodes(name):
    """Built for the nodes i/n of one n, the rearrangement reads there what
    a full sort of every lattice sample gives, bit for bit, and counts the
    same nodes and excluded points."""
    for coeff in ("xexp", "one", "x"):
        kappa = get_case(name, coeff).predicted_symbol
        for r in (1, 2, 7, 300):
            for n in (1, 7, 30, 120):
                t = np.arange(1, n + 1) / n
                R = monotone_rearrangement(kappa, r, ts=t)
                expected, N, excluded = _full_sort_rearrangement(kappa, r, t)
                assert R(t).tobytes() == expected.tobytes(), (coeff, r, n)
                assert (R.node_count, R.excluded) == (N + 1, excluded)
                assert R.values.size <= 2 * n + 2


def test_rearrangement_refuses_a_t_it_was_not_built_for():
    R = monotone_rearrangement(TrigFactor(LAPLACE_SYMBOL), 50, ts=[0.25, 1.0])
    assert R([0.0, 0.25, 1.0]).shape == (3,)  # 0 reads rank 0, always kept
    with pytest.raises(ValueError, match="not built for t = 0.5"):
        R([0.25, 0.5])
    with pytest.raises(ValueError, match="defined on"):
        monotone_rearrangement(TrigFactor(LAPLACE_SYMBOL), 50, ts=[0.5, 1.5])
    with pytest.raises(TypeError):  # no default: say where R will be read
        monotone_rearrangement(TrigFactor(LAPLACE_SYMBOL), 50)


@pytest.mark.parametrize("change", ["drop", "repeat", "shift"])
def test_rearrangement_refuses_samples_that_change_between_its_passes(monkeypatch, change):
    """The second pass must gather exactly the values the first counted in
    the buckets it needs: a block dropped, repeated or moved to the top
    bucket in pass 2 raises."""
    blocks, calls = symbols._grid_blocks, []

    def changing_blocks(kappa, axes, absolute=False, dest=None):
        calls.append(len(axes[0]))
        # the range sub-lattice, pass 1 and pass 2 come in that order
        second_pass = len(calls) == 3
        for i, values in enumerate(blocks(kappa, axes, absolute, dest)):
            if second_pass and i == 1:  # its second block
                if change == "drop":
                    continue
                if change == "repeat":
                    yield values.copy()
                else:
                    values = values + 1e3
            yield values

    monkeypatch.setattr(symbols, "_grid_blocks", changing_blocks)
    kappa = get_case("fd_t1", "xexp").predicted_symbol
    with pytest.raises(RuntimeError, match="samples changed"):
        monotone_rearrangement(kappa, 400, ts=[0.5, 1.0])
    assert calls == [200, 400, 400]


@pytest.mark.parametrize("bad,width", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.01)])
def test_rearrangement_refuses_non_finite_samples(bad, width):
    """A coefficient that is NaN or infinite where no division guard trips
    raises, with the number of such lattice samples."""
    hole = Coefficient("hole", lambda x: np.where(abs(x - .42) < width, bad, x))
    r = 50
    rows = int(np.count_nonzero(abs(symbols._lattice(r)[0] - .42) < width))
    assert rows in (1, 10)
    for kappa in (CoeffFactor(hole), multiply(hole, LAPLACE_SYMBOL)):
        with pytest.raises(SymbolSingularityError, match=f"^{rows * r} samples .* not finite"):
            monotone_rearrangement(kappa, r, ts=[0.5])


_ONE, _ZERO = CoeffFactor(coefficient_preset("one")), CoeffFactor(coefficient_preset("zero"))

#: denominators that vanish on lattice columns: sin and 1 + cos at theta = pi,
#: cos at theta = pi/2 when r is even
_VANISHING = (TrigFactor(SIN_SYMBOL), TrigFactor(TrigPoly.from_cosines([1.0, 1.0])),
              TrigFactor(TrigPoly.from_cosines([0.0, 1.0])))


@st.composite
def theta_only_symbols(draw, depth=2):
    """Real symbols that do not read x: cosine polynomials and constant
    coefficients, their sums and products, and quotients whose denominator
    may vanish on lattice columns (or everywhere, through ``zero``)."""
    leaf = st.one_of(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=3).map(
            lambda c: TrigFactor(TrigPoly.from_cosines(c))),
        st.sampled_from((_ONE, _ZERO)))
    if depth == 0:
        return draw(leaf)
    child = theta_only_symbols(depth - 1)
    kind = draw(st.sampled_from(["leaf", "sum", "prod", "quot", "quot"]))
    if kind == "leaf":
        return draw(leaf)
    if kind == "quot":
        den = draw(st.one_of(st.sampled_from(_VANISHING), child))
        return divide(draw(child), den)
    nodes = draw(st.lists(child, min_size=2, max_size=3))
    return add(*nodes) if kind == "sum" else multiply(*nodes)


@settings(max_examples=300, deadline=None)
@given(theta_only_symbols(), st.integers(1, 80),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_theta_only_rearrangement_is_the_sorted_lattice(kappa, r, ts):
    """From one theta row, the rearrangement keeps what np.sort of all r^2
    lattice samples puts at its ranks, and counts the same N and excluded
    points; bit for bit, but for the order of +0.0 and -0.0, which compare
    equal and which np.sort leaves as they come."""
    assert not kappa.reads_x and kappa.is_real
    axes = symbols._lattice(r)
    try:
        lattice, excluded = symbols.grid_samples(kappa, axes)
    except SymbolSingularityError:  # singular everywhere, a zero denominator
        with pytest.raises(SymbolSingularityError, match="every grid point"):
            monotone_rearrangement(kappa, r, ts=ts)
        return
    R = monotone_rearrangement(kappa, r, ts=ts)
    assert (R.N, R.excluded) == (lattice.size, excluded)
    expected = np.sort(lattice)[R.ranks]
    assert np.array_equal(R.values, expected)
    nonzero = expected != 0
    assert R.values[nonzero].tobytes() == expected[nonzero].tobytes()


def _rearrangement_without_selection(monkeypatch, kappa, r, ts):
    """The rearrangement of ``kappa`` at ``ts`` (None: every node of the
    r^2 lattice) with the bucket selection and its range sub-lattice
    refused, and the number of points at which it evaluated the symbol."""
    points = []
    eval_masked = SymbolExpr.eval_masked

    def counting(self, x, theta, *args, **kwargs):
        points.append(math.prod(np.broadcast_shapes(np.shape(x), np.shape(theta))))
        return eval_masked(self, x, theta, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("this rearrangement needs no bucket selection")

    monkeypatch.setattr(SymbolExpr, "eval_masked", counting)
    monkeypatch.setattr(symbols, "_select_ranks", refused)
    monkeypatch.setattr(symbols, "_range_of", refused)
    ts = _every_node(r * r) if ts is None else ts
    return monotone_rearrangement(kappa, r, ts=ts), sum(points)


@pytest.mark.parametrize("ts", [None, [0.25, 0.5, 1.0]])
@pytest.mark.parametrize("kappa", [
    TrigFactor(LAPLACE_SYMBOL),
    get_case("schur", "one").predicted_symbol,
    get_case("Ln", "one").predicted_symbol,
    divide(multiply(_ONE, LAPLACE_SYMBOL), TrigFactor(SIN_SYMBOL)),
])
def test_theta_only_rearrangement_evaluates_one_row(monkeypatch, kappa, ts):
    """A symbol that does not read x is evaluated at the r points of one
    lattice row, not at r^2, with neither the bucket selection nor its
    range sub-lattice."""
    r = 300
    R, points = _rearrangement_without_selection(monkeypatch, kappa, r, ts)
    assert points == r
    assert R.N + R.excluded == r * r


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_theta_only_rearrangement_refuses_non_finite_samples(bad):
    """A non-finite sample of the row raises with the number of lattice
    samples it stands for, r per row sample; excluded points do not count."""
    constant = Coefficient("bad", lambda x: np.full_like(x, bad), "L1", lambda d: 0.0)
    r = 30
    for kappa, columns in ((multiply(constant, LAPLACE_SYMBOL), r),
                           (divide(multiply(constant, LAPLACE_SYMBOL), TrigFactor(SIN_SYMBOL)),
                            r - 1)):  # sin(pi) is excluded
        assert not kappa.reads_x
        with pytest.raises(SymbolSingularityError, match=f"^{r * columns} samples .* not finite"):
            monotone_rearrangement(kappa, r, ts=[0.5])


def test_streamed_rearrangement_holds_a_fraction_of_the_lattice():
    """Read at the table's nodes only, the r^2 samples are never held: the
    traced peak stays below a third of one full-size float array."""
    kappa = get_case("fd_t1", "xexp").predicted_symbol
    r = 2000
    t = np.concatenate([np.arange(1, n + 1) / n for n in (50, 100, 200, 400, 800, 1600)])
    tracemalloc.start()
    try:
        R = monotone_rearrangement(kappa, r, ts=t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R.node_count == r * r + 1
    assert peak <= 8 * r * r / 3


def test_table2_rearrangement_gathers_only_fine_buckets(monkeypatch):
    """At r = 5000 the 2^19 int32 buckets leave 256 876 of the 25M samples
    to gather for the table's nodes, and their counts are dropped before
    the gather buffer is allocated: the traced peak stays below 5 MB (7.9
    MB with 2^18 intp counts alive beside the buffer of 466 394 samples,
    18.4 MB with 2^16 buckets, which left 1.48M samples to gather)."""
    kappa = get_case("fd_t1", "xexp").predicted_symbol
    r = 5000
    t = np.concatenate([np.arange(1, n + 1) / n for n in (50, 100, 200, 400, 800, 1600)])
    tracemalloc.start()
    try:
        R = monotone_rearrangement(kappa, r, ts=t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R.node_count == r * r + 1
    assert peak < 5e6
    # pass 2 gathers exactly the values of the buckets that hold a rank
    histogram, counts = symbols._histogram, []

    def kept(*args):
        hist = histogram(*args)
        counts.append(hist.copy())  # the selection accumulates its own in place
        return hist

    monkeypatch.setattr(symbols, "_histogram", kept)
    assert np.array_equal(monotone_rearrangement(kappa, r, ts=t).values, R.values)
    (hist,) = counts
    assert hist.size == 1 << 19 and hist.dtype == np.int32
    wanted = np.unique(np.searchsorted(np.cumsum(hist), R.ranks, side="right"))
    assert int(hist[wanted].sum()) == 256_876


# ---------------------------------------------------------------------------
# moduli of continuity
# ---------------------------------------------------------------------------

def test_modulus_linear_is_exact_on_aligned_lattice():
    got = modulus_of_continuity(coefficient_preset("x"), 0.1, probe_count=1001)
    assert got == pytest.approx(0.1, abs=1e-12)


def test_modulus_constant_is_zero():
    assert modulus_of_continuity(coefficient_preset("one"), 0.3) == 0.0


def test_modulus_of_square_closed_form():
    sq = Coefficient("sq", lambda x: x**2, "continuous")
    got = modulus_of_continuity(sq, 0.1, probe_count=1001)
    assert got == pytest.approx(0.19, abs=1e-12)


def test_modulus_monotone_in_delta():
    sq = Coefficient("sq", lambda x: np.sin(5 * x), "continuous")
    vals = [modulus_of_continuity(sq, d, probe_count=2001) for d in (0.05, 0.1, 0.2, 0.5)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("delta", [1e-4, 0.003, 0.05, 0.5, 1.0, 3.0])
def test_modulus_is_the_largest_spread_over_lattice_windows(delta):
    """Against a scan of every window of probes within delta, ties included."""
    table = Coefficient.from_table(np.linspace(0.0, 1.0, 9),
                                   [0.0, 2.0, 2.0, -1.0, 0.5, 0.5, 3.0, -2.0, 1.0])
    probes = 201
    vals = table(np.linspace(0.0, 1.0, probes))
    width = min(int(np.floor(delta * (probes - 1) + 1e-12)) + 1, probes)
    spread = max(np.ptp(vals[i:i + width]) for i in range(probes - width + 1))
    assert modulus_of_continuity(table, delta, probe_count=probes) == spread


def test_modulus_upper_bound_takes_exact_moduli_only():
    assert modulus_upper_bound(coefficient_preset("xexp"), 0.1) == pytest.approx(
        0.1 * math.exp(-0.1), rel=1e-15)
    table = Coefficient.from_table([0.0, 1.0], [0.0, 1.0], name="ramp")
    assert modulus_of_continuity(table, 0.1) > 0.0  # only a lower estimate
    with pytest.raises(ValueError, match="'ramp' has no exact modulus"):
        modulus_upper_bound(table, 0.1)


def test_integral_modulus_of_constant():
    one = coefficient_preset("one")
    for d in (0.1, 0.25, 0.7):
        assert modulus_of_integral_continuity(one, d) == pytest.approx(d, abs=1e-12)


def test_integral_modulus_of_linear_top_quantile():
    f = Coefficient("2x", lambda x: 2 * x, "continuous")
    got = modulus_of_integral_continuity(f, 0.25, sample_count=100001)
    assert got == pytest.approx(0.4375, abs=1e-3)


def test_integral_modulus_at_delta_one_is_l1_norm():
    f = coefficient_preset("xexp")
    l1 = 1 - 2 / math.e  # integral of x e^{-x} on [0,1]
    assert modulus_of_integral_continuity(f, 1.0, sample_count=200001) == pytest.approx(l1, abs=1e-6)


def test_integral_modulus_monotone_and_bounded():
    f = Coefficient("bump", lambda x: np.abs(np.sin(7 * x)), "continuous")
    deltas = (0.05, 0.2, 0.5, 1.0)
    vals = [modulus_of_integral_continuity(f, d, 50001) for d in deltas]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= max(vals) - 1e-12  # delta = 1 gives the L1 norm


# ---------------------------------------------------------------------------
# coefficients and presets
# ---------------------------------------------------------------------------

def test_preset_exact_moduli_match_lattice_estimates():
    for name in ("x", "xexp", "1+x", "expx"):
        coef = coefficient_preset(name)
        for d in (0.05, 0.2):
            lattice = modulus_of_continuity(coef, d, probe_count=8193)
            assert lattice <= coef.exact_modulus(d) + 1e-9


@pytest.mark.parametrize("name", ["one", "x", "xexp", "1+x", "expx", "zero"])
def test_preset_sup_is_the_max_modulus_on_the_unit_interval(name):
    coef = coefficient_preset(name)
    probe = np.max(np.abs(coef(np.linspace(0.0, 1.0, 4097))))
    assert coef.sup == pytest.approx(probe, rel=1e-15, abs=0.0)


def test_table_sup_is_the_largest_knot_modulus():
    # piecewise-linear data peak at a knot; the knots lie on the probe lattice
    rng = np.random.default_rng(5)
    values = rng.uniform(-1.0, 2.0, 33)
    coef = Coefficient.from_table(np.linspace(0.0, 1.0, 33), values)
    assert coef.sup == np.max(np.abs(values))
    assert coef.sup == np.max(np.abs(coef(np.linspace(0.0, 1.0, 4097))))


@pytest.mark.parametrize("name,inf", [("one", 1.0), ("x", 0.0), ("xexp", 0.0), ("1+x", 1.0),
                                      ("expx", 1.0), ("zero", 0.0)])
def test_preset_inf_is_the_min_modulus_on_the_unit_interval(name, inf):
    coef = coefficient_preset(name)
    assert coef.inf == inf == np.min(np.abs(coef(np.linspace(0.0, 1.0, 4097))))


@pytest.mark.parametrize("values,inf", [
    ([2.0, 0.5, 3.0], 0.5),
    ([-2.0, -0.25, -1.0], 0.25),
    ([1.0, 0.0, 1.0], 0.0),
    ([1.0, -1.0, 1.0], 0.0),  # the sign changes between knots: a zero there
    ([0.5, 0.5, -0.5], 0.0),
])
def test_table_inf_is_zero_across_a_sign_change_else_the_least_knot_modulus(values, inf):
    coef = Coefficient.from_table([0.0, 0.3, 1.0], values)
    assert coef.inf == inf
    probe = np.abs(coef(np.linspace(0.0, 1.0, 4001)))
    assert np.min(probe) == pytest.approx(inf, abs=1e-3)


def test_table_coefficient_roundtrip(tmp_path):
    path = tmp_path / "coef.csv"
    path.write_text("x,value\n0.0,1.0\n0.5,2.0\n1.0,0.5\n")
    coef = coefficient_preset(f"csv:{path}")
    assert coef(0.25) == pytest.approx(1.5)
    assert coef(0.75) == pytest.approx(1.25)


def test_table_coefficient_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n1,2\n")
    with pytest.raises(ValueError):
        Coefficient.from_csv(path)


@pytest.mark.parametrize("rows, bad", [
    ("0,1\n0.5,abc\n1,2\n", "row 2 of the x/value table is not finite: x = 0.5, value = nan"),
    ("0,1\nabc,1.5\n1,2\n", "row 2 of the x/value table is not finite: x = nan, value = 1.5"),
])
def test_table_coefficient_rejects_non_finite_cells(tmp_path, rows, bad):
    # genfromtxt reads a non-numeric cell as NaN; the table names the row
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n" + rows)
    with pytest.raises(ValueError, match=bad):
        Coefficient.from_csv(path)
    with pytest.raises(ValueError, match="row 3 of the x/value table is not finite"):
        Coefficient.from_table([0.0, 0.5, np.inf], [1.0, 2.0, 3.0])


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        coefficient_preset("mystery")


def test_conjugate_of_real_symbol_is_identity():
    from gltkit import conjugate
    kappa = multiply(XEXP, LAPLACE_SYMBOL)
    conj = conjugate(kappa)
    assert conj.is_real
    assert symbol_eval(conj, 0.3, 1.1) == pytest.approx(symbol_eval(kappa, 0.3, 1.1), rel=1e-14)


def test_conjugate_of_complex_trig():
    from gltkit import conjugate
    f = TrigFactor(TrigPoly([0.0, 0.0, 1.0]))  # e^{i theta}
    c = conjugate(f)
    got = c.eval_masked(np.array(0.0), np.array(0.7))[0]
    assert complex(got) == pytest.approx(np.exp(-0.7j), rel=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)),
                min_size=1, max_size=7))
def test_fourier_bound_holds_for_general_polynomials(pairs):
    if len(pairs) % 2 == 0:
        pairs = pairs + [(0.5, 0.0)]
    f = TrigPoly([complex(re, im) for re, im in pairs])
    assert np.all(np.abs(f.coeffs) <= f.sup_norm(40001) + 1e-9)
