"""Tests for functionals, distribution reports, and trend diagnostics."""
import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gltkit import (
    Coefficient,
    ComplexSymbolError,
    LAPLACE_SYMBOL,
    SymbolSingularityError,
    TrigFactor,
    TrigPoly,
    UnboundedSymbolError,
    case_names,
    coefficient_preset,
    default_suite,
    empirical_functional,
    fd_cdr_dirichlet,
    fd_cdr_neumann,
    fd_diffusion,
    get_case,
    hat,
    monomial,
    monotone_rearrangement,
    multiply,
    outlier_count,
    rearrangement_compare,
    rearrangement_nodes,
    symbol_samples,
    sym_eigvals,
    toeplitz,
    weyl_compare,
    zero_distribution_check,
)
import gltkit.analysis as analysis
from gltkit.builders import DiscretizationCase
from gltkit.linalg import BandedMatrix, as_dense
from gltkit.symbols import SYMBOL_RECT, nonfinite_count, require_finite

ONE = coefficient_preset("one")
XEXP = coefficient_preset("xexp")
WIDE = monomial(1, (-1e9, 1e9))          # effectively unclipped t
WIDE2 = monomial(2, (-1e9, 1e9))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree", range(6))
def test_monomial_is_the_clipped_power_bit_for_bit(degree):
    rng = np.random.default_rng(degree)
    t = np.concatenate([rng.uniform(-3.0, 3.0, 5000), [-2.5, 0.0, 2.5, -4.0, 4.0, np.inf]])
    F = monomial(degree, (-2.5, 2.5), scale=2.5)
    inside = (t >= -2.5) & (t <= 2.5)
    got = F(t)
    assert got.dtype == float and got.shape == t.shape
    assert np.array_equal(got, np.where(inside, (t / 2.5) ** degree, 0.0))
    assert F(0.5) == 0.2 ** degree and F(-3.0) == 0.0  # 0-d arguments


def _old_default_suite(lo, hi):
    """The suite of a range as it was chosen before: the window widened by
    5 % of its width floored at the least normal float, and the scale floored
    there too."""
    tiny = np.finfo(float).tiny
    m = 0.05 * max(hi - lo, tiny)
    window = (lo - m, hi + m)
    scale = max(abs(window[0]), abs(window[1]), tiny)
    return [monomial(d, window, scale) for d in range(4)]


def _field_bits(F):
    """Every field of a TestFunction, with each float as its 8 bytes."""
    def bits(v):
        if isinstance(v, tuple):
            return tuple(map(bits, v))
        return struct.pack("<d", v) if isinstance(v, float) else v
    return [bits(getattr(F, f.name)) for f in dataclasses.fields(F)]


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
@example(0.0, 4 / math.e)
@example(-2.0, -0.0)
@example(-1e308, 1e308)
def test_default_suite_of_a_range_of_positive_width_keeps_its_bits(a, b):
    """A range at least twice the least normal float wide gets the old
    rule's window and scale, bit for bit; below that width the old floors,
    which are gone, chose them."""
    lo, hi = min(a, b), max(a, b)
    assume(hi - lo >= 2 * np.finfo(float).tiny)
    assert list(map(_field_bits, default_suite(lo, hi))) == \
        list(map(_field_bits, _old_default_suite(lo, hi)))


def test_empirical_mean_is_normalized_trace():
    n = 40
    S = sym_eigvals(toeplitz(LAPLACE_SYMBOL, n))
    assert empirical_functional(S, WIDE) == pytest.approx(2.0, abs=1e-9)


def test_empirical_hat_outside_spectrum_is_zero():
    S = sym_eigvals(toeplitz(LAPLACE_SYMBOL, 12))
    assert empirical_functional(S, hat(100.0, 1.0)) == 0.0


def test_empirical_second_moment_closed_form():
    n = 35
    S = sym_eigvals(toeplitz(LAPLACE_SYMBOL, n))
    assert empirical_functional(S, WIDE2) == pytest.approx((6 * n - 2) / n, rel=1e-10)


def test_symbol_functional_first_and_second_moment():
    samples = symbol_samples(TrigFactor(LAPLACE_SYMBOL))
    assert samples.symbol_sides([WIDE])[0][0] == pytest.approx(2.0, abs=1e-8)
    assert samples.symbol_sides([WIDE2])[0][0] == pytest.approx(6.0, abs=1e-7)


def test_symbol_samples_take_the_midpoint_rule_exactly_for_quotients():
    """The rule follows the symbol: midpoint cells (quad_res^2 of them, less
    the excluded ones) for a quotient, 2 x 2 Gauss nodes per panel
    otherwise, for every registry symbol in both modes."""
    quad_res = 8
    for name in case_names():
        kappa = get_case(name, "xexp").predicted_symbol
        for mode in ("lambda", "sigma"):
            samples = symbol_samples(kappa, mode, quad_res)
            if kappa.has_quotient:
                assert samples.quad_rule == "midpoint"
                assert 0 < samples.full.count <= quad_res ** 2
                assert samples.full.excluded == quad_res ** 2 - samples.full.count
                assert 0 < samples.coarse.count <= (quad_res // 2) ** 2
            else:
                assert samples.quad_rule == "gauss"
                assert samples.full.count == (2 * quad_res) ** 2 and samples.full.excluded == 0
                assert samples.coarse.count == quad_res ** 2


def test_symbol_functional_separable_product():
    samples = symbol_samples(multiply(coefficient_preset("x"), LAPLACE_SYMBOL))
    assert samples.symbol_sides([WIDE])[0][0] == pytest.approx(1.0, abs=1e-8)
    # mean x^2 (2 - 2cos)^2 = 6/3: exact to 1e-8 on the Gauss rule of a
    # quotient-free symbol, where the midpoint rule would miss by 3e-6
    assert samples.symbol_sides([WIDE2])[0][0] == pytest.approx(2.0, abs=1e-8)


def test_symbol_functional_sigma_mode_uses_modulus():
    minus = TrigFactor(LAPLACE_SYMBOL)
    kappa = multiply(-1.0, minus)
    got = symbol_samples(kappa, "sigma").symbol_sides([WIDE])[0][0]
    assert got == pytest.approx(2.0, abs=1e-8)


def test_symbol_functional_of_complex_symbol_takes_the_modulus():
    e_itheta = TrigFactor(TrigPoly([0.0, 0.0, 1.0]))   # |e^{i theta}| = 1, mean |cos| = 2/pi
    got = symbol_samples(e_itheta, "sigma").symbol_sides([lambda v: v])[0][0]
    assert got == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ComplexSymbolError):
        symbol_samples(e_itheta)


def test_sigma_samples_of_complex_symbol_are_moduli():
    shift = TrigFactor(TrigPoly([0.0, 0.0, 1.0]))
    samples = symbol_samples(shift, "sigma", quad_res=20)
    assert (samples.full.count, samples.coarse.count) == (40 ** 2, 20 ** 2)
    assert np.allclose([samples.full.lo, samples.full.hi, samples.coarse.lo, samples.coarse.hi],
                       1.0)
    with pytest.raises(ComplexSymbolError):
        symbol_samples(shift, "lambda", quad_res=20)


def _oracle_samples(kappa, quad_res, absolute):
    """The kept values of ``kappa`` (moduli with ``absolute``) on the Weyl
    quadrature grid of ``quad_res`` panels, held whole: the Gauss rule's
    two nodes per panel per axis, or the cell centres of a quotient."""
    (x0, x1), (t0, t1) = SYMBOL_RECT
    centres = np.arange(quad_res) + 0.5
    if kappa.has_quotient:
        x, th = x0 + (x1 - x0) * centres / quad_res, t0 + (t1 - t0) * centres / quad_res
    else:
        g = 1.0 / (2.0 * math.sqrt(3.0))
        nodes = (centres[:, None] / quad_res + np.array([-g, g]) / quad_res).ravel()
        x, th = x0 + (x1 - x0) * nodes, t0 + (t1 - t0) * nodes
    # one evaluation on the whole grid, then the excluded points dropped by one mask
    vals, invalid = kappa.eval_masked(x[:, None], th[None, :])
    shape = (x.size, th.size)
    samples = np.array(np.broadcast_to(np.abs(vals) if absolute else vals, shape),
                       dtype=float).reshape(-1)
    if invalid is not None:
        samples = samples[~np.broadcast_to(invalid, shape).reshape(-1)]
    require_finite(nonfinite_count(samples))
    return samples


def _oracle_mean(F, values):
    """Mean of F over ``values``, summed in chunks of 2^17 values (1/16 of
    them when that is fewer) and the chunk sums added by math.fsum."""
    step = max(1, min(1 << 17, values.size // 16))
    return math.fsum(float(np.sum(F(values[i:i + step])))
                     for i in range(0, values.size, step)) / values.size


def _assert_streamed_sides_are_the_oracle(kappa, mode, quad_res, suite=None):
    """symbol_samples ranges, and its symbol_sides average, what the grids
    held whole give, bit for bit; ``suite`` defaults to the default one."""
    full, coarse = (_oracle_samples(kappa, res, mode == "sigma")
                    for res in (quad_res, quad_res // 2))
    samples = symbol_samples(kappa, mode, quad_res)
    for grid, held, res in ((samples.full, full, quad_res),
                            (samples.coarse, coarse, quad_res // 2)):
        points = (res if kappa.has_quotient else 2 * res) ** 2
        assert grid == (held.size, points - held.size, held.min(), held.max())
    if suite is None:
        suite = default_suite(float(full.min()), float(full.max()))
        assert samples.default_suite() == suite
    for F, (sym, refinement) in zip(suite, samples.symbol_sides(suite)):
        assert sym == _oracle_mean(F, full)
        assert refinement == abs(sym - _oracle_mean(F, coarse))
    return samples


@pytest.mark.parametrize("quad_res", [2, 3, 37, 400])
@pytest.mark.parametrize("mode", ["lambda", "sigma"])
def test_streamed_symbol_sides_are_the_means_over_the_held_grids(mode, quad_res):
    for name in case_names():
        for coeff in ("xexp", "one"):
            _assert_streamed_sides_are_the_oracle(get_case(name, coeff).predicted_symbol,
                                                  mode, quad_res)


def test_streamed_symbol_sides_of_hats_and_of_excluded_cells(tmp_path):
    kappa = get_case("fd_t1", "xexp").predicted_symbol
    hats = [hat(c, w) for c, w in ((0.5, 0.4), (2.0, 1.0), (3.9, 0.3))]
    for mode in ("lambda", "sigma"):
        _assert_streamed_sides_are_the_oracle(kappa, mode, 37, hats)
    # a = c vanishes at x = 1/2, the centre of the middle row of cells for
    # an odd quad_res: that row trips the division guard and is excluded
    table = tmp_path / "dip.csv"
    table.write_text("x,value\n0,1\n0.5,0\n1,1\n")
    kappa = get_case(f"Ln:c=csv:{table}", f"csv:{table}").predicted_symbol
    for quad_res, excluded in ((37, 37), (400, 0)):
        samples = _assert_streamed_sides_are_the_oracle(kappa, "lambda", quad_res)
        assert samples.full.excluded == excluded
        assert samples.full.count == quad_res ** 2 - excluded
    # at quad_res = 3 the coarse grid is the one cell centred on x = 1/2:
    # it keeps no point, so there is no refinement gap, but the full grid
    # keeps its two outer rows and gives the symbol side
    samples = symbol_samples(kappa, quad_res=3)
    assert samples.full == (6, 3, *samples.full[2:]) and samples.coarse == (0, 1, np.inf, -np.inf)
    full = _oracle_samples(kappa, 3, absolute=False)
    suite = samples.default_suite()
    assert samples.symbol_sides(suite) == [(_oracle_mean(F, full), None) for F in suite]
    case = get_case(f"Ln:c=csv:{table}", f"csv:{table}")
    assert weyl_compare(case, [20], quad_res=3)[0].quad_refinement is None


def test_streamed_symbol_sides_take_chunks_of_2_17_values_on_large_grids():
    """From 2^21 kept values on, the chunks are 2^17 values, not N/16."""
    kappa = get_case("fd_t2", "xexp").predicted_symbol
    samples = _assert_streamed_sides_are_the_oracle(kappa, "lambda", 800)
    assert samples.full.count // 16 > 1 << 17


def test_symbol_side_memory_does_not_grow_with_quad_res():
    """The quadrature values are never held: at quad_res = 1600 the 10.24M
    Gauss nodes of fd_t2 (82 MB of samples, held whole) stream through a
    staging buffer of one 2^17-value chunk and one evaluation block."""
    kappa = get_case("fd_t2", "xexp").predicted_symbol
    warm = symbol_samples(kappa, quad_res=20)
    warm.symbol_sides(warm.default_suite())
    tracemalloc.start()
    try:
        samples = symbol_samples(kappa, quad_res=1600)
        samples.symbol_sides(samples.default_suite())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.full.count == 3200 ** 2
    # the 1.3 MB buffer, a 1 MB chunk of F's values and F's masks
    assert peak < 3 << 20, peak


@pytest.mark.parametrize("quad_res", [1, 2, 3])
def test_the_coarse_grid_takes_half_the_panels(quad_res):
    """quad_res // 2 panels refine to quad_res: below 2 there is no coarser
    grid (ValueError), and at 2 and 3 the coarse grid has one panel."""
    case = get_case("fd_t1", "xexp")
    if quad_res == 1:
        with pytest.raises(ValueError, match="quad_res must be >= 2"):
            symbol_samples(case.predicted_symbol, quad_res=quad_res)
        return
    samples = symbol_samples(case.predicted_symbol, quad_res=quad_res)
    assert (samples.full.count, samples.coarse.count) == ((2 * quad_res) ** 2, 2 ** 2)
    assert weyl_compare(case, [20], quad_res=quad_res)[0].quad_refinement > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symbol_samples_refuse_non_finite_values(bad):
    """A coefficient that is NaN or infinite where no division guard trips
    raises, with the number of such samples of the full quadrature grid,
    before the window of the default suite is taken from them."""
    hole = Coefficient("hole", lambda x: np.where(abs(x - .5) < .1, bad, x))
    quad_res = 60
    # the Gauss nodes of the x axis, two per panel; the theta axis has as many
    g = 1.0 / (2.0 * math.sqrt(3.0))
    nodes = ((np.arange(quad_res) + 0.5)[:, None] + np.array([-g, g])).ravel() / quad_res
    count = int(np.count_nonzero(abs(nodes - .5) < .1)) * nodes.size
    assert count == 24 * 120
    case = fd_diffusion(hole)
    for mode in ("lambda", "sigma"):
        with pytest.raises(SymbolSingularityError, match=f"^{count} samples .* not finite"):
            symbol_samples(case.predicted_symbol, mode, quad_res)
    with pytest.raises(SymbolSingularityError, match=f"^{count} samples .* not finite"):
        weyl_compare(case, [40], quad_res=quad_res)


# ---------------------------------------------------------------------------
# Weyl comparison
# ---------------------------------------------------------------------------

def test_weyl_constant_coefficient_first_moment_gap_vanishes():
    rep, = weyl_compare(fd_diffusion(ONE), [200], F_suite=[WIDE], quad_res=400)
    assert rep.functionals[0].gap < 1e-8
    assert "Hermitian" in rep.backing


def test_weyl_xexp_first_moment_matches_closed_form_and_decays():
    case = fd_diffusion(XEXP)
    target = 2 * (1 - 2 / math.e)
    gaps = []
    for rep in weyl_compare(case, [100, 400], F_suite=[WIDE], quad_res=400):
        assert rep.functionals[0].symbol_value == pytest.approx(target, abs=1e-8)
        gaps.append(rep.functionals[0].gap)
    assert gaps[1] < gaps[0]


def test_weyl_default_suite_gaps_decay():
    case = fd_diffusion(XEXP)
    r100, r400 = weyl_compare(case, [100, 400], quad_res=200)
    for g1, g4 in zip(r100.functionals, r400.functionals):
        assert g4.gap <= max(g1.gap, 1e-9)


def test_weyl_schur_gap_shrinks():
    case = get_case("schur", "one")
    g100, g400 = (rep.max_gap() for rep in weyl_compare(case, [100, 400], quad_res=400))
    assert g400 * 1.5 <= g100


def test_weyl_nonsymmetric_case_reports_split_backing():
    case = fd_cdr_dirichlet(XEXP, ONE, ONE)
    rep, = weyl_compare(case, [80], quad_res=100)
    assert "split" in rep.backing


HERMITIAN = "lambda distribution (Hermitian)"
SIMILAR = "lambda distribution (similar to Hermitian)"
SPLIT = "lambda distribution (Hermitian + vanishing-norm split)"
PENCIL_SOLVERS = {"schur": "pencil_rank_one", "Ln": "pencil_band"}


@pytest.mark.parametrize("spec, backing", [
    ("fd_t1", HERMITIAN), ("fd_t2", SPLIT), ("fd_t3", SPLIT), ("fd_t4", SPLIT),
    ("fd_t4:b=zero,c=zero", SPLIT), ("fd_t5", SPLIT), ("fd_t6", SIMILAR),
    ("fd_t7", HERMITIAN), ("fe_t1", HERMITIAN), ("fe_mass", HERMITIAN),
    ("schur", HERMITIAN), ("Ln", HERMITIAN),
    ("fd_t2:b=zero,c=zero", HERMITIAN), ("fd_t3:b=zero", HERMITIAN),
    ("fe_t1:b=zero,c=x", HERMITIAN), ("fe_t1:b=x,c=one", SPLIT),
])
def test_backing_of_every_registry_case(spec, backing):
    # the backing is read off the solved operand first: a symmetric operand is
    # Hermitian, whatever corrections its case declares, and a split backs only a
    # non-symmetric one, also where a similarity solves it (fd_t4 with b = c = zero);
    # the two band pencils (the Schur complement, a rank-one update, is solved as one) are Hermitian
    rep, = weyl_compare(get_case(spec, "xexp"), [40], quad_res=40)
    assert rep.backing == backing
    if spec in PENCIL_SOLVERS:
        assert rep.spectrum.solver == PENCIL_SOLVERS[spec]


def test_weyl_sigma_mode_on_symmetric_case_matches_lambda():
    case = fd_diffusion(XEXP)  # nonnegative spectrum: sigma and lambda agree
    r_l, = weyl_compare(case, [60], F_suite=[WIDE], quad_res=200)
    r_s, = weyl_compare(case, [60], F_suite=[WIDE], mode="sigma", quad_res=200)
    assert r_s.functionals[0].empirical == pytest.approx(r_l.functionals[0].empirical, rel=1e-12)


def test_weyl_report_json_schema():
    rep, = weyl_compare(fd_diffusion(ONE), [30], quad_res=100)
    doc = rep.to_json_dict()
    for key in ("case", "n", "alpha_n", "functionals", "rearrangement_gap", "outliers"):
        assert key in doc
    assert {"label", "empirical", "symbol", "gap"} <= set(doc["functionals"][0])
    assert doc["solver"] == "sym_tridiagonal"


@pytest.mark.parametrize("c", [-2.0, 0.0, 1.0])
def test_weyl_window_of_a_constant_symbol_is_5_percent_of_its_magnitude(c):
    # the window had been the zero-width range widened by 1e-309, which held
    # none of the eigenvalues c +- 1e-15 (gaps 0.92, 1.0 and 0.96; an overflow
    # for c = 0)
    case = DiscretizationCase(
        f"const({c:g})", "test",
        lambda n: BandedMatrix.diagonal(c + 1e-15 * np.cos(np.arange(n))),
        predicted_symbol=TrigFactor(TrigPoly([c])))
    rep, = weyl_compare(case, [50], quad_res=8)
    assert all(f.gap <= 1e-15 for f in rep.functionals), rep.functionals
    m = 0.05 * max(abs(c), 1.0)
    assert symbol_samples(case.predicted_symbol, quad_res=8).default_suite() == \
        [monomial(d, (c - m, c + m), abs(c) + m) for d in range(4)]


def test_weyl_sigma_gaps_of_a_zero_symbol_fall():
    # fd_t2 with a = b = c = 0: its singular values are O(1/n), its symbol 0;
    # the zero-width window had overflowed and kept a degree-0 gap of 1.0
    case = get_case("fd_t2", "zero")
    gaps = [[f.gap for f in rep.functionals]
            for rep in weyl_compare(case, [12, 48, 192], mode="sigma", quad_res=8)]
    assert gaps[1][0] == gaps[2][0] == 0.0
    assert gaps[0][1] > gaps[1][1] > gaps[2][1]


# ---------------------------------------------------------------------------
# rearrangement comparison
# ---------------------------------------------------------------------------

def test_rearrangement_compare_reference_row():
    rep, = rearrangement_compare(fd_diffusion(XEXP), [50], r=5000)
    assert rep.rearrangement_gap == pytest.approx(0.0327, abs=5e-4)
    assert rep.outlier_count == 0


def test_rearrangement_compare_constant_coefficient_decay():
    case = fd_diffusion(ONE)
    g100, g200, g400 = (rep.rearrangement_gap
                        for rep in rearrangement_compare(case, [100, 200, 400], 3000))
    assert g200 <= 0.75 * g100 and g400 <= 0.75 * g200


def test_rearrangement_gap_of_a_zero_symbol_has_no_relative_gap():
    # fe_t1 with a = b = 0, c = x: a symbol of essential range {0}, whose
    # relative gap had been divided by the least normal float (2e+305)
    case = get_case("fe_t1:b=zero,c=x", "zero")
    ns = (12, 48, 192)
    reports = rearrangement_compare(case, ns, 64)
    assert [rep.rearrangement_gap_rel for rep in reports] == [None] * 3
    assert all('"rearrangement_gap_rel": null' in json.dumps(rep.to_json_dict())
               for rep in reports)
    gaps = [rep.rearrangement_gap for rep in reports]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_rearrangement_compare_refuses_unbounded_symbol():
    case = get_case("fd_t7:q=2", "one")
    with pytest.raises(UnboundedSymbolError):
        rearrangement_compare(case, [30])


def test_rearrangement_overlay_shape():
    rep, = rearrangement_compare(fd_diffusion(XEXP), [25], r=500)
    t, s, e = rep.overlay
    assert len(t) == len(s) == len(e) == 25
    assert np.all(np.diff(s) >= 0) and np.all(np.diff(e) >= -1e-12)


def test_dagger_functional_consistency():
    # the rearrangement preserves test functionals: mean F(kappa) over the
    # rectangle equals the line integral of F(rearranged kappa)
    kappa = multiply(XEXP, LAPLACE_SYMBOL)
    t = (np.arange(4000) + 0.5) / 4000
    R = monotone_rearrangement(kappa, 2000, ts=t)
    samples = symbol_samples(kappa, quad_res=400)
    for F in default_suite(0.0, 4 / math.e):
        direct = samples.symbol_sides([F])[0][0]
        via_dagger = float(np.mean(F(R(t))))
        assert direct == pytest.approx(via_dagger, abs=2e-3)


# ---------------------------------------------------------------------------
# outliers
# ---------------------------------------------------------------------------

def test_outlier_count_planted_value():
    values = np.sort(np.concatenate([np.linspace(0, 1, 20), [10.0]]))
    count, out = outlier_count(values, 0.0, 1.0, 1e-8)
    assert count == 1 and out == [10.0]
    count, _ = outlier_count(values, 0.0, 1.0, 100.0)
    assert count == 0


# ---------------------------------------------------------------------------
# zero-distribution trends
# ---------------------------------------------------------------------------

def test_zero_distribution_lower_order_terms_pass():
    case = fd_cdr_dirichlet(ONE, ONE, ONE)
    rep = zero_distribution_check(lambda n: case.companions["Z"](n), (100, 200, 400, 800), p=2)
    assert rep.overall_pass


def test_zero_distribution_identity_fails():
    for p in (2.0, np.inf):
        rep = zero_distribution_check(lambda n: np.eye(n), (50, 100, 200, 400), p=p)
        assert not rep.overall_pass


def test_zero_distribution_neumann_correction_passes():
    case = fd_cdr_neumann(ONE, ONE, ONE)

    def build(n):
        return as_dense(case.companions["Z"](n)) + as_dense(case.companions["R"](n))

    rep = zero_distribution_check(build, (100, 200, 400, 800), p=2)
    assert rep.overall_pass


@pytest.mark.parametrize("spec,mode", [("fd_t2", "lambda"), ("Ln", "lambda"),
                                       ("fd_t7:q=2", "sigma")])
def test_weyl_reused_samples_give_identical_gaps(spec, mode):
    """One symbol sampling serves every n: the reports of [20, 40] are those
    of [20] and of [40] run apart, bit for bit."""
    case = get_case(spec, "xexp")
    together = weyl_compare(case, [20, 40], mode=mode, quad_res=60)
    apart = [rep for n in (20, 40) for rep in weyl_compare(case, [n], mode=mode, quad_res=60)]
    assert len(together) == len(apart) == 2
    for reused, fresh in zip(together, apart):
        assert reused.functionals == fresh.functionals
        assert reused.quad_refinement == fresh.quad_refinement
        assert (reused.quad_rule, reused.quad_res) == (fresh.quad_rule, fresh.quad_res)
        assert reused.to_json_dict() == fresh.to_json_dict()
        assert np.array_equal(reused.spectrum.values, fresh.spectrum.values)


def _counted_calls(monkeypatch, owner, name):
    """The results of every call of ``owner.name`` from here on, in order."""
    results, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, counted)
    return results


def _solved_sizes(monkeypatch):
    """The n of every DiscretizationCase.spectrum call from here on, in order."""
    sizes, original = [], DiscretizationCase.spectrum
    monkeypatch.setattr(DiscretizationCase, "spectrum",
                        lambda self, n: sizes.append(n) or original(self, n))
    return sizes


def test_weyl_symbol_side_is_computed_once_per_test_function(monkeypatch):
    """weyl_compare(case, ns) takes one symbol_samples, which ranges each
    grid in one pass; the symbol sides of a whole suite then take one more
    pass per grid, shared by every n, and each n is solved once."""
    case = get_case("fd_t1", "xexp")
    full = _oracle_samples(case.predicted_symbol, 40, absolute=False)
    coarse = _oracle_samples(case.predicted_symbol, 20, absolute=False)
    passes = []
    blocks = analysis._grid_blocks

    def counted_blocks(kappa, axes, absolute=False, step=None):
        passes.append((axes[0].size, step is not None))
        return blocks(kappa, axes, absolute, step)

    monkeypatch.setattr(analysis, "_grid_blocks", counted_blocks)
    sampled = _counted_calls(monkeypatch, analysis, "symbol_samples")
    solved = _solved_sizes(monkeypatch)
    F = monomial(2, (0.0, 5.0))
    sizes = []

    def counted(t):
        sizes.append(np.size(t))
        return F(t)

    counted.label = F.label
    suite = default_suite(float(full.min()), float(full.max())) + [counted]
    reports = weyl_compare(case, [20, 40], F_suite=suite, quad_res=40)
    samples, = sampled
    # Gauss rule: two nodes per panel; each grid ranged, then streamed once
    assert passes == [(80, False), (40, False), (80, True), (40, True)]
    assert solved == [20, 40]
    # the full and coarse values once, in chunks of min(2^17, N/16) values
    # so that F never sees them at full size, then the spectra at n = 20 and 40
    assert sizes[-2:] == [20, 40]
    chunks = sizes[:-2]
    assert sum(chunks) == samples.full.count + samples.coarse.count
    assert max(chunks) == min(1 << 17, samples.full.count // 16) < samples.coarse.count
    sym = _oracle_mean(F, full)
    refinement = max(abs(_oracle_mean(G, full) - _oracle_mean(G, coarse)) for G in suite)
    for rep in reports:
        assert rep.functionals[-1].symbol_value == sym
        assert rep.quad_refinement == refinement
    assert ([g.symbol_value for g in reports[0].functionals]
            == [g.symbol_value for g in reports[1].functionals])


def test_rearrangement_compare_builds_one_rearrangement_for_every_n(monkeypatch):
    """rearrangement_compare(case, ns) builds one rearrangement, for the
    rearrangement_nodes of ns, and solves each n once; each report is that
    of its n run apart, bit for bit."""
    case = get_case("fd_t1", "xexp")
    built = _counted_calls(monkeypatch, analysis, "monotone_rearrangement")
    solved = _solved_sizes(monkeypatch)
    reports = rearrangement_compare(case, [20, 40], 300)
    rearr, = built
    assert solved == [20, 40]
    assert [rep.n for rep in reports] == [20, 40]
    assert all(rep.rearrangement is rearr for rep in reports)
    assert rearr.r == 300
    rearr(rearrangement_nodes([20, 40]))  # built for every point it is read at
    apart = [rep for n in (20, 40) for rep in rearrangement_compare(case, [n], 300)]
    for together, alone in zip(reports, apart):
        assert together.to_json_dict() == alone.to_json_dict()
        assert all(map(np.array_equal, together.overlay, alone.overlay))


@pytest.mark.parametrize("coeff", ["xexp", "one", "x"])
@pytest.mark.parametrize("name", case_names())
def test_a_second_build_of_every_registry_symbol_matches_it(name, coeff):
    """A second build of a registry symbol prints the same, with the same flags."""
    a = coefficient_preset(coeff)
    built, again = get_case(name, a), get_case(name, a)
    assert str(built.predicted_symbol) == str(again.predicted_symbol)
    flags = ("is_real", "has_quotient", "reads_x", "bounded")
    assert [getattr(built.predicted_symbol, f) for f in flags] == \
        [getattr(again.predicted_symbol, f) for f in flags]
