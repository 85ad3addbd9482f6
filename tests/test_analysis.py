"""Tests for functionals, distribution reports, and trend diagnostics."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

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
    inflate,
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
from gltkit.linalg import as_dense
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
        suite = default_suite(inflate(float(full.min()), float(full.max())))
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
    assert weyl_compare(case, 20, quad_res=3, samples=samples).quad_refinement is None


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
    assert weyl_compare(case, 20, quad_res=quad_res, samples=samples).quad_refinement > 0


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
        weyl_compare(case, 40, quad_res=quad_res)


# ---------------------------------------------------------------------------
# Weyl comparison
# ---------------------------------------------------------------------------

def test_weyl_constant_coefficient_first_moment_gap_vanishes():
    rep = weyl_compare(fd_diffusion(ONE), 200, F_suite=[WIDE], quad_res=400)
    assert rep.functionals[0].gap < 1e-8
    assert "Hermitian" in rep.backing


def test_weyl_xexp_first_moment_matches_closed_form_and_decays():
    case = fd_diffusion(XEXP)
    target = 2 * (1 - 2 / math.e)
    gaps = {}
    for n in (100, 400):
        rep = weyl_compare(case, n, F_suite=[WIDE], quad_res=400)
        assert rep.functionals[0].symbol_value == pytest.approx(target, abs=1e-8)
        gaps[n] = rep.functionals[0].gap
    assert gaps[400] < gaps[100]


def test_weyl_default_suite_gaps_decay():
    case = fd_diffusion(XEXP)
    r100 = weyl_compare(case, 100, quad_res=200)
    r400 = weyl_compare(case, 400, quad_res=200)
    for g1, g4 in zip(r100.functionals, r400.functionals):
        assert g4.gap <= max(g1.gap, 1e-9)


def test_weyl_schur_gap_shrinks():
    case = get_case("schur", "one")
    g100 = weyl_compare(case, 100, quad_res=400).max_gap()
    g400 = weyl_compare(case, 400, quad_res=400).max_gap()
    assert g400 * 1.5 <= g100


def test_weyl_nonsymmetric_case_reports_split_backing():
    case = fd_cdr_dirichlet(XEXP, ONE, ONE)
    rep = weyl_compare(case, 80, quad_res=100)
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
    rep = weyl_compare(get_case(spec, "xexp"), 40, quad_res=40)
    assert rep.backing == backing
    if spec in PENCIL_SOLVERS:
        assert rep.spectrum.solver == PENCIL_SOLVERS[spec]


def test_weyl_sigma_mode_on_symmetric_case_matches_lambda():
    case = fd_diffusion(XEXP)  # nonnegative spectrum: sigma and lambda agree
    r_l = weyl_compare(case, 60, F_suite=[WIDE], quad_res=200)
    r_s = weyl_compare(case, 60, F_suite=[WIDE], mode="sigma", quad_res=200)
    assert r_s.functionals[0].empirical == pytest.approx(r_l.functionals[0].empirical, rel=1e-12)


def test_weyl_report_json_schema():
    rep = weyl_compare(fd_diffusion(ONE), 30, quad_res=100)
    doc = rep.to_json_dict()
    for key in ("case", "n", "alpha_n", "functionals", "rearrangement_gap", "outliers"):
        assert key in doc
    assert {"label", "empirical", "symbol", "gap"} <= set(doc["functionals"][0])
    assert doc["solver"] == "sym_tridiagonal"


# ---------------------------------------------------------------------------
# rearrangement comparison
# ---------------------------------------------------------------------------

def test_rearrangement_compare_reference_row():
    rep = rearrangement_compare(fd_diffusion(XEXP), 50, r=5000)
    assert rep.rearrangement_gap == pytest.approx(0.0327, abs=5e-4)
    assert rep.outlier_count == 0


def test_rearrangement_compare_constant_coefficient_decay():
    case = fd_diffusion(ONE)
    R = monotone_rearrangement(case.predicted_symbol, 3000, rearrangement_nodes((100, 200, 400)))
    g100 = rearrangement_compare(case, 100, rearr=R).rearrangement_gap
    g200 = rearrangement_compare(case, 200, rearr=R).rearrangement_gap
    g400 = rearrangement_compare(case, 400, rearr=R).rearrangement_gap
    assert g200 <= 0.75 * g100 and g400 <= 0.75 * g200


def test_rearrangement_compare_refuses_an_r_other_than_its_rearrangements():
    case = fd_diffusion(ONE)
    R = monotone_rearrangement(case.predicted_symbol, 300, rearrangement_nodes([20]))
    with pytest.raises(ValueError, match="sampled at r=300; this comparison asks for r=9999"):
        rearrangement_compare(case, 20, r=9999, rearr=R)
    assert rearrangement_compare(case, 20, r=300, rearr=R).rearrangement.r == 300


def test_rearrangement_compare_refuses_unbounded_symbol():
    case = get_case("fd_t7:q=2", "one")
    with pytest.raises(UnboundedSymbolError):
        rearrangement_compare(case, 30)


def test_rearrangement_compare_reuses_a_given_spectrum():
    case = fd_cdr_dirichlet(XEXP, ONE, ONE)
    R = monotone_rearrangement(case.predicted_symbol, 500, rearrangement_nodes([40]))
    own = rearrangement_compare(case, 40, rearr=R)
    given = rearrangement_compare(case, 40, rearr=R, spectrum=own.spectrum)
    assert given.rearrangement_gap == own.rearrangement_gap
    assert given.to_json_dict() == own.to_json_dict()
    with pytest.raises(ValueError):
        rearrangement_compare(case, 41, rearr=R, spectrum=own.spectrum)
    with pytest.raises(ValueError):
        rearrangement_compare(case, 40, rearr=R, spectrum=case.singular_spectrum(40))


def test_weyl_compare_reuses_a_given_spectrum():
    case = get_case("fd_t2", "xexp")
    samples = symbol_samples(case.predicted_symbol, quad_res=40)
    full = _oracle_samples(case.predicted_symbol, 40, absolute=False)
    assert samples.default_suite() == default_suite(
        inflate(float(full.min()), float(full.max())))
    own = weyl_compare(case, 30, quad_res=40, samples=samples)
    given = weyl_compare(case, 30, quad_res=40, samples=samples, spectrum=own.spectrum)
    assert given.to_json_dict() == own.to_json_dict()
    sigma = symbol_samples(case.predicted_symbol, "sigma", quad_res=40)
    singular = case.singular_spectrum(30)
    assert weyl_compare(case, 30, mode="sigma", quad_res=40, samples=sigma,
                        spectrum=singular).spectrum is singular
    with pytest.raises(ValueError, match="expected the 31 eigenvalues"):
        weyl_compare(case, 31, quad_res=40, samples=samples, spectrum=own.spectrum)
    with pytest.raises(ValueError, match="expected the 30 eigenvalues"):
        weyl_compare(case, 30, quad_res=40, samples=samples, spectrum=singular)
    with pytest.raises(ValueError, match="expected the 30 singular values"):
        weyl_compare(case, 30, mode="sigma", quad_res=40, samples=sigma, spectrum=own.spectrum)


def test_rearrangement_overlay_shape():
    rep = rearrangement_compare(fd_diffusion(XEXP), 25, r=500)
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
    for F in default_suite((0.0, 4 / math.e)):
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
    case = get_case(spec, "xexp")
    samples = symbol_samples(case.predicted_symbol, mode, quad_res=60)
    for n in (20, 40):
        fresh = weyl_compare(case, n, mode=mode, quad_res=60)
        reused = weyl_compare(case, n, mode=mode, quad_res=60, samples=samples)
        assert reused.functionals == fresh.functionals
        assert reused.quad_refinement == fresh.quad_refinement
        assert (reused.quad_rule, reused.quad_res) == (fresh.quad_rule, fresh.quad_res)


def test_weyl_symbol_side_is_computed_once_per_test_function(monkeypatch):
    """symbol_samples ranges each grid in one pass; the symbol sides of a
    whole suite then take one more pass per grid, shared by every n."""
    passes = []
    blocks = analysis._grid_blocks

    def counted_blocks(kappa, axes, absolute=False, step=None):
        passes.append((axes[0].size, step is not None))
        return blocks(kappa, axes, absolute, step)

    monkeypatch.setattr(analysis, "_grid_blocks", counted_blocks)
    case = get_case("fd_t1", "xexp")
    samples = symbol_samples(case.predicted_symbol, "lambda", quad_res=40)
    assert passes == [(80, False), (40, False)]  # Gauss rule: two nodes per panel
    F = monomial(2, (0.0, 5.0))
    sizes = []

    def counted(t):
        sizes.append(np.size(t))
        return F(t)

    counted.label = F.label
    suite = samples.default_suite() + [counted]
    reports = [weyl_compare(case, n, F_suite=suite, quad_res=40, samples=samples)
               for n in (20, 40)]
    assert passes[2:] == [(80, True), (40, True)]
    # the full and coarse values once, in chunks of min(2^17, N/16) values
    # so that F never sees them at full size, then the spectra at n = 20 and 40
    assert sizes[-2:] == [20, 40]
    chunks = sizes[:-2]
    assert sum(chunks) == samples.full.count + samples.coarse.count
    assert max(chunks) == min(1 << 17, samples.full.count // 16) < samples.coarse.count
    full = _oracle_samples(case.predicted_symbol, 40, absolute=False)
    coarse = _oracle_samples(case.predicted_symbol, 20, absolute=False)
    sym = _oracle_mean(F, full)
    refinement = max(abs(_oracle_mean(G, full) - _oracle_mean(G, coarse)) for G in suite)
    for rep in reports:
        assert rep.functionals[-1].symbol_value == sym
        assert rep.quad_refinement == refinement
    assert ([g.symbol_value for g in reports[0].functionals]
            == [g.symbol_value for g in reports[1].functionals])


def test_weyl_rejects_samples_taken_for_other_settings():
    case = get_case("fd_t1", "xexp")
    samples = symbol_samples(case.predicted_symbol, "lambda", quad_res=60)
    for kwargs in ({"mode": "sigma", "quad_res": 60}, {"quad_res": 80}):
        with pytest.raises(ValueError, match="symbol samples"):
            weyl_compare(case, 20, samples=samples, **kwargs)


def _built_twice(specs):
    """Two separate get_case builds of each spec, with each coefficient of
    "one" and "xexp": their symbols are equal but not the same object."""
    for spec in specs:
        for coeff in ("one", "xexp"):
            case, again = get_case(spec, coeff), get_case(spec, coeff)
            assert again.predicted_symbol is not case.predicted_symbol
            yield case, again


def test_weyl_rejects_samples_of_another_symbol():
    case = get_case("fd_t1", "xexp")
    other = symbol_samples(get_case("fd_t5", "one").predicted_symbol, quad_res=60)
    with pytest.raises(ValueError, match="symbol samples were taken of .* case fd_t1 predicts"):
        weyl_compare(case, 40, quad_res=60, samples=other)
    # the same symbol from another get_case call is the same symbol
    own = symbol_samples(get_case("fd_t1", "xexp").predicted_symbol, quad_res=60)
    assert own.kappa is not case.predicted_symbol
    assert weyl_compare(case, 40, quad_res=60, samples=own).max_gap() < 0.01
    for case, again in _built_twice(case_names() + ["fd_t7:q=0.5"]):
        own = symbol_samples(again.predicted_symbol, "sigma", quad_res=40)
        weyl_compare(case, 20, mode="sigma", quad_res=40, samples=own)


def test_rearrangement_compare_rejects_a_rearrangement_of_another_symbol():
    case = get_case("fd_t1", "xexp")
    ts = rearrangement_nodes([40])
    other = monotone_rearrangement(get_case("Ln", "xexp").predicted_symbol, 300, ts)
    with pytest.raises(ValueError, match="the rearrangement was built of .* case fd_t1 predicts"):
        rearrangement_compare(case, 40, rearr=other)
    # the same symbol from another get_case call is the same symbol
    own = monotone_rearrangement(get_case("fd_t1", "xexp").predicted_symbol, 300, ts)
    assert own.kappa is not case.predicted_symbol
    assert rearrangement_compare(case, 40, rearr=own).rearrangement_gap < 0.05
    # fd_t7's default grid map makes its symbol unbounded; q = 1 and 0.5 keep it bounded
    for case, again in _built_twice(case_names() + ["fd_t7:q=1", "fd_t7:q=0.5"]):
        if case.predicted_symbol.bounded:
            own = monotone_rearrangement(again.predicted_symbol, 300, ts)
            rearrangement_compare(case, 40, rearr=own)


def _assert_symbol_checks_refuse(built, other):
    """Rearrangement and Weyl samples of ``built``'s symbol are refused for
    ``other``, whose symbol prints the same but has other coefficients."""
    assert str(built.predicted_symbol) == str(other.predicted_symbol)
    assert not analysis._same_symbol(built.predicted_symbol, other.predicted_symbol)
    if built.predicted_symbol.bounded:  # no rearrangement of an unbounded symbol
        rearr = monotone_rearrangement(built.predicted_symbol, 300, rearrangement_nodes([40]))
        with pytest.raises(ValueError, match="the rearrangement was built of .* with other coefficient functions$"):
            rearrangement_compare(other, 40, rearr=rearr)
    samples = symbol_samples(built.predicted_symbol, quad_res=60)
    with pytest.raises(ValueError, match="symbol samples were taken of .* with other coefficient functions$"):
        weyl_compare(other, 40, quad_res=60, samples=samples)


def test_symbol_checks_refuse_another_function_of_the_same_name():
    impostor = Coefficient("xexp", lambda x: 2 * x * np.exp(-x))
    _assert_symbol_checks_refuse(get_case("fd_t1", "xexp"), fd_diffusion(impostor))


@pytest.mark.parametrize("coeff", ["xexp", "one", "x"])
@pytest.mark.parametrize("name", case_names())
def test_a_second_build_of_every_registry_symbol_matches_it(name, coeff):
    """A second build of a registry symbol matches it node by node, trig
    leaves included, with the same flags; a coefficient that declares the
    same name and metadata as the preset but is another function does not."""
    a = coefficient_preset(coeff)
    built, again = get_case(name, a), get_case(name, a)
    assert analysis._same_symbol(built.predicted_symbol, again.predicted_symbol)
    flags = ("is_real", "has_quotient", "reads_x", "bounded")
    assert [getattr(built.predicted_symbol, f) for f in flags] == \
        [getattr(again.predicted_symbol, f) for f in flags]
    impostor = dataclasses.replace(a, fn=lambda x: 2 * a(x))
    _assert_symbol_checks_refuse(built, get_case(name, impostor))


def test_symbol_checks_refuse_another_table_of_the_default_name():
    tables = [Coefficient.from_table([0.0, 1.0], values) for values in ([1.0, 2.0], [30.0, 1.0])]
    assert tables[0].name == tables[1].name == "table"
    _assert_symbol_checks_refuse(*map(fd_diffusion, tables))


def test_symbol_checks_accept_a_table_read_twice(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("x,value\n0.0,1.0\n0.5,2.5\n1.0,0.5\n")
    case, again = (get_case(spec, f"csv:{path}") for spec in ("fd_t1", "fd_t1"))
    assert again.predicted_symbol is not case.predicted_symbol
    # neither check refuses the other build's rearrangement or samples
    rearr = monotone_rearrangement(again.predicted_symbol, 300, rearrangement_nodes([40]))
    rearrangement_compare(case, 40, rearr=rearr)
    weyl_compare(case, 40, quad_res=60, samples=symbol_samples(again.predicted_symbol, quad_res=60))
    # the same knots given as lists make an equal function (under another name)
    same_knots = Coefficient.from_table([0.0, 0.5, 1.0], [1.0, 2.5, 0.5])
    read = case.predicted_symbol.children[0].coefficient
    assert same_knots.fn == read.fn and same_knots != read
