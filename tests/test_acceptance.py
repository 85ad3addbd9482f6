"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE k [PASS|FAIL]` line (visible with -s or in
failure output).  Expected values marked as published references come from
the benchmark table the diffusion case reproduces; derived values are
computed from closed forms stated inline.
"""
import math
import time

import numpy as np

from gltkit import (
    LAPLACE_SYMBOL,
    UnboundedSymbolError,
    coefficient_preset,
    empirical_functional,
    fd_cdr_dirichlet,
    fd_cdr_neumann,
    fd_diffusion,
    fd_nondiv,
    fe_mass,
    fe_stiffness,
    generalized_sym_eigvals,
    get_case,
    hat,
    monomial,
    monotone_rearrangement,
    rearrangement_compare,
    rearrangement_nodes,
    run_all_certificates,
    spectral_norm,
    sym_eigvals,
    toeplitz,
    weyl_compare,
    zero_distribution_check,
)
from gltkit.linalg import as_dense
from gltkit.cli import TABLE2_REFERENCE

ONE = coefficient_preset("one")
XEXP = coefficient_preset("xexp")

#: gaps at floating-point zero make "halved gap" comparisons meaningless;
#: anything below this floor counts as converged
GAP_FLOOR = 1e-9


def _report(k, ok, detail):
    print(f"ACCEPTANCE {k} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_1_rearrangement_benchmark_table():
    """Benchmark table: sup-norm gaps for a = x e^{-x}, r = 5000, within
    max(5e-4, 5% relative) per row; total runtime under two minutes."""
    t0 = time.time()
    case = fd_diffusion(XEXP)
    rearr = monotone_rearrangement(case.predicted_symbol, 5000,
                                   ts=rearrangement_nodes(TABLE2_REFERENCE))
    rows, ok = [], True
    for n, ref in sorted(TABLE2_REFERENCE.items()):
        gap = rearrangement_compare(case, n, rearr=rearr).rearrangement_gap
        good = abs(gap - ref) <= max(5e-4, 0.05 * ref)
        rows.append(f"n={n}: {gap:.4f} vs {ref}")
        ok &= good
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    _report(1, ok, "; ".join(rows) + f" ({elapsed:.1f}s)")
    assert ok


def test_criterion_2_exact_analytic_spectra():
    """Tridiagonal Toeplitz eigenvalues to 1e-10 and the constant-coefficient
    stiffness/mass pencil to 1e-8 (shared sine eigenvectors oracle)."""
    worst_t = 0.0
    for n in (8, 100, 1000):
        ev = sym_eigvals(toeplitz(LAPLACE_SYMBOL, n)).values
        ref = np.sort(2 - 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        worst_t = max(worst_t, float(np.max(np.abs(ev - ref))))
    worst_p = 0.0
    for n in (50, 200):
        K, M = fe_stiffness(ONE, n), fe_mass(ONE, n)
        ev = generalized_sym_eigvals(K, M).values / (n + 1) ** 2
        th = np.arange(1, n + 1) * np.pi / (n + 1)
        ref = np.sort((6 - 6 * np.cos(th)) / (2 + np.cos(th)))
        worst_p = max(worst_p, float(np.max(np.abs(ev - ref))))
    ok = worst_t < 1e-10 and worst_p < 1e-8
    _report(2, ok, f"toeplitz err {worst_t:.2e} (tol 1e-10), pencil err {worst_p:.2e} (tol 1e-8)")
    assert ok


def test_criterion_3_weyl_convergence_suite():
    """For each registered real-spectrum case with smooth presets, every
    normalized test-functional gap at n=800 is at most half the n=100 gap
    and at most 0.02 absolute, at quadrature resolution 400."""
    t0 = time.time()
    cases = [
        ("fd_t1", fd_diffusion(XEXP)),
        ("fd_t6", get_case("fd_t6", "xexp")),
        ("fe_t1", get_case("fe_t1", "xexp")),
        ("schur", get_case("schur", "one")),
        ("Ln", get_case("Ln", "xexp")),
    ]
    ok = True
    details = []
    for name, case in cases:
        r100 = weyl_compare(case, 100, quad_res=400)
        r800 = weyl_compare(case, 800, quad_res=400)
        for g1, g8 in zip(r100.functionals, r800.functionals):
            halved = g8.gap <= max(0.5 * g1.gap, GAP_FLOOR)
            small = g8.gap <= 0.02
            ok &= halved and small
        details.append(f"{name}: max gap {r800.max_gap():.2e}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report(3, ok, "; ".join(details) + f" ({elapsed:.1f}s)")
    assert ok


def test_criterion_4_closed_form_functionals():
    """First moment of the x e^{-x} diffusion case reaches
    2 integral(x e^{-x}) = 2(1 - 2/e) within 5e-3 at n=1000; the constant
    case's second moment is (6n-2)/n exactly against symbol integral 6."""
    wide1 = monomial(1, (-1e9, 1e9))
    wide2 = monomial(2, (-1e9, 1e9))
    case = fd_diffusion(XEXP)
    emp = empirical_functional(case.spectrum(1000), wide1)
    target = 2 * (1 - 2 / math.e)
    ok = abs(emp - target) <= 5e-3

    n = 1000
    case1 = fd_diffusion(ONE)
    emp2 = empirical_functional(case1.spectrum(n), wide2)
    ok &= abs(emp2 - (6 * n - 2) / n) <= 1e-9
    sym2 = weyl_compare(case1, 10, F_suite=[wide2], quad_res=400).functionals[0].symbol_value
    ok &= abs(sym2 - 6.0) <= 1e-6
    _report(4, ok, f"mean {emp:.6f} vs {target:.6f}; second moment {emp2:.12f} vs {(6*n-2)/n}; "
                   f"symbol integral {sym2:.8f} vs 6")
    assert ok


def test_criterion_5_proof_inequality_certificates():
    """Every registered proof inequality holds at every point of the default
    (n, m) grid (n up to 500).  Any violation fails the build."""
    results = run_all_certificates()
    bad = [c.line() for checks in results.values() for c in checks if not c.ok]
    total = sum(len(v) for v in results.values())
    ok = not bad
    _report(5, ok, f"{total} inequalities over {sorted(results)}"
            + ("" if ok else f"; violated: {bad}"))
    assert ok


def test_criterion_6_nonsymmetric_spectral_reality():
    """Non-divergence-form matrices with b = c = 1: numerically real spectra
    and scale-free rearrangement gap at n=200 at most 0.05.

    The sup-norm gap is normalized by the essential-range magnitude: the raw
    gap is dominated by the slow O(n^(-2/3)) approach of the extreme
    eigenvalue to the essential supremum (present even for the symmetric
    divergence-form matrix whenever the coefficient has a nonzero slope at
    its maximizer), so 0.05 is only meaningful as a relative quantity."""
    ok = True
    details = []
    n = 200
    for name in ("1+x", "expx"):
        case = fd_nondiv(coefficient_preset(name), ONE, ONE)
        E = as_dense(case.build(n))
        ev = np.linalg.eigvals(E)
        imag_ok = np.max(np.abs(ev.imag)) <= 1e-7 * spectral_norm(E)
        rep = rearrangement_compare(case, n, r=3000)
        gap_ok = rep.rearrangement_gap_rel <= 0.05
        ok &= imag_ok and gap_ok
        details.append(f"a={name}: max|Im|={np.max(np.abs(ev.imag)):.1e}, "
                       f"rel gap {rep.rearrangement_gap_rel:.4f}")
    _report(6, ok, "; ".join(details))
    assert ok


def test_criterion_7_nonuniform_grid_sigma_mode():
    """Mapped grid G(x) = x^2 with unit coefficient: hat-functional gaps on
    the window [0, 20] decay by at least 1.5x from n=200 to n=800, and the
    rearrangement comparison refuses the unbounded symbol."""
    case = get_case("fd_t7:q=2", "one")
    hats = [hat(c, 2.0) for c in range(1, 20, 2)]
    g200 = weyl_compare(case, 200, F_suite=hats, mode="sigma", quad_res=400).max_gap()
    g800 = weyl_compare(case, 800, F_suite=hats, mode="sigma", quad_res=400).max_gap()
    decay_ok = g800 * 1.5 <= g200
    refused = False
    try:
        rearrangement_compare(case, 100)
    except UnboundedSymbolError:
        refused = True
    ok = decay_ok and refused
    _report(7, ok, f"max hat gap {g200:.2e} -> {g800:.2e} (ratio {g200 / g800:.2f}), "
                   f"refusal={'yes' if refused else 'NO'}")
    assert ok


def test_criterion_8_zero_distribution_diagnostics():
    """Lower-order corrections pass the p=2 Schatten trend over
    n in {100,...,1600}; the identity sequence fails it."""
    ns = (100, 200, 400, 800, 1600)
    case2 = fd_cdr_dirichlet(ONE, ONE, ONE)
    rep_z = zero_distribution_check(lambda n: case2.companions["Z"](n), ns, p=2)

    case3 = fd_cdr_neumann(ONE, ONE, ONE)
    rep_zr = zero_distribution_check(
        lambda n: as_dense(case3.companions["Z"](n)) + as_dense(case3.companions["R"](n)),
        ns, p=2)

    rep_id = zero_distribution_check(lambda n: np.eye(n), ns, p=2)
    ok = rep_z.overall_pass and rep_zr.overall_pass and not rep_id.overall_pass
    _report(8, ok, f"Z ratios {[f'{r:.2e}' for r in rep_z.ratios]} PASS={rep_z.overall_pass}; "
                   f"Z+R PASS={rep_zr.overall_pass}; identity PASS={rep_id.overall_pass}")
    assert ok
