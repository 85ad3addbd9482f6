"""Tests for the finite-n proof-inequality certificates."""

import numpy as np
import pytest

import gltkit.linalg as linalg
from gltkit import (
    LAPLACE_SYMBOL,
    as_dense,
    arrow_sampling,
    certificate_families,
    coefficient_preset,
    diag_sampling,
    fd_cdr_dirichlet,
    run_all_certificates,
    run_certificates,
    toeplitz,
    uniform_grid,
    zero_distribution_check,
)
from gltkit.certificates import (_family_fd_t7, _family_fe_t1, truncated_tail_l1,
                                 _tail_element_integrals)


def test_every_family_passes_on_small_grid():
    results = run_all_certificates(ns=(50, 100, 200), ms=(2, 4, 8))
    for family, checks in results.items():
        assert checks, f"family {family} produced no checks"
        bad = [c for c in checks if not c.ok]
        assert not bad, f"violated: {[c.line() for c in bad]}"


def test_hadamard_bound_constant_coefficient_is_tight_zero():
    # constant a makes the arrow-shaped and diagonal sampling products equal
    n = 40
    a = coefficient_preset("one")
    g = uniform_grid(n)
    T = as_dense(toeplitz(LAPLACE_SYMBOL, n))
    S = arrow_sampling(a, g)
    D = as_dense(diag_sampling(a, g))
    assert np.linalg.norm(S * T - D @ T, "fro") == 0.0


def test_hadamard_family_includes_degree_three_polynomial():
    labels = {c.label for c in run_certificates("thm2", ns=(50,), ms=(2,))}
    assert any("2-2cos3" in lab for lab in labels)


def test_fd_t4_family_exact_linear_modulus():
    checks = [c for c in run_certificates("fd_t4", ns=(200,), ms=(2,)) if "a=x" in c.label]
    assert checks and all(c.ok for c in checks)
    n, h = 200, 1.0 / 201
    assert checks[0].rhs == pytest.approx((n - 1) * h * h, rel=1e-12)


def test_fe_t1_spec_point():
    checks = run_certificates("fe_t1", ns=(64,), ms=(8,))
    assert len(checks) == 1 and checks[0].ok
    # comfortable but not vacuous margin
    assert checks[0].lhs > 0.1 * checks[0].rhs


def test_truncated_tail_l1_matches_quadrature_oracle():
    for m in (2, 4, 8):
        radius = float(m) ** -4
        count = 2_000_000  # even, so no midpoint lands on the singularity
        x = 0.5 - radius + (np.arange(count) + 0.5) * (2 * radius / count)
        vals = np.abs(x - 0.5) ** -0.25 - m
        numeric = float(np.mean(np.clip(vals, 0, None)) * 2 * radius)
        assert truncated_tail_l1(m) == pytest.approx(numeric, rel=1e-3)


def test_tail_element_integrals_sum_to_l1_norm():
    for n, m in ((64, 8), (200, 4)):
        I = _tail_element_integrals(n, m)
        assert I.sum() == pytest.approx(truncated_tail_l1(m), rel=1e-12)
        assert np.all(I >= -1e-15)


_OFF_BALL = "off-ball residual bound (fd_t7) needs m <= n,"


def test_fd_t7_refuses_an_m_whose_off_ball_bound_does_not_apply():
    # the residual bound divides by min G' off the balls minus omega_G'(h);
    # the pair was dropped without a word, the other checks still printed
    with pytest.raises(ValueError) as exc:
        run_certificates("fd_t7", ns=(4,), ms=(2, 8))
    assert str(exc.value) == f"{_OFF_BALL} got n = 4, m = 8"
    checks = run_certificates("fd_t7", ns=(4,), ms=(2, 4))
    assert sum(c.label.startswith("off-ball") for c in checks) == 4 and all(c.ok for c in checks)


def test_fd_t7_refuses_exactly_the_pairs_with_m_above_n():
    """The refusal makes the comparison the check divides by, 2h >= min G'
    off the balls, and that holds exactly when m > n.  An m that passes
    leaves the refusal to the sentinel m after it."""
    sentinel = 10 ** 6
    wrong = []
    for n in range(2, 400):
        for m in range(1, 402):
            try:
                _family_fd_t7((n,), (m, sentinel))
            except ValueError as exc:
                if str(exc) != f"{_OFF_BALL} got n = {n}, m = {m if m > n else sentinel}":
                    wrong.append((n, m, str(exc)))
            else:
                wrong.append((n, m, "no refusal"))
    assert not wrong, wrong[:5]


def test_fe_t1_refuses_exactly_the_m_below_2():
    """The closed form (2/3) m^-3 of the truncated tail needs the ball
    |x - 1/2| < m^-4 inside [0, 1], m^-4 < 1/2, which for an integer m is
    m >= 2.  The family refuses such an m before any check, wherever it
    stands in the list; truncated_tail_l1 names m and its condition."""
    wrong = []
    for m in range(1, 401):
        if (float(m) ** -4 < 0.5) != (m >= 2):
            wrong.append((m, "condition"))
        try:
            checks = _family_fe_t1((4,), (2, m))
        except ValueError as exc:
            if m >= 2 or str(exc) != ("stiffness truncation trace-norm bound (fe_t1) needs "
                                      "m >= 2, got m = 1"):
                wrong.append((m, str(exc)))
        else:
            if m < 2 or len(checks) != 2:
                wrong.append((m, len(checks)))
    assert not wrong, wrong[:5]
    with pytest.raises(ValueError) as exc:
        truncated_tail_l1(1)
    assert str(exc.value) == "the closed form of the truncated tail needs m^-4 < 1/2, got m = 1"


def test_unknown_family_rejected():
    with pytest.raises(KeyError):
        run_certificates("nonsense")


def test_check_line_format():
    check = run_certificates("fd_t4", ns=(50,), ms=(2,))[0]
    line = check.line()
    assert line.startswith("[PASS]") and "lhs=" in line and "rhs=" in line


def test_families_listing():
    fams = certificate_families()
    for expected in ("thm2", "fd_t2", "fd_t3", "fd_t4", "fd_t5", "fd_t7", "fe_t1"):
        assert expected in fams


def test_hadamard_is_not_a_family_name():
    # the thm2 checks keep their "hadamard" label, but the alias is gone
    assert "hadamard" not in certificate_families()
    with pytest.raises(KeyError):
        run_certificates("hadamard", ns=(50,))
    assert {c.family for c in run_certificates("thm2", ns=(50,), ms=(2,))} == {"hadamard"}


def test_certificates_and_p2_trend_run_no_svd(monkeypatch):
    calls = []
    original = linalg.singular_values
    monkeypatch.setattr(linalg, "singular_values", lambda A: calls.append(A) or original(A))
    results = run_all_certificates()
    assert all(c.ok for checks in results.values() for c in checks)
    case = fd_cdr_dirichlet(coefficient_preset("one"), coefficient_preset("one"),
                            coefficient_preset("one"))
    assert zero_distribution_check(case.companions["Z"], (50, 100, 200), p=2).overall_pass
    assert calls == []


def test_certificates_densify_no_matrix(monkeypatch):
    import gltkit.builders as builders

    calls = []
    original = linalg.as_dense
    for module in (linalg, builders):  # builders holds as_dense only if it imports it
        monkeypatch.setattr(module, "as_dense", lambda A: calls.append(A) or original(A),
                            raising=False)
    run_all_certificates(ns=(50, 100), ms=(2, 4))
    assert calls == []
