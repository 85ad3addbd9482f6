"""End-to-end tests of the command-line interface."""
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import gltkit.cli as cli
from gltkit import (
    Coefficient,
    ComplexSpectrumError,
    SymbolSingularityError,
    UnboundedSymbolError,
    coefficient_preset,
    fd_cdr_dirichlet,
    get_case,
    monotone_rearrangement,
    rearrangement_compare,
    rearrangement_nodes,
    weyl_compare,
)
from gltkit.builders import DiscretizationCase, case_names
from gltkit.cli import main, TABLE2_REFERENCE
from gltkit.symbols import COEFFICIENT_PRESETS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    threads = threading.active_count()
    code = main(list(argv))
    assert threading.active_count() == threads  # no solver thread outlives main
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_contains_registry_entries(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    rows = [line.split(" | ") for line in out.splitlines()]
    assert [row[0] for row in rows] == case_names() and {len(row) for row in rows} == {4}
    for name, symbol, alpha, _ in rows:  # the symbol and alpha columns come from the case
        case = get_case(name)
        assert symbol == str(case.predicted_symbol) and alpha == f"alpha={case.alpha_text}"
    assert "fd_t1 | (xexp(x)) * (2-2cos(theta)) | alpha=1" in out


def test_spectrum_small_laplacian(capsys, tmp_path):
    path = tmp_path / "spec.csv"
    code, _, _ = run_cli(capsys, "spectrum", "--case", "fd_t1", "--coeff", "one",
                         "--n", "4", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,index,value"
    values = sorted(float(line.split(",")[2]) for line in lines[1:])
    ref = sorted(2 - 2 * np.cos(np.arange(1, 5) * np.pi / 5))
    assert np.allclose(values, ref, atol=1e-12)


def test_spectrum_two_blocks(capsys, tmp_path):
    path = tmp_path / "spec.csv"
    code, _, _ = run_cli(capsys, "spectrum", "--case", "fd_t1", "--coeff", "xexp",
                         "--n", "50,100", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()[1:]
    assert len(lines) == 150
    assert sum(1 for line in lines if line.startswith("50,")) == 50


def test_unknown_case_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--case", "fd_t99", "--n", "4")
    assert code == 2
    assert "unknown case" in err


@pytest.mark.parametrize("argv,message", [
    (("spectrum", "--case", "fd_t1", "--coeff", "nosuch", "--n", "3"),
     "unknown coefficient 'nosuch'; presets: ['1+x', 'expx', 'one', 'x', 'xexp', 'zero'] "
     "or csv:PATH"),
    (("spectrum", "--case", "nosuch"),
     "unknown case 'nosuch'; known cases: Ln, fd_t1, fd_t2, fd_t3, fd_t4, fd_t5, fd_t6, "
     "fd_t7, fe_mass, fe_t1, schur"),
    (("certify", "--family", "nosuch"),
     "unknown certificate family 'nosuch'; known: fd_t2, fd_t3, fd_t4, fd_t5, fd_t7, "
     "fe_t1, thm2"),
])
def test_unknown_name_is_one_unquoted_error_line(capsys, argv, message):
    # a KeyError's message is printed as it is, not quoted as str() of it would be
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_compare_writes_report_and_overlay(capsys, tmp_path):
    path = tmp_path / "cmp.json"
    code, _, _ = run_cli(capsys, "compare", "--case", "fd_t1", "--coeff", "xexp",
                         "--n", "50", "--r", "1000", "--quad-res", "100",
                         "--format", "json", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    rep = doc["reports"][0]
    for key in ("case", "n", "alpha_n", "functionals", "rearrangement_gap", "outliers"):
        assert key in rep
    assert rep["rearrangement_gap"] == pytest.approx(0.0327, abs=2e-3)
    overlay = (tmp_path / "cmp_overlay.csv").read_text().strip().splitlines()
    assert overlay[0] == "n,t,rearrangement,eigenvalue"
    assert len(overlay) == 51


def test_compare_overlay_csv_lists_every_rearrangement_point(capsys, tmp_path):
    """The overlay file next to --out holds, for each n, the (t, rearranged
    symbol, eigenvalue) triples of the rearrangement comparison, each float
    written with 17 significant digits (the format of the csv reports)."""
    path = tmp_path / "ln.csv"
    code, _, _ = run_cli(capsys, "compare", "--case", "Ln", "--coeff", "xexp",
                         "--n", "20,50", "--r", "300", "--quad-res", "60", "--out", str(path))
    assert code == 0
    case = get_case("Ln", "xexp")
    rearr = monotone_rearrangement(case.predicted_symbol, 300, rearrangement_nodes([20, 50]))
    lines = ["n,t,rearrangement,eigenvalue"]
    for n in (20, 50):
        t, s, e = rearrangement_compare(case, n, r=300, rearr=rearr).overlay
        lines += [f"{n},{ti:.17g},{si:.17g},{ei:.17g}" for ti, si, ei in zip(t, s, e)]
    assert (tmp_path / "ln_overlay.csv").read_text() == "\n".join(lines) + "\n"


def test_compare_schur_runs(capsys, tmp_path):
    path = tmp_path / "schur.json"
    code, _, _ = run_cli(capsys, "compare", "--case", "schur:rho=0", "--coeff", "one",
                         "--n", "40", "--r", "400", "--quad-res", "100",
                         "--format", "json", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["reports"][0]["case"] == "schur"


def test_compare_unbounded_symbol_records_refusal(capsys, tmp_path):
    path = tmp_path / "t7.json"
    code, _, _ = run_cli(capsys, "compare", "--case", "fd_t7:q=2", "--coeff", "one",
                         "--n", "40", "--quad-res", "100", "--mode", "sigma",
                         "--format", "json", "--out", str(path))
    assert code == 0
    rep = json.loads(path.read_text())["reports"][0]
    assert "rearrangement_error" in rep


def test_compare_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "compare", "--case", "fe_t1", "--coeff", "xexp",
                             "--n", "30", "--r", "200", "--quad-res", "80",
                             "--format", "json", "--out", str(path))
        assert code == 0
    assert a.read_text() == b.read_text()


def test_compare_solves_each_spectrum_once(capsys, tmp_path, monkeypatch):
    calls = []
    original = DiscretizationCase.spectrum
    monkeypatch.setattr(DiscretizationCase, "spectrum",
                        lambda self, n: calls.append(n) or original(self, n))
    path = tmp_path / "t2.json"
    code, _, _ = run_cli(capsys, "compare", "--case", "fd_t2", "--coeff", "xexp",
                         "--n", "30,60", "--r", "200", "--quad-res", "80",
                         "--format", "json", "--out", str(path))
    assert code == 0
    assert calls == [30, 60]
    reports = json.loads(path.read_text())["reports"]
    assert [r["solver"] for r in reports] == ["similarity_tridiagonal"] * 2


def test_compare_reports_the_band_pencil_solver(capsys):
    code, out, _ = run_cli(capsys, "compare", "--case", "Ln", "--coeff", "xexp",
                           "--n", "50", "--format", "json")
    assert code == 0
    assert [r["solver"] for r in json.loads(out)["reports"]] == ["pencil_band"]


def test_compare_reports_the_schur_pencil_solver(capsys):
    # rho = -1 with a = 1: every eigenvalue of the Schur complement is negative
    code, out, _ = run_cli(capsys, "compare", "--case", "schur:rho=-1", "--coeff", "one",
                           "--n", "50", "--r", "100", "--format", "json")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert (rep["solver"], rep["backing"]) == ("pencil_rank_one", "lambda distribution (Hermitian)")
    assert "rearrangement_error" not in rep


@pytest.mark.parametrize("command", ["compare", "spectrum"])
def test_schur_with_a_zero_coefficient_is_usage_error(capsys, command):
    # compare stops at the singular symbol, spectrum at the element integrals
    # of a, which the schur build needs positive
    code, out, err = run_cli(capsys, command, "--case", "schur", "--coeff", "zero", "--n", "10")
    assert code == 2 and not out
    assert err.startswith("error:")
    if command == "spectrum":
        assert "that of 'zero' over element 0 of n = 10 is 0.000e+00" in err


def test_symbol_singular_at_every_grid_point_is_usage_error(capsys):
    # c = 0 zeroes the denominator c(x)(2+cos) of the pencil symbol everywhere
    code, out, err = run_cli(capsys, "compare", "--case", "Ln:c=zero", "--n", "10", "--r", "20")
    assert code == 2 and not out
    assert err == "error: the symbol is singular at every grid point\n"


@pytest.mark.parametrize("table", ["missing.csv", "adir"])
def test_unreadable_coefficient_table_is_usage_error(capsys, tmp_path, monkeypatch, table):
    # a table that does not exist, and a directory in place of one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    code, out, err = run_cli(capsys, "spectrum", "--case", "fd_t1", "--coeff", f"csv:{table}",
                             "--n", "4")
    assert code == 2 and not out
    assert err.startswith("error:") and err.count("\n") == 1 and table in err


@pytest.mark.parametrize("command", ["spectrum", "compare", "table2", "certify"])
@pytest.mark.parametrize("target", ["adir", "nodir/out.csv"])
def test_unwritable_out_is_usage_error_and_leaves_no_temp_file(capsys, tmp_path, monkeypatch,
                                                               command, target):
    # a directory in the way of the file, and a directory that does not exist
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    args = {"spectrum": ["--case", "fd_t1", "--n", "4"],
            "compare": ["--case", "fd_t1", "--n", "4", "--r", "20", "--quad-res", "20"],
            "table2": ["--r", "20"],
            "certify": ["--family", "thm2", "--n", "50"]}[command]
    code, _, err = run_cli(capsys, command, *args, "--out", target)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert not any((tmp_path / "adir").iterdir())


def test_certify_pass_and_unknown_family(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "thm2", "--n", "50,100")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out

    code, _, err = run_cli(capsys, "certify", "--family", "bogus")
    assert code == 2
    assert "unknown certificate family" in err


def test_certify_fd_t4(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "fd_t4", "--n", "50,100")
    assert code == 0
    assert out.count("[PASS]") == 4


def test_table2_benchmark(capsys, tmp_path):
    path = tmp_path / "t2.csv"
    code, out, _ = run_cli(capsys, "table2", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(TABLE2_REFERENCE) + 1
    for line in lines[1:]:
        n, computed, reference, ok = line.split(",")
        assert ok == "yes"
        assert abs(float(computed) - float(reference)) <= max(5e-4, 0.05 * float(reference))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table2_format_without_out_prints_the_document(capsys, tmp_path, fmt):
    path = tmp_path / f"t2.{fmt}"
    code, table, _ = run_cli(capsys, "table2", "--r", "500", "--format", fmt, "--out", str(path))
    assert run_cli(capsys, "table2", "--r", "500", "--format", fmt) == (code, path.read_text(), "")
    # bare table2 prints the aligned table alone, as it does next to --out
    assert run_cli(capsys, "table2", "--r", "500") == (code, table, "")
    assert table.splitlines()[0].split() == ["n", "computed", "reference", "within", "tol"]
    if fmt == "json":
        assert [row["n"] for row in json.loads(path.read_text())] == sorted(TABLE2_REFERENCE)


def test_zero_coefficient_preset(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--case", "fd_t1", "--coeff", "zero", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,index,value"
    assert [float(line.split(",")[2]) for line in lines[1:]] == [0.0] * 5


@pytest.mark.parametrize("spec", ["fd_t1:bogus=1", "fd_t7:qq=3", "fe_t1:quad=5",
                                  "fe_mass:quad=5", "schur:quad=5", "Ln:quad=5"])
def test_unknown_case_parameter_is_usage_error(capsys, spec):
    code, out, err = run_cli(capsys, "spectrum", "--case", spec, "--n", "5")
    assert code == 2
    assert "does not accept" in err and "accepted:" in err and not out


@pytest.mark.parametrize("spec,message", [
    ("fd_t2:b=one,b=x", "case parameter 'b' given twice"),
    ("fd_t7:q=nan", "power map needs a finite q > 0, got q=nan"),
    ("fd_t7:q=inf", "power map needs a finite q > 0, got q=inf"),
    ("fd_t7:q=-inf", "power map needs a finite q > 0, got q=-inf"),
    ("schur:rho=nan", "schur needs a finite rho, got rho=nan"),
    ("schur:rho=inf", "schur needs a finite rho, got rho=inf"),
    ("schur:rho=-inf", "schur needs a finite rho, got rho=-inf"),
    # a value that is not a number, and an item without a key
    ("fd_t7:q=abc", "case parameter 'q' of 'fd_t7' must be a number, got 'abc'"),
    ("schur: rho = 2x ", "case parameter 'rho' of 'schur' must be a number, got '2x'"),
    ("fd_t2:=x", "malformed case parameter '=x'"),
    ("fd_t2:b=one, =x", "malformed case parameter ' =x'"),
    ("fd_t2:", "malformed case parameter ''"),
])
def test_repeated_or_non_finite_case_parameter_is_usage_error(capsys, spec, message):
    code, out, err = run_cli(capsys, "spectrum", "--case", spec, "--n", "5")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_certify_out_holds_the_stdout_lines(capsys, tmp_path):
    code, stdout, _ = run_cli(capsys, "certify", "--family", "fd_t4", "--n", "50,100")
    assert code == 0
    path = tmp_path / "cert.txt"
    code, out, _ = run_cli(capsys, "certify", "--family", "fd_t4", "--n", "50,100",
                           "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == stdout
    assert stdout.count("[PASS]") == 4


def test_compare_samples_the_symbol_once_per_case(capsys, tmp_path, monkeypatch):
    import gltkit.cli as cli

    calls = []
    original = cli.symbol_samples
    monkeypatch.setattr(cli, "symbol_samples",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    path = tmp_path / "t1.json"
    code, _, _ = run_cli(capsys, "compare", "--case", "fd_t1", "--coeff", "xexp",
                         "--n", "30,60,90", "--r", "200", "--quad-res", "80",
                         "--format", "json", "--out", str(path))
    assert code == 0
    assert len(calls) == 1
    assert len(json.loads(path.read_text())["reports"]) == 3


@pytest.mark.parametrize("argv", [
    ("spectrum", "--case", "fd_t1", "--seed", "1"),
    ("compare", "--case", "fd_t1", "--seed", "1"),
    ("table2", "--seed", "1"),
    ("spectrum", "--case", "fd_t1", "--quad-res", "100"),
    ("table2", "--quad-res", "100"),
    ("spectrum", "--case", "fd_t1", "--r", "100"),
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("certify", "--family", "fd_t7", "--m", "0"),
    ("certify", "--family", "all", "--m", "0"),
    ("certify", "--family", "fd_t7", "--m", "-2"),
    ("certify", "--family", "thm2", "--n", "0,50"),
    ("spectrum", "--case", "fd_t1", "--n", "-4"),
    ("compare", "--case", "fd_t1", "--quad-res", "0"),
    ("compare", "--case", "fd_t1", "--r", "0"),
    ("table2", "--r", "-1"),
    # fd_t5's stencil needs n >= 4 and fd_t6's n >= 5: below that the parser
    # accepts n, the scheme refuses it
    ("certify", "--family", "fd_t5", "--n", "1"),
    ("certify", "--family", "fd_t5", "--n", "2"),
    ("certify", "--family", "fd_t5", "--n", "3"),
    ("spectrum", "--case", "fd_t6", "--n", "4"),
])
def test_sizes_below_one_are_usage_errors(capsys, argv):
    schemes = {"fd_t5": "fourth-order scheme needs n >= 4",
               "fd_t6": "fourth-derivative stencil needs n >= 5"}
    scheme = next((text for name, text in schemes.items() if name in argv), None)
    if scheme:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert err == f"error: {scheme}, got n = {argv[-1]}\n"
        return
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "need a positive integer" in err


@pytest.mark.parametrize("family,scheme,minimum", [
    pytest.param("fd_t4", "non-divergence scheme (fd_t4)", 2,
                 id="fd_t4-non-divergence scheme (fd_t4)"),
    pytest.param("fd_t7", "mapped-grid scheme (fd_t7)", 2, id="fd_t7-mapped-grid scheme (fd_t7)"),
    # below n = 4 the family had printed nothing or dropped checks and exited 0
    pytest.param("thm2", "Hadamard split (thm2)", 4, id="thm2-Hadamard split (thm2)"),
])
def test_certify_names_the_scheme_and_its_minimum_n(capsys, family, scheme, minimum):
    code, out, err = run_cli(capsys, "certify", "--family", family, "--n", "1")
    assert code == 2 and not out
    assert err == f"error: {scheme} needs n >= {minimum}, got n = 1\n"


@pytest.mark.parametrize("argv,message", [
    # fd_t7 had printed its 6 other lines, with no off-ball line at m = 8, and exited 0
    (("certify", "--family", "fd_t7", "--n", "4", "--m", "2,8"),
     "off-ball residual bound (fd_t7) needs m <= n, got n = 4, m = 8"),
    (("certify", "--family", "all", "--n", "4"),
     "off-ball residual bound (fd_t7) needs m <= n, got n = 4, m = 8"),
    # thm2 had printed the same bytes as without --m and exited 0
    (("certify", "--family", "thm2", "--n", "50", "--m", "3"),
     "certificate family 'thm2' reads no --m; only fd_t7 and fe_t1 do"),
    (("certify", "--family", "fd_t4", "--m", "2"),
     "certificate family 'fd_t4' reads no --m; only fd_t7 and fe_t1 do"),
    (("certify", "--family", "nosuch", "--m", "2"),
     "unknown certificate family 'nosuch'; known: fd_t2, fd_t3, fd_t4, fd_t5, fd_t7, fe_t1, thm2"),
    # fe_t1 had said "truncation level too small for the closed form", naming no family or m
    (("certify", "--family", "fe_t1", "--n", "4", "--m", "1"),
     "stiffness truncation trace-norm bound (fe_t1) needs m >= 2, got m = 1"),
    (("certify", "--family", "all", "--m", "1"),
     "stiffness truncation trace-norm bound (fe_t1) needs m >= 2, got m = 1"),
])
def test_certify_refuses_an_m_it_would_not_check(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_certify_all_and_the_families_that_read_m_take_m(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "all", "--n", "4", "--m", "2,4")
    assert code == 0 and len(out.splitlines()) == 39  # 8 of them fd_t7's, all PASS
    families = {line.split("] ")[1].split(":")[0] for line in out.splitlines()}
    assert families == {"hadamard", "fd_t2", "fd_t3", "fd_t4", "fd_t5", "fd_t7", "fe_t1"}
    code, out, _ = run_cli(capsys, "certify", "--family", "fe_t1", "--n", "4", "--m", "2,8")
    assert code == 0 and out.count("\n") == 2


@pytest.mark.parametrize("family", ["thm2", "fd_t4", "fd_t5", "fd_t7", "fe_t1"])
def test_certify_refuses_a_seed_it_would_not_read(capsys, family):
    # these families had printed the same bytes as without --seed and exited 0;
    # an explicit --seed 0, the default, is refused as well
    for seed in ("3", "0"):
        code, out, err = run_cli(capsys, "certify", "--family", family, "--n", "50",
                                 "--seed", seed)
        assert (code, out, err) == (
            2, "", f"error: certificate family {family!r} reads no --seed; only fd_t2 and fd_t3 do\n")


def test_certify_all_and_the_families_that_read_the_seed_take_it(capsys):
    for family in ("fd_t2", "fd_t3"):
        _, default, _ = run_cli(capsys, "certify", "--family", family, "--n", "50")
        code, zero, _ = run_cli(capsys, "certify", "--family", family, "--n", "50", "--seed", "0")
        assert code == 0 and zero == default
        code, other, _ = run_cli(capsys, "certify", "--family", family, "--n", "50", "--seed", "3")
        assert code == 0 and other != default
    code, out, _ = run_cli(capsys, "certify", "--family", "all", "--n", "50", "--seed", "3")
    assert code == 0 and other in out


def test_empty_coefficient_table_exits_2(capsys, tmp_path):
    # a 0-byte file has no header for genfromtxt, which fails with IndexError
    table = tmp_path / "empty.csv"
    table.write_bytes(b"")
    code, out, err = run_cli(capsys, "spectrum", "--case", "fd_t1", "--coeff", f"csv:{table}",
                             "--n", "4")
    assert code == 2 and not out
    assert err == f"error: coefficient CSV {table} is empty: it needs header 'x,value' and rows\n"


def test_non_numeric_csv_cell_exits_2_naming_the_row(capsys, tmp_path):
    table = tmp_path / "bad.csv"
    table.write_text("x,value\n0,1\n0.5,abc\n1,2\n")
    code, out, err = run_cli(capsys, "compare", "--case", "fd_t1", "--coeff", f"csv:{table}",
                             "--n", "10", "--r", "50")
    assert code == 2 and not out
    assert err == "error: row 2 of the x/value table is not finite: x = 0.5, value = nan\n"


def test_non_finite_weyl_samples_exit_2_with_their_number(capsys, monkeypatch):
    """fd_t7's symbol is unbounded, so compare builds no rearrangement and
    the Weyl symbol side is the first to sample a NaN coefficient: on the
    60 x 60 midpoint grid, a(x^2) is NaN on the 8 rows with |x^2 - 1/2| <
    0.1 (x = (i + 1/2)/60, i = 38..45)."""
    hole = Coefficient("hole", lambda x: np.where(abs(x - .5) < .1, np.nan, x))
    monkeypatch.setitem(COEFFICIENT_PRESETS, "hole", hole)
    code, out, err = run_cli(capsys, "compare", "--case", "fd_t7", "--coeff", "hole",
                             "--n", "10", "--quad-res", "60")
    assert code == 2 and not out
    assert err == f"error: {8 * 60} samples of the symbol are not finite (NaN or infinite)\n"


def test_compare_reports_the_rearrangement_and_its_excluded_points(capsys, tmp_path):
    # a = c vanishes at x = 1/2, a lattice abscissa for even r, so the pencil
    # symbol a(x)(6 - 6cos) / (c(x)(2 + cos)) trips the division guard on that
    # row and is bounded elsewhere
    table = tmp_path / "dip.csv"
    table.write_text("x,value\n0,1\n0.5,0\n1,1\n")
    path = tmp_path / "Ln.json"
    r = 40
    code, _, _ = run_cli(capsys, "compare", "--case", f"Ln:c=csv:{table}",
                         "--coeff", f"csv:{table}", "--n", "20", "--r", str(r),
                         "--quad-res", "40", "--format", "json", "--out", str(path))
    assert code == 0
    rep = json.loads(path.read_text())["reports"][0]
    assert rep["rearrangement"] == {"r": r, "node_count": r * r - r + 1, "excluded": r}


def test_compare_reports_the_quadrature_cells_it_excludes(capsys, tmp_path):
    # for an odd --quad-res the middle row of cells has its centres at
    # x = 1/2, where a = c vanishes: the division guard drops that row
    table = tmp_path / "dip.csv"
    table.write_text("x,value\n0,1\n0.5,0\n1,1\n")
    for quad_res, excluded in ((41, 41), (40, 0)):
        code, out, _ = run_cli(capsys, "compare", "--case", f"Ln:c=csv:{table}",
                               "--coeff", f"csv:{table}", "--n", "20", "--r", "40",
                               "--quad-res", str(quad_res), "--format", "json")
        assert code == 0
        quadrature = json.loads(out)["reports"][0]["quadrature"]
        assert list(quadrature) == ["rule", "resolution", "refinement_gap", "excluded"]
        assert (quadrature["rule"], quadrature["resolution"]) == ("midpoint", quad_res)
        assert quadrature["excluded"] == excluded
    # at --quad-res 3 the one coarse cell is centred on x = 1/2 and excluded:
    # the full grid still gives the report, with no refinement gap
    code, out, _ = run_cli(capsys, "compare", "--case", f"Ln:c=csv:{table}",
                           "--coeff", f"csv:{table}", "--n", "20", "--r", "40",
                           "--quad-res", "3", "--format", "json")
    assert code == 0
    quadrature = json.loads(out)["reports"][0]["quadrature"]
    assert (quadrature["refinement_gap"], quadrature["excluded"]) == (None, 3)


@pytest.mark.parametrize("quad_res", ["1", "2", "3"])
def test_compare_refines_from_a_grid_of_half_the_panels(capsys, quad_res):
    """--quad-res 1 leaves no coarser grid (exit 2); at 2 and 3 the coarse
    grid has one panel, so the refinement gap is not 0."""
    argv = ("compare", "--case", "fd_t1", "--n", "20", "--r", "50",
            "--quad-res", quad_res, "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    if quad_res == "1":
        assert (code, out, err) == (2, "", "error: quad_res must be >= 2, got 1\n")
        return
    assert code == 0
    quadrature = json.loads(out)["reports"][0]["quadrature"]
    assert quadrature["excluded"] == 0 and quadrature["refinement_gap"] > 0


@pytest.mark.parametrize("coeff", ["xexp", "x", "dip"])
def test_compare_refuses_to_rearrange_schur_where_a_vanishes(capsys, tmp_path, coeff):
    """The Schur symbol's term sin^2 / (a (2 - 2cos)) = (1 + cos) / (2a) is
    unbounded where a vanishes (xexp and x at 0, the table at 1/2): compare
    reports the refusal in place of a rearrangement gap, as for fd_t7."""
    if coeff == "dip":
        table = tmp_path / "dip.csv"
        table.write_text("x,value\n0,1\n0.5,0\n1,1\n")
        coeff = f"csv:{table}"
    code, out, _ = run_cli(capsys, "compare", "--case", "schur", "--coeff", coeff,
                           "--n", "40,160", "--r", "300", "--format", "json")
    assert code == 0
    for rep in json.loads(out)["reports"]:
        assert rep["rearrangement_gap"] is None and rep["rearrangement"] is None
        assert rep["rearrangement_error"].startswith("case schur: the symbol is unbounded")


def test_compare_refuses_to_rearrange_ln_where_c_vanishes_and_a_does_not(capsys):
    """The pencil symbol a (6 - 6cos) / (c (2 + cos)) with a = 1 and c = x
    is unbounded at x = 0 (c.inf = 0 and nothing cancels c): compare
    reports the refusal in place of a rearrangement gap."""
    code, out, _ = run_cli(capsys, "compare", "--case", "Ln:c=x", "--coeff", "one",
                           "--n", "40,160", "--r", "300", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [rep["n"] for rep in reports] == [40, 160]
    for rep in reports:
        assert rep["rearrangement_gap"] is None and rep["rearrangement"] is None
        assert rep["rearrangement_error"].startswith("case Ln: the symbol is unbounded")


def test_compare_rearranges_fd_t7_where_g_prime_is_unbounded_but_positive(capsys):
    """G = x^(1/2): G' = x^(-1/2) / 2 is unbounded at 0 but at least 1/2, so
    the symbol a(G) (2 - 2cos) / G' is bounded.  No probe reads G' at 0,
    where it divides by zero (a RuntimeWarning, an error under pytest)."""
    code, out, err = run_cli(capsys, "compare", "--case", "fd_t7:q=0.5", "--n", "20,80",
                             "--r", "200", "--format", "json")
    assert code == 0 and not err
    gaps = [rep["rearrangement_gap"] for rep in json.loads(out)["reports"]]
    assert gaps[1] < gaps[0] < 0.5


# ----------------------------------------------------------------------------
# compare solves on one worker thread while the main thread samples the symbol
# ----------------------------------------------------------------------------

def _serial_compare(spec, mode, ns, r, quad_res, fmt):
    """Exit code and output of ``compare`` from the analysis functions called
    one after the other, each solving its own spectrum."""
    try:
        case = get_case(spec, "xexp")
        reports = []
        for n in ns:
            doc = weyl_compare(case, n, mode=mode, quad_res=quad_res).to_json_dict()
            try:
                rr_doc = rearrangement_compare(case, n, r=r).to_json_dict()
                for key in ("rearrangement_gap", "rearrangement_gap_rel", "outliers",
                            "rearrangement"):
                    doc[key] = rr_doc[key]
            except (UnboundedSymbolError, ComplexSpectrumError) as exc:
                doc["rearrangement_error"] = str(exc)
            reports.append(doc)
    except (ComplexSpectrumError, UnboundedSymbolError) as exc:
        return 1, "", f"error: {exc}\n"
    except (KeyError, ValueError, SymbolSingularityError) as exc:
        return 2, "", f"error: {exc}\n"
    if fmt == "json":
        return 0, json.dumps({"reports": reports}, indent=2) + "\n", ""
    rows = [(d["case"], d["n"], d["mode"], f["label"], f["empirical"], f["symbol"], f["gap"])
            for d in reports for f in d["functionals"]]
    return 0, cli._csv(rows, ("case", "n", "mode", "F", "empirical", "symbol", "gap")), ""


@pytest.mark.parametrize("mode", ["lambda", "sigma"])
@pytest.mark.parametrize("spec", case_names())
def test_compare_output_matches_the_serial_analysis_calls(capsys, spec, mode):
    ns, r, quad_res = (6, 17), 60, 30
    for fmt in ("json", "csv"):
        got = run_cli(capsys, "compare", "--case", spec, "--coeff", "xexp", "--mode", mode,
                      "--n", ",".join(map(str, ns)), "--r", str(r),
                      "--quad-res", str(quad_res), "--format", fmt)
        assert got == _serial_compare(spec, mode, ns, r, quad_res, fmt)


def test_compare_solves_off_the_main_thread(capsys, monkeypatch):
    threads = []
    original = DiscretizationCase.spectrum
    monkeypatch.setattr(DiscretizationCase, "spectrum",
                        lambda self, n: threads.append(threading.current_thread())
                        or original(self, n))
    code, _, _ = run_cli(capsys, "compare", "--case", "fd_t2", "--n", "10,20", "--r", "50",
                         "--quad-res", "20", "--format", "json")
    assert code == 0
    assert len(threads) == 2 and len(set(threads)) == 1
    assert threads[0] is not threading.main_thread()


def test_compare_stops_at_the_first_complex_spectrum(capsys, monkeypatch):
    # convection h/2 outweighs diffusion 1e-6: n = 1 is real, n = 50 is not
    tiny = Coefficient("tiny", lambda x: np.full_like(np.asarray(x, dtype=float), 1e-6),
                       "continuous")
    one = coefficient_preset("one")
    case = fd_cdr_dirichlet(tiny, one, one)
    with pytest.raises(ComplexSpectrumError) as raised:
        case.spectrum(50)
    monkeypatch.setattr(cli, "get_case", lambda spec, coeff: case)
    solved = []
    original = DiscretizationCase.spectrum
    monkeypatch.setattr(DiscretizationCase, "spectrum",
                        lambda self, n: solved.append(n) or original(self, n))
    code, out, err = run_cli(capsys, "compare", "--case", "fd_t2", "--n", "1,50,100",
                             "--r", "50", "--quad-res", "20", "--format", "json")
    assert (code, out, err) == (1, "", f"error: {raised.value}\n")
    assert solved == [1, 50]


def test_compare_stops_solving_when_the_main_thread_fails(capsys, monkeypatch):
    # the worker's first solve waits until the main thread has failed and
    # raised the stop flag, so no later n may be solved
    events = []

    class Recorded(threading.Event):
        def __init__(self):
            super().__init__()
            events.append(self)

    monkeypatch.setattr(cli.threading, "Event", Recorded)
    solved = []
    original = DiscretizationCase.spectrum

    def spectrum(self, n):
        solved.append(n)
        assert events[0].wait(timeout=60)
        return original(self, n)

    def symbol_samples(*args, **kwargs):
        raise ValueError("no samples")

    monkeypatch.setattr(DiscretizationCase, "spectrum", spectrum)
    monkeypatch.setattr(cli, "symbol_samples", symbol_samples)
    code, out, err = run_cli(capsys, "compare", "--case", "fd_t1", "--n", "10,20,30",
                             "--r", "20")
    assert (code, out, err) == (2, "", "error: no samples\n")
    assert solved == [10]


def test_cli_imports_no_concurrent_futures():
    code = "import sys, gltkit.cli; assert 'concurrent.futures' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_rearranging_commands_leave_numpy_ma_unloaded():
    # numpy.ma (about 10 ms and 0.5 MB) loads with the first np.unique call;
    # numpy.polynomial loads when the first FE matrix is built, not on import
    code = """
import contextlib, io, sys, gltkit, gltkit.cli
assert not {'numpy.ma', 'numpy.polynomial'} & set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    gltkit.cli.main(['table2', '--r', '300'])
    assert gltkit.cli.main(['compare', '--case', 'fd_t2', '--n', '20,40', '--r', '200',
                            '--quad-res', '40']) == 0
assert 'numpy.ma' not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
