"""The benchmark's workloads: the argv of each job, the cases resolved in
set-up, and the correctness checks every job runs.

A job is what a researcher waits for: one or more calls to
``gltkit.cli.main(argv)`` with the argv they would type (stdout captured),
plus, for ``certify_norms``, the criterion-8 Schatten trend that has no
subcommand.  Flags that do nothing at this commit (``table2 --seed`` and
``--quad-res``, ``compare --seed``, ``certify --out``) stay out of every
argv, so fixing them later does not change a workload.

Sizes: ``full`` is the measured workload; ``smoke`` is a reduced one for the
smoke test and for the untimed warm-up job.  Reference values for the
checks are in ``reference.json`` (see ``record_reference.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import types

HERE = os.path.dirname(os.path.abspath(__file__))

#: published rearrangement-gap column of the diffusion benchmark (a = x e^-x)
PUBLISHED_TABLE2 = {50: 0.0327, 100: 0.0165, 200: 0.0083, 400: 0.0042, 800: 0.0022, 1600: 0.0011}

#: absolute tolerance on recorded compare_dense gaps: far below any change a
#: wrong spectrum makes, far above BLAS thread-count rounding (~1e-14)
GAP_TOL = 1e-8

COMPARE_CASES = (("fd_t2", "xexp"), ("fd_t4", "xexp"), ("Ln", "xexp"), ("schur", "one"))

SIZES = {
    "full": {"table2_args": [], "compare_n": "400,1600", "compare_r": "1000",
             "certify_n": None, "trend_ns": (100, 200, 400, 800, 1600)},
    "smoke": {"table2_args": ["--r", "2000"], "compare_n": "50,100", "compare_r": "200",
              "certify_n": "20,40", "trend_ns": (50, 100, 200)},
}


def import_gltkit():
    """Import the package; returns its modules by name."""
    import gltkit
    import gltkit.analysis
    import gltkit.builders
    import gltkit.certificates
    import gltkit.cli
    import gltkit.linalg
    import gltkit.symbols

    return types.SimpleNamespace(package=gltkit, cli=gltkit.cli, builders=gltkit.builders,
                                 linalg=gltkit.linalg, symbols=gltkit.symbols,
                                 analysis=gltkit.analysis, certificates=gltkit.certificates)


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


class Checks:
    """Correctness checks of one run: attempted count and the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Session:
    """What a job needs: the modules, the resolved cases, a way to call the
    CLI, and the tracer when the run is traced."""

    def __init__(self, gl, cases, tracer=None):
        self.gl = gl
        self._cases = cases
        self.tracer = tracer

    def case(self, key):
        case = self._cases[key]
        return self.tracer.traced_case(case) if self.tracer else case

    def cli(self, argv):
        """Run ``gltkit.cli.main(argv)``; returns (exit code, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = self.gl.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()


# ----------------------------------------------------------------------------
# rearrange_table2
# ----------------------------------------------------------------------------

def _resolve_table2(gl, size):
    return {"fd_t1": gl.builders.get_case("fd_t1", "xexp")}


def _job_table2(session, size, seed, checks, reference):
    rc, out = session.cli(["table2"] + SIZES[size]["table2_args"])
    checks.expect(rc == 0, f"table2 exit code {rc}")
    rows = {}
    for line in out.splitlines()[1:]:
        fields = line.split()
        if len(fields) == 4:
            rows[int(fields[0])] = float(fields[1])
    for n, ref in PUBLISHED_TABLE2.items():
        gap = rows.get(n)
        checks.expect(gap is not None and abs(gap - ref) <= max(5e-4, 0.05 * ref),
                      f"table2 n={n}: computed {gap} vs published {ref}")


# ----------------------------------------------------------------------------
# compare_dense
# ----------------------------------------------------------------------------

def _resolve_compare(gl, size):
    return {case: gl.builders.get_case(case, coeff) for case, coeff in COMPARE_CASES}


def compare_argv(case, coeff, size):
    s = SIZES[size]
    return ["compare", "--case", case, "--coeff", coeff, "--n", s["compare_n"],
            "--r", s["compare_r"], "--format", "json"]


def compare_gaps(doc):
    """{"case/n": {"rearrangement_gap", "weyl_gaps"}} from compare's JSON."""
    return {f"{r['case']}/{r['n']}": {"rearrangement_gap": r.get("rearrangement_gap"),
                                      "weyl_gaps": [f["gap"] for f in r["functionals"]],
                                      "rearrangement_error": r.get("rearrangement_error")}
            for r in doc["reports"]}


def _job_compare(session, size, seed, checks, reference):
    expected = reference["compare_dense"][size]
    for case, coeff in COMPARE_CASES:
        rc, out = session.cli(compare_argv(case, coeff, size))
        if not checks.expect(rc == 0, f"compare {case} exit code {rc}"):
            continue
        got = compare_gaps(json.loads(out))
        for key, ref in expected.items():
            if not key.startswith(case + "/"):
                continue
            g = got.get(key)
            ok = (g is not None and g["rearrangement_error"] is None
                  and g["rearrangement_gap"] is not None
                  and abs(g["rearrangement_gap"] - ref["rearrangement_gap"]) <= GAP_TOL)
            checks.expect(ok, f"compare {key}: rearrangement gap {g and g['rearrangement_gap']} "
                              f"vs recorded {ref['rearrangement_gap']} "
                              f"(error: {g and g['rearrangement_error']})")
            ok = (g is not None and len(g["weyl_gaps"]) == len(ref["weyl_gaps"])
                  and all(abs(a - b) <= GAP_TOL for a, b in zip(g["weyl_gaps"], ref["weyl_gaps"])))
            checks.expect(ok, f"compare {key}: Weyl gaps {g and g['weyl_gaps']} "
                              f"vs recorded {ref['weyl_gaps']}")


# ----------------------------------------------------------------------------
# certify_norms
# ----------------------------------------------------------------------------

_CERT_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+): .* lhs=(\S+) <= rhs=(\S+)$")


def _resolve_certify(gl, size):
    return {"fd_t2": gl.builders.get_case("fd_t2", "one"),
            "fd_t3": gl.builders.get_case("fd_t3", "one")}


def certify_argv(size, seed):
    argv = ["certify", "--family", "all", "--seed", str(seed)]
    if SIZES[size]["certify_n"]:
        argv += ["--n", SIZES[size]["certify_n"]]
    return argv


def parse_certify(out):
    """[(mark, family, lhs, rhs)] for every certificate line."""
    return [(m[1], m[2], float(m[3]), float(m[4]))
            for m in map(_CERT_LINE.match, out.splitlines()) if m]


def _job_certify(session, size, seed, checks, reference):
    import numpy as np

    gl = session.gl
    rc, out = session.cli(certify_argv(size, seed))
    checks.expect(rc == 0, f"certify exit code {rc}")
    lines = parse_certify(out)
    expected = reference["certify_norms"][size]["checks"]
    checks.expect(len(lines) == expected,
                  f"certify printed {len(lines)} checks, expected {expected}")
    for mark, family, lhs, rhs in lines:
        checks.expect(mark == "PASS", f"certify {family}: lhs={lhs} rhs={rhs} FAIL")

    ns = SIZES[size]["trend_ns"]
    fd_t2, fd_t3 = session.case("fd_t2"), session.case("fd_t3")
    # gl.<module>.<function> is looked up at call time, so tracing sees these calls
    trend = lambda build: gl.analysis.zero_distribution_check(build, ns, p=2)
    z = trend(fd_t2.companions["Z"])
    zr = trend(lambda n: gl.linalg.as_dense(fd_t3.companions["Z"](n))
               + gl.linalg.as_dense(fd_t3.companions["R"](n)))
    ident = trend(np.eye)
    checks.expect(z.overall_pass, f"fd_t2 Z trend FAIL, ratios {z.ratios}")
    checks.expect(zr.overall_pass, f"fd_t3 Z+R trend FAIL, ratios {zr.ratios}")
    checks.expect(not ident.overall_pass, f"identity control PASSed, ratios {ident.ratios}")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seed_drives: str
    resolve: object
    job: object
    predicted_layers: tuple  # metrics whose sum should be most of job_s


WORKLOADS = {w.name: w for w in (
    Workload("rearrange_table2", "nothing: deterministic", _resolve_table2, _job_table2,
             ("symbols.eval_s", "symbols.rearrangement_self_s", "symbols.rearrangement_eval_s")),
    Workload("compare_dense", "nothing: deterministic", _resolve_compare, _job_compare,
             ("linalg.sym_eig_s", "linalg.nonsym_eig_s", "linalg.pencil_eig_s",
              "builders.build_s")),
    Workload("certify_norms",
             "the random table coefficients of the fd_t2/fd_t3 certificate families "
             "(certify --seed)", _resolve_certify, _job_certify,
             ("linalg.svd_s",)),
)}
