"""Record the CLI outputs that ``tests/test_cli_outputs.py`` compares against.

Run from the root of a checkout::

    PYTHONPATH=src python tests/record_cli_outputs.py

Each argv of :data:`ARGVS` goes through ``gltkit.cli.main`` in this
process, and its stdout, stderr and exit code are written, with the
environment that produced them, to ``tests/data/cli_outputs.json``.
Re-record only when a change alters output bytes on purpose, and list the
argvs whose entries changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import warnings

import numpy as np
import scipy

from gltkit import linalg
from gltkit.builders import case_names
from gltkit.cli import main

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_outputs.json")


def _argvs():
    argvs = []
    for case in case_names():
        for coeff in ("xexp", "one"):
            for mode in ("lambda", "sigma"):
                common = ["--case", case, "--coeff", coeff, "--mode", mode]
                argvs.append(["compare", *common, "--n", "12", "--r", "64", "--quad-res", "8",
                              "--format", "json"])
                argvs.append(["spectrum", *common, "--n", "5,9", "--format", "json"])
    argvs += [["list"], ["table2"], ["table2", "--format", "json"]]
    argvs += [["certify", "--family", "all", "--seed", seed] for seed in ("0", "1", "7")]
    # the benchmark's compare_dense argvs
    for case, coeff in (("fd_t2", "xexp"), ("fd_t4", "xexp"), ("Ln", "xexp"), ("schur", "one")):
        argvs.append(["compare", "--case", case, "--coeff", coeff, "--n", "400,1600",
                      "--r", "1000", "--format", "json"])
    # parameterised specs
    for spec in ("fd_t2:b=x,c=zero", "fd_t3:c=1+x", "fd_t4:b=zero,c=zero", "fd_t5:b=zero",
                 "fd_t7:q=0.5", "fd_t7:q=1", "fe_t1:b=one,c=x", "schur:rho=-1", "schur:rho=0",
                 "Ln:c=x", "Ln:c=1+x"):
        argvs.append(["spectrum", "--case", spec, "--n", "6", "--format", "json"])
    # refused specs and names: the order in which a spec's parts are resolved
    # decides which error a spec with several faults gets
    for spec, coeff in (("fd_t7:q=abc", "xexp"), ("fd_t7:q=-1", "xexp"), ("fd_t7:q=nan", "xexp"),
                        ("fd_t7:q=inf", "xexp"), ("schur:rho=inf", "xexp"),
                        ("schur:rho=abc", "xexp"), ("fd_t2:", "xexp"), ("fd_t2:=x", "xexp"),
                        ("fd_t2:b=", "xexp"), ("fd_t2:b=one,", "xexp"),
                        ("fd_t2:b=one,b=x", "xexp"), ("fd_t2:q=2", "xexp"),
                        ("fd_t1:b=one", "xexp"), ("fd_t2:b=nosuch", "xexp"),
                        ("fd_t2:c=nosuch,b=other", "xexp"), ("fd_t2:b=nosuch", "other"),
                        ("fd_t7:q=abc", "other"), ("fd_t1", "nosuch"), ("nosuch", "xexp"),
                        ("nosuch:b=one", "xexp"), ("fd_t4:b=x,c=q", "xexp"),
                        ("fd_t5:b=expx", "xexp"), ("fd_t4", "1+x"), ("schur", "zero"),
                        ("Ln:c=zero", "one")):
        argvs.append(["spectrum", "--case", spec, "--coeff", coeff, "--n", "6"])
    # sizes below a scheme's minimum
    argvs += [["spectrum", "--case", case, "--n", n]
              for case, n in (("fd_t4", "1"), ("fd_t5", "3"), ("fd_t6", "4"), ("fd_t6", "5"),
                              ("fd_t7", "1"))]
    argvs += [["certify", "--family", family, "--n", n]
              for family, n in (("thm2", "1"), ("thm2", "2"), ("thm2", "3"), ("thm2", "4"),
                                ("fd_t4", "1"), ("fd_t5", "3"), ("fd_t7", "1"))]
    argvs += [["certify", "--family", "nosuch"], ["spectrum", "--case", "fd_t1", "--n", "0"],
              ["compare", "--case", "fd_t1", "--n", "20", "--r", "50", "--quad-res", "1"]]
    # an m that fd_t7's off-ball bound does not cover, and an m that thm2 does not read
    argvs += [["certify", "--family", "fd_t7", "--n", "4", "--m", "2,8"],
              ["certify", "--family", "thm2", "--n", "50", "--m", "3"]]
    # an m below the one fe_t1's closed form needs, alone and through all
    argvs += [["certify", "--family", "fe_t1", "--n", "4", "--m", "1"],
              ["certify", "--family", "all", "--m", "1"]]
    # symmetric operands of cases that declare corrections: their backing is Hermitian
    argvs += [["compare", "--case", spec, "--n", "12", "--r", "64", "--quad-res", "8",
               "--format", "json"] for spec in ("fd_t2:b=zero,c=zero", "fe_t1:b=zero,c=x")]
    # a seed that thm2 does not read
    argvs += [["certify", "--family", "thm2", "--n", "50", "--seed", "3"]]
    # symbols whose range is {0}: the Weyl window is [-0.05, 0.05], and the
    # rearrangement has no relative gap
    argvs += [["compare", "--case", spec, "--coeff", "zero", *mode, "--n", "12,48", "--r", "64",
               "--quad-res", "8", "--format", "json"]
              for spec, mode in (("fd_t2", ("--mode", "sigma")), ("fe_t1:b=zero,c=x", ()))]
    # a negative seed is refused by the parser
    argvs += [["certify", "--family", "fd_t2", "--n", "50", "--seed", "-1"]]
    # a parameter given twice, a q that is NaN or not a number, a parameter
    # without a key, a colon with nothing after it, an unknown coefficient
    argvs += [["spectrum", "--case", spec, *coeff, "--n", n]
              for spec, coeff, n in (("fd_t2:b=one,b=x", (), "3"), ("fd_t7:q=nan", (), "5"),
                                     ("fd_t7:q=abc", (), "5"), ("fd_t2:=x", (), "5"),
                                     ("fd_t2:", (), "3"), ("fd_t1", ("--coeff", "nosuch"), "3"))]
    # CSV on stdout: compare's functional rows in both modes, and table2's rows
    argvs += [["compare", "--case", "fd_t1", *mode, "--n", "12", "--r", "64", "--quad-res", "8"]
              for mode in ((), ("--mode", "sigma"))]
    argvs += [["table2", "--format", "csv"]]
    # an all-negative schur spectrum through the rank-one band pencil; an Ln
    # pencil symbol unbounded at x = 0, whose rearrangement every report
    # refuses; fd_t7's G' = x^(-1/2) / 2, singular at 0, where no probe may
    # read it; n = 1, where the bidiagonal L that carries u to e_1 has no
    # subdiagonal; a Pencil and a RankOneUpdate operand through sigma mode
    argvs += [["compare", "--case", "schur:rho=-1", "--coeff", "one", "--n", "50", "--r", "100",
               "--format", "json"],
              ["compare", "--case", "Ln:c=x", "--coeff", "one", "--n", "40,160", "--r", "300",
               "--format", "json"],
              ["compare", "--case", "fd_t7:q=0.5", "--n", "20", "--r", "50"],
              ["spectrum", "--case", "schur", "--coeff", "xexp", "--n", "1,2,7", "--format", "json"],
              ["spectrum", "--case", "Ln", "--n", "20", "--mode", "sigma", "--format", "json"],
              ["spectrum", "--case", "schur", "--n", "20", "--mode", "sigma", "--format", "json"],
              ["spectrum", "--case", "fe_mass", "--n", "20"]]
    # an empty item of a comma list, in --n and in --m
    argvs += [["spectrum", "--case", "fd_t1", "--n", "5,,6"],
              ["certify", "--family", "fe_t1", "--m", "2,"]]
    return argvs


#: every argv the ledger holds, in its order
ARGVS = _argvs()


def environment():
    """What the output bits depend on besides the code: Python, numpy, scipy,
    the LAPACK library file, the machine and its CPU model."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "lapack": os.path.basename(linalg.LAPACK_SOURCE),
            "machine": platform.machine(), "cpu": cpu}


def run(argv):
    """One ledger entry: ``argv`` with its stdout, stderr and exit code.

    numpy's RuntimeWarning and ComplexWarning are errors here, as in the
    test suite, so that no warning text lands in stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def record():
    return {"environment": environment(), "outputs": [run(argv) for argv in ARGVS]}


if __name__ == "__main__":
    os.makedirs(os.path.dirname(LEDGER), exist_ok=True)
    ledger = record()
    # one line per output, so that a diff of the file names the argvs whose outputs changed
    with open(LEDGER, "w") as fh:
        fh.write('{"environment": %s,\n "outputs": [\n%s\n]}\n' % (
            json.dumps(ledger["environment"]),
            ",\n".join(json.dumps(entry) for entry in ledger["outputs"])))
    print(f"wrote {len(ARGVS)} outputs to {LEDGER}", file=sys.stderr)
