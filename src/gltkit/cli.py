"""Command-line interface.

Subcommands
-----------
list      registry of discretization cases with symbols and normalizations
spectrum  sorted eigenvalues / singular values of the normalized matrices
compare   Weyl-functional + rearrangement reports, with a plot-ready overlay CSV
table2    sup-norm rearrangement gaps for the diffusion benchmark, checked
          against the published reference column
certify   finite-n proof-inequality certificates, PASS/FAIL per (n, m)

``compare`` solves the spectra on one worker thread while the main thread
builds the rearrangement and samples the symbol (LAPACK releases the GIL);
the output is the same as when the two run one after the other, errors exit
as they did, and no thread outlives the command.

Exit codes: 0 success / all PASS, 1 numeric failure (tolerance or certificate
breach), 2 usage error (a file that cannot be read or written among them).
All output files are written atomically and CSV numbers carry 17
significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading

from .analysis import (
    DEFAULT_QUAD_RES,
    DEFAULT_R,
    UnboundedSymbolError,
    rearrangement_compare,
    rearrangement_nodes,
    symbol_samples,
    weyl_compare,
)
from .builders import DEFAULT_COEFFICIENT, ComplexSpectrumError, get_case, registry_lines
from .certificates import certificate_families, families_reading, run_certificates
from .symbols import SymbolSingularityError, monotone_rearrangement

#: published reference column for the diffusion benchmark (a = x e^{-x}):
#: sup-norm gap between sorted eigenvalues and rearrangement samples
TABLE2_REFERENCE = {50: 0.0327, 100: 0.0165, 200: 0.0083, 400: 0.0042,
                    800: 0.0022, 1600: 0.0011}
TABLE2_NS = tuple(sorted(TABLE2_REFERENCE))


def _fmt(v):
    return "" if v is None else f"{v:.17g}"


def _atomic_write(path, text):
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # it may never have been made
            os.remove(tmp)
        raise


def _emit(path, text):
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _positive_int(text, least=1, what="a positive integer"):
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < least:
        raise argparse.ArgumentTypeError(f"need {what}, got {value}")
    return value


def _nonnegative_int(text):
    return _positive_int(text, 0, "an integer >= 0")


def _parse_int_list(text):
    values = [_positive_int(v) for v in text.split(",") if v.strip()]
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("need a nonempty ascending comma list")
    return values


def _csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_list(args) -> int:
    for line in registry_lines():
        print(line)
    return 0


def cmd_spectrum(args) -> int:
    case = get_case(args.case, args.coeff)
    blocks = []
    for n in args.n:
        vals = (case.singular_spectrum(n) if args.mode == "sigma" else case.spectrum(n)).values
        blocks.append((n, vals))
    if args.format == "json":
        doc = {"case": args.case, "coeff": args.coeff, "mode": args.mode,
               "blocks": [{"n": n, "values": [float(v) for v in vals]} for n, vals in blocks]}
        _emit(args.out, json.dumps(doc, indent=2) + "\n")
    else:
        rows = [(n, i + 1, float(v)) for n, vals in blocks for i, v in enumerate(vals)]
        _emit(args.out, _csv(rows, ("n", "index", "value")))
    return 0


@contextlib.contextmanager
def _solving(solve, ns):
    """Run ``solve(n)`` for each n of ``ns``, in order, on one worker thread
    while the ``with`` body runs on this one.

    Yields a function that waits for the worker and returns its results,
    one per n; the worker stops at the first n that fails, and the function
    re-raises that exception here.  When the body raises, the worker stops
    before its next n.  Either way it is joined before the ``with`` exits.
    """
    results, stop = [], threading.Event()

    def work():
        try:
            for n in ns:
                if stop.is_set():
                    return
                results.append(solve(n))
        except BaseException as exc:  # re-raised on the calling thread
            results.append(exc)

    worker = threading.Thread(target=work, name="gltkit-solve", daemon=True)
    worker.start()

    def collect():
        worker.join()
        if results and isinstance(results[-1], BaseException):
            raise results[-1]
        return results

    try:
        yield collect
    finally:
        stop.set()
        worker.join()


def cmd_compare(args) -> int:
    case = get_case(args.case, args.coeff)
    solve = case.singular_spectrum if args.mode == "sigma" else case.spectrum
    with _solving(solve, args.n) as collect:
        rearr = None
        if case.predicted_symbol.bounded:
            rearr = monotone_rearrangement(case.predicted_symbol, args.r,
                                           rearrangement_nodes(args.n))
        samples = symbol_samples(case.predicted_symbol, args.mode, args.quad_res)
        suite = samples.default_suite()
        samples.symbol_sides(suite)
        spectra = collect()
    reports, overlay_rows = [], []
    for n, spectrum in zip(args.n, spectra):
        report = weyl_compare(case, n, F_suite=suite, mode=args.mode, quad_res=args.quad_res,
                              samples=samples, spectrum=spectrum)
        doc = report.to_json_dict()
        # lambda mode already solved for the eigenvalues; sigma mode holds singular values
        eigenvalues = spectrum if args.mode == "lambda" else None
        try:
            rr = rearrangement_compare(case, n, rearr=rearr, spectrum=eigenvalues)
            rr_doc = rr.to_json_dict()
            for key in ("rearrangement_gap", "rearrangement_gap_rel", "outliers", "rearrangement"):
                doc[key] = rr_doc[key]
            if args.out:  # the overlay is only ever written next to --out
                t, s, e = rr.overlay
                overlay_rows += [(n, float(ti), float(si), float(ei))
                                 for ti, si, ei in zip(t, s, e)]
        except (UnboundedSymbolError, ComplexSpectrumError) as exc:
            doc["rearrangement_error"] = str(exc)
        reports.append(doc)

    if args.format == "json":
        _emit(args.out, json.dumps({"reports": reports}, indent=2) + "\n")
    else:
        rows = []
        for doc in reports:
            for f in doc["functionals"]:
                rows.append((doc["case"], doc["n"], doc["mode"], f["label"],
                             f["empirical"], f["symbol"], f["gap"]))
        _emit(args.out, _csv(rows, ("case", "n", "mode", "F", "empirical", "symbol", "gap")))

    if overlay_rows:
        base, _ = os.path.splitext(args.out)
        _atomic_write(base + "_overlay.csv",
                      _csv(overlay_rows, ("n", "t", "rearrangement", "eigenvalue")))
    return 0


def cmd_table2(args) -> int:
    case = get_case("fd_t1", "xexp")
    rearr = monotone_rearrangement(case.predicted_symbol, args.r, rearrangement_nodes(TABLE2_NS))
    # stdout carries the aligned table, unless --format without --out puts the document there
    aligned = args.out or args.format is None
    rows, all_ok = [], True
    if aligned:
        print(f"{'n':>6}  {'computed':>10}  {'reference':>10}  {'within tol':>10}")
    for n in TABLE2_NS:
        report = rearrangement_compare(case, n, rearr=rearr)
        gap = report.rearrangement_gap
        ref = TABLE2_REFERENCE[n]
        ok = abs(gap - ref) <= max(5e-4, 0.05 * ref)
        all_ok &= ok
        rows.append((n, float(gap), ref, "yes" if ok else "NO"))
        if aligned:
            print(f"{n:>6}  {gap:>10.4f}  {ref:>10.4f}  {'yes' if ok else 'NO':>10}")
    if args.format == "json":
        doc = [{"n": n, "computed": g, "reference": ref, "within_tolerance": ok == "yes"}
               for n, g, ref, ok in rows]
        _emit(args.out, json.dumps(doc, indent=2) + "\n")
    elif args.out or args.format == "csv":
        _emit(args.out, _csv(rows, ("n", "computed", "reference", "within_tolerance")))
    return 0 if all_ok else 1


def cmd_certify(args) -> int:
    families = certificate_families() if args.family == "all" else [args.family]
    for flag, option, value in (("--m", "ms", args.m), ("--seed", "seed", args.seed)):
        readers = families_reading(option)
        if value is not None and args.family in certificate_families() \
                and args.family not in readers:
            raise ValueError(f"certificate family {args.family!r} reads no {flag}; only "
                             f"{' and '.join(readers)} do")
    checks = [check for family in families
              for check in run_certificates(family, args.n, args.m, seed=args.seed or 0)]
    _emit(args.out, "".join(check.line() + "\n" for check in checks))
    return 0 if all(check.ok for check in checks) else 1


# ----------------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gltkit",
        description="Spectral-symbol diagnostics for FD/FE discretization matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the case registry").set_defaults(fn=cmd_list)

    # each subcommand takes only the flags it reads; argparse rejects the rest
    def case_args(p):
        p.add_argument("--case", required=True, help="registry name, e.g. fd_t1 or fd_t7:q=2")
        p.add_argument("--coeff", default=DEFAULT_COEFFICIENT, help="coefficient preset or csv:PATH")
        p.add_argument("--n", type=_parse_int_list, default=[100],
                       help="ascending comma list of sizes")
        p.add_argument("--mode", choices=("sigma", "lambda"), default="lambda")

    def r_arg(p):
        p.add_argument("--r", type=_positive_int, default=DEFAULT_R,
                       help="rearrangement sampling parameter")

    def output_args(p):
        p.add_argument("--format", choices=("json", "csv"), default="csv")
        p.add_argument("--out", default="", help="output path (stdout when omitted)")

    p_spec = sub.add_parser("spectrum", help="sorted spectra of the normalized matrices")
    case_args(p_spec)
    output_args(p_spec)
    p_spec.set_defaults(fn=cmd_spectrum)

    p_cmp = sub.add_parser("compare", help="Weyl + rearrangement reports")
    case_args(p_cmp)
    r_arg(p_cmp)
    p_cmp.add_argument("--quad-res", dest="quad_res", type=_positive_int, default=DEFAULT_QUAD_RES)
    output_args(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_t2 = sub.add_parser("table2", help="rearrangement-gap benchmark vs the reference column")
    r_arg(p_t2)
    output_args(p_t2)
    # format=None stands for no --format given: the aligned table alone, plus
    # CSV into --out when there is one (see cmd_table2)
    p_t2.set_defaults(fn=cmd_table2, format=None)

    p_cert = sub.add_parser("certify", help="finite-n proof-inequality certificates")
    p_cert.add_argument("--family", required=True,
                        help=f"one of {', '.join(certificate_families())}, or 'all'")
    p_cert.add_argument("--n", type=_parse_int_list, default=None)
    p_cert.add_argument("--m", type=_parse_int_list, default=None)
    # None: not given, which means 0
    p_cert.add_argument("--seed", type=_nonnegative_int, default=None)
    p_cert.add_argument("--out", default="")
    p_cert.set_defaults(fn=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ComplexSpectrumError, UnboundedSymbolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, SymbolSingularityError, OSError) as exc:
        # OSError: a --coeff csv:PATH that cannot be read, an --out that
        # cannot be written; str() of a KeyError would quote its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
