"""gltkit benchmark: run one workload for a fixed time and print its metrics.

Run from the root of a checkout (the directory holding ``src/gltkit``)::

    python3 perfbench/run.py --workload rearrange_table2 --seed 1 --seconds 30 --trace 0

The loop is closed with one client: a job starts when the previous one has
returned.  A run makes at least two jobs, then more until the next one, at
the median job time so far, would end past ``--seconds``.  Set-up time is
measured in fresh interpreters before and after the jobs.  BLAS threads are
pinned through this process's own environment before numpy loads.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and prints the per-layer metrics of the traced
ones, with the tracing overhead (traced minus untraced median job time).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count correctness checks (a nonzero exit code of a CLI call is a failed
check).  Provenance, every job time and the per-layer shares go to the
lines before it and to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SIZES, WORKLOADS, Checks, Session, import_gltkit, load_reference  # noqa: E402

#: BLAS threads, capped by the CPUs this process may use.  One thread: on a
#: shared 2-CPU machine two threads made compare_dense jobs spread 14-18 s
#: against 16.5-18 s with one.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: fresh-interpreter set-ups before and again after the jobs; setup_s is the
#: median of all of them.  Machine speed drifts over tens of seconds, so the
#: samples are taken at both ends of the run.
SETUP_PROBES = 4

# per-layer metric: (span names, field of tracing.fold, unit)
LAYER_METRICS = {
    "cli.self_s": (("cli.main",), "self_s", "s"),
    "builders.build_s": (("builders.build",), "incl_s", "s"),
    "builders.build_calls": (("builders.build",), "calls", "count"),
    "builders.spectrum_calls": (("builders.spectrum",), "calls", "count"),
    "builders.spectrum_self_s": (("builders.spectrum",), "self_s", "s"),
    "linalg.sym_eig_s": (("linalg.sym_eig",), "incl_s", "s"),
    "linalg.sym_eig_calls": (("linalg.sym_eig",), "calls", "count"),
    "linalg.nonsym_eig_s": (("linalg.nonsym_eig",), "incl_s", "s"),
    "linalg.nonsym_eig_calls": (("linalg.nonsym_eig",), "calls", "count"),
    "linalg.pencil_eig_s": (("linalg.pencil_eig",), "incl_s", "s"),
    "linalg.pencil_eig_calls": (("linalg.pencil_eig",), "calls", "count"),
    "linalg.svd_s": (("linalg.svd",), "incl_s", "s"),
    "linalg.svd_calls": (("linalg.svd",), "calls", "count"),
    "linalg.norm_self_s": (("linalg.norm",), "self_s", "s"),
    "linalg.banded_solve_s": (("linalg.banded_solve",), "incl_s", "s"),
    "linalg.densify_s": (("linalg.densify",), "incl_s", "s"),
    "linalg.densify_bytes": (("linalg.densify",), "count", "B"),
    "linalg.dense_cubic_work": (("linalg.sym_eig", "linalg.nonsym_eig", "linalg.pencil_eig",
                                 "linalg.svd"), "count", "count"),
    "symbols.eval_s": (("symbols.eval",), "incl_s", "s"),
    "symbols.eval_points": (("symbols.eval",), "count", "count"),
    "symbols.rearrangement_self_s": (("symbols.rearrangement",), "self_s", "s"),
    "symbols.rearrangement_samples": (("symbols.rearrangement",), "count", "count"),
    "symbols.rearrangement_eval_s": (("symbols.rearrangement_eval",), "incl_s", "s"),
    "analysis.weyl_self_s": (("analysis.weyl",), "self_s", "s"),
    "analysis.rearrangement_compare_self_s": (("analysis.rearrangement_compare",), "self_s", "s"),
    "analysis.trend_self_s": (("analysis.trend",), "self_s", "s"),
    "certificates.self_s": (("certificates.run",), "self_s", "s"),
    "certificates.checks": (("certificates.run",), "count", "count"),
}
LAYERS = ("cli", "builders", "linalg", "symbols", "analysis", "certificates")


def pin_threads():
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def setup_probe(workload, size):
    """Import gltkit and resolve the workload's cases; returns seconds."""
    t0 = time.perf_counter()
    gl = import_gltkit()
    WORKLOADS[workload].resolve(gl, size)
    return time.perf_counter() - t0


def measure_setup(workload, size):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
             "--size", size],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def provenance(gl, args, threads):
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.dirname(gl.package.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "gltkit_version": gl.package.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "numpy_blas": blas(numpy),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "blas_threads": threads,
        "argv": sys.argv,
        "seed": args.seed,
        "seed_drives": WORKLOADS[args.workload].seed_drives,
    }


def layer_metrics(tracer_mod, spans, wall):
    folded = tracer_mod.fold(spans)
    out = {}
    for metric, (names, key, _unit) in LAYER_METRICS.items():
        out[metric] = sum(folded.get(n, {}).get(key, 0) for n in names)
    out["bench.unattributed_s"] = wall - tracer_mod.top_level_time(spans)
    shares = {layer: sum(v["self_s"] for n, v in folded.items() if n.split(".")[0] == layer) / wall
              for layer in LAYERS}
    shares["unattributed"] = out["bench.unattributed_s"] / wall
    return out, shares


def run(args):
    workload = WORKLOADS[args.workload]
    threads = pin_threads()
    setup_samples = measure_setup(args.workload, args.size)

    gl = import_gltkit()
    if not os.path.abspath(gl.package.__file__).startswith(os.path.join(os.getcwd(), "src")):
        raise SystemExit(f"imported gltkit from {gl.package.__file__}, not from ./src")
    import tracing

    reference = load_reference()
    cases = workload.resolve(gl, args.size)
    session = Session(gl, cases)
    # untimed warm-up at reduced size: first calls into each code path
    workload.job(session, "smoke", args.seed, Checks(), reference)

    checks = Checks()
    tracer = tracing.Tracer(gl)
    jobs = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        job = {"traced": traced}
        if traced:
            tracer.spans = []
            tracer.install()
            session.tracer = tracer
        try:
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span("bench.job"):
                        workload.job(session, args.size, args.seed, checks, reference)
                else:
                    workload.job(session, args.size, args.seed, checks, reference)
            except Exception as exc:  # a crashing job is a failed check, not a crashed run
                traceback.print_exc(file=sys.stderr)
                checks.expect(False, f"job raised {exc!r}")
            job["wall_s"] = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
                session.tracer = None
        if traced:
            job["layers"], job["shares"] = layer_metrics(tracing, tracer.spans, job["wall_s"])
        jobs.append(job)
        walls = [j["wall_s"] for j in jobs]
        if len(jobs) >= 2 and time.perf_counter() + statistics.median(walls) > deadline:
            break

    setup_samples += measure_setup(args.workload, args.size)

    untraced = [j["wall_s"] for j in jobs if not j["traced"]]
    traced_jobs = [j for j in jobs if j["traced"]]
    report = {
        "workload": args.workload, "size": args.size,
        "provenance": provenance(gl, args, threads),
        "loop": "closed, one client",
        "seconds": args.seconds,
        "setup_samples_s": setup_samples,
        "job_wall_s": [j["wall_s"] for j in jobs],
        "job_traced": [j["traced"] for j in jobs],
        "checks": {"attempted": checks.attempted, "failed": len(checks.failures),
                   "failures": checks.failures[:50]},
    }
    if args.trace:
        med = lambda key: statistics.median(j["layers"][key] for j in traced_jobs)
        metrics = {m: {"value": med(m), "unit": unit} for m, (_, _, unit) in LAYER_METRICS.items()}
        traced_wall = statistics.median(j["wall_s"] for j in traced_jobs)
        for name, value in (("bench.traced_job_s", traced_wall),
                            ("bench.unattributed_s", med("bench.unattributed_s")),
                            ("bench.trace_overhead_s", traced_wall - statistics.median(untraced))):
            metrics[name] = {"value": value, "unit": "s"}
        shares = {k: statistics.median(j["shares"][k] for j in traced_jobs)
                  for k in traced_jobs[0]["shares"]}
        predicted = sum(metrics[m]["value"] for m in workload.predicted_layers) / traced_wall
        report["layer_shares"] = shares
        report["prediction"] = {"metrics": list(workload.predicted_layers),
                                "share_of_traced_job": predicted,
                                "met": predicted > 0.5}
    else:
        metrics = {
            "job_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    report["metrics"] = metrics

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    path = os.path.join(HERE, "out", name)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    summary = {k: report[k] for k in ("provenance", "job_wall_s", "checks")}
    for k in ("layer_shares", "prediction"):
        if k in report:
            summary[k] = report[k]
    print(json.dumps(summary))
    print(f"report: {os.path.relpath(path)}")
    print(json.dumps({"correct": checks.attempted > 0 and not checks.failures,
                      "attempted": checks.attempted, "failed": len(checks.failures),
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "gltkit", "__init__.py")):
        print("error: run from the root of a gltkit checkout (no src/gltkit here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.setup_probe:
        print(setup_probe(args.workload, args.size))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
