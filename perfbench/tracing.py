"""Span recording around the calls into each gltkit module.

Nothing here changes gltkit itself.  ``Tracer.install`` replaces each
traced function by a wrapper in every gltkit namespace that holds it (the
importing module's namespace is where a call looks it up), and each traced
method on its class; ``Tracer.uninstall`` puts the originals back.  A span
is (name, start, end, parent, count).  Self time is a span's duration minus
the time its child spans cover; calls run on one thread, so children nest
strictly and covered time is the sum of their durations.

Span names are ``<layer>.<kind>``; the layers are the package's modules.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import time

import numpy as np


@dataclasses.dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int = -1
    count: float = 0.0


def _banded(A):
    return hasattr(A, "bands")  # gltkit.linalg.BandedMatrix


def _cubic(args, kwargs, result):
    """n^3 of a call that always reaches a dense O(n^3) LAPACK routine."""
    A = args[0]
    return float(A.n if _banded(A) else np.shape(A)[0]) ** 3


def _sym_cubic(args, kwargs, result):
    """n^3 when the symmetric solver gets a dense matrix (band storage takes
    the tridiagonal or banded routine)."""
    return 0.0 if _banded(args[0]) else _cubic(args, kwargs, result)


def _densify_bytes(args, kwargs, result):
    """Computed, not measured: n^2 doubles per densified BandedMatrix."""
    A = args[0]
    return 8.0 * A.n ** 2 if _banded(A) else 0.0


def _eval_points(args, kwargs, result):
    return float(math.prod(np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))))


# (span name, defining module, public function names, counter).  Every
# gltkit module namespace that holds one of these objects gets the wrapper.
_FUNCTION_SPANS = (
    ("cli.main", "cli", ("main",), None),
    ("builders.build", "builders",
     ("toeplitz", "arrow_sampling", "diag_sampling", "fd_nonuniform_matrix"), None),
    ("linalg.sym_eig", "linalg", ("sym_eigvals", "sym_eigpairs"), _sym_cubic),
    ("linalg.nonsym_eig", "linalg", ("nonsym_eigvals",), _cubic),
    ("linalg.pencil_eig", "linalg", ("generalized_sym_eigvals",), _cubic),
    ("linalg.svd", "linalg", ("singular_values",), _cubic),
    ("linalg.norm", "linalg", ("schatten_norm", "spectral_norm"), None),
    ("linalg.banded_solve", "linalg", ("solve_spd_banded", "spd_cholesky_banded"), None),
    ("linalg.densify", "linalg", ("as_dense",), _densify_bytes),
    ("symbols.rearrangement", "symbols", ("monotone_rearrangement",),
     lambda a, k, r: float(r.node_count - 1)),
    ("analysis.weyl", "analysis", ("weyl_compare",), None),
    ("analysis.rearrangement_compare", "analysis", ("rearrangement_compare",), None),
    ("analysis.trend", "analysis", ("zero_distribution_check",), None),
    ("certificates.run", "certificates", ("run_certificates",), lambda a, k, r: float(len(r))),
)

# Functions that return a DiscretizationCase.  They get no span; the case
# they return carries traced ``build`` and companion callables instead,
# because those are closures that no namespace lookup reaches.
_CASE_FACTORIES = ("get_case", "fd_cdr_dirichlet", "fd_cdr_neumann", "fd_nondiv",
                   "fd_fourth_order_scheme")

_MODULES = ("package", "cli", "builders", "linalg", "symbols", "analysis", "certificates")

_TRACED = "_perfbench_traced"


class Tracer:
    """Records spans while installed."""

    def __init__(self, gl):
        self.gl = gl
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span = Span(name, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        setattr(traced, _TRACED, True)
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def traced_case(self, case):
        """Copy of ``case`` whose build and companions record build spans."""
        if getattr(case.build, _TRACED, False):
            return case
        companions = {k: self.wrap(v, "builders.build") for k, v in case.companions.items()}
        return dataclasses.replace(case, build=self.wrap(case.build, "builders.build"),
                                   companions=companions)

    # -- installation ------------------------------------------------------

    def install(self):
        gl = self.gl
        modules = [getattr(gl, m) for m in _MODULES]

        def everywhere(attr, original, wrapped):
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapped)

        for name, home, attrs, count in _FUNCTION_SPANS:
            for attr in attrs:
                original = getattr(getattr(gl, home), attr)
                everywhere(attr, original, self.wrap(original, name, count))
        for attr in _CASE_FACTORIES:
            original = getattr(gl.builders, attr)
            everywhere(attr, original, self._case_factory(original))
        case_cls = gl.builders.DiscretizationCase
        for attr in ("spectrum", "complex_spectrum", "singular_spectrum"):
            self._set(case_cls, attr, self.wrap(case_cls.__dict__[attr], "builders.spectrum"))
        for cls, attr, name, count in (
                (gl.symbols.SymbolExpr, "eval_masked", "symbols.eval", _eval_points),
                (gl.symbols.Rearrangement, "__call__", "symbols.rearrangement_eval", None)):
            self._set(cls, attr, self.wrap(cls.__dict__[attr], name, count))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _case_factory(self, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.traced_case(factory(*args, **kwargs))
        return traced_factory


# ----------------------------------------------------------------------------
# folding one job's spans into per-layer metrics
# ----------------------------------------------------------------------------

def fold(spans):
    """Per-name totals over one job's spans, ``spans[0]`` being the job.

    Returns ``{name: {"calls", "incl_s", "self_s", "count"}}`` where
    ``calls`` and ``incl_s`` cover only spans with no ancestor of the same
    name (so nested wrappers are not counted twice), ``self_s`` sums every
    span's self time, and ``count`` sums the recorded counts.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = {}
    for i, s in enumerate(spans[1:], start=1):
        agg = out.setdefault(s.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "count": 0.0})
        agg["self_s"] += (s.end - s.start) - child_time[i]
        agg["count"] += s.count
        if not _has_ancestor_named(spans, i, s.name):
            agg["calls"] += 1
            agg["incl_s"] += s.end - s.start
    return out


def top_level_time(spans):
    """Time covered by the direct children of the job span ``spans[0]``."""
    return sum(s.end - s.start for s in spans if s.parent == 0)


def _has_ancestor_named(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
