"""Quantitative agreement between computed spectra and predicted symbols.

Three complementary diagnostics:

* Weyl test functionals: compare the spectral average (1/n) sum F(lambda_i)
  against the symbol's domain average of F(kappa), for compactly supported
  test functions F.
* Monotone-rearrangement comparison: sort the spectrum ascending and match
  it against uniform samples of the rearranged symbol; report the sup-norm
  mismatch and outliers beyond the essential range.
* Zero-distribution trend checks: Schatten-norm decay of correction terms
  relative to n^(1/p).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .builders import DiscretizationCase, uniform_grid
from .linalg import SpectralSet, schatten_norm
from .symbols import (SYMBOL_RECT, Rearrangement, SymbolExpr, SymbolSingularityError,
                      _grid_blocks, monotone_rearrangement, nonfinite_count, require_finite)


class UnboundedSymbolError(ValueError):
    """Rearrangement comparison is disabled: the symbol is unbounded."""


# ----------------------------------------------------------------------------
# test functions
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Compactly supported test function: a clipped monomial or a hat.

    Monomials evaluate (t/scale)^degree inside ``window`` and 0 outside;
    ``scale`` keeps functional gaps comparable across symbols of very
    different magnitude.  Hats rise linearly to 1 at ``center`` over a
    support of length ``width``.
    """

    kind: str
    degree: int = 0
    window: tuple = (0.0, 1.0)
    scale: float = 1.0
    center: float = 0.0
    width: float = 1.0
    label: str = ""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "monomial":
            lo, hi = self.window
            inside = (t >= lo) & (t <= hi)
            if self.degree == 0:
                return inside.astype(float)
            # powered and masked in place: a second array of the block's
            # size costs more than libm pow itself
            y = np.divide(t, self.scale, out=np.empty_like(t))
            if self.degree == 2:
                y *= y  # what ``** 2`` computes
            elif self.degree > 2:
                np.power(y, self.degree, out=y)
            y[~inside] = 0.0
            return y
        if self.kind == "hat":
            return np.maximum(0.0, 1.0 - np.abs(t - self.center) / (self.width / 2.0))
        raise ValueError(f"unknown test function kind {self.kind!r}")


def monomial(degree, window, scale=1.0) -> TestFunction:
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not (window[0] <= window[1]):
        raise ValueError("window must be ordered")
    label = f"t^{degree}" if scale == 1.0 else f"(t/{scale:.4g})^{degree}"
    return TestFunction("monomial", degree=degree, window=tuple(window),
                        scale=float(scale), label=label)


def hat(center, width) -> TestFunction:
    if width <= 0:
        raise ValueError("hat width must be positive")
    return TestFunction("hat", center=float(center), width=float(width),
                        label=f"hat({center:g},{width:g})")


def default_suite(lo, hi) -> list:
    """Normalized clipped monomials of degrees 0-3 on the range [lo, hi] of a
    symbol, widened on each side by 5 % of hi - lo, or of max(|lo|, 1) when
    the symbol is constant.

    The normalization divides out the larger magnitude of the window's ends
    so the functionals are dimensionless; with raw t^d the gaps of wide-range
    symbols would be dominated by the symbol magnitude cubed rather than by
    convergence.
    """
    m = 0.05 * (hi - lo if hi > lo else max(abs(lo), 1.0))
    window = (lo - m, hi + m)
    scale = max(abs(window[0]), abs(window[1]))
    return [monomial(d, window, scale) for d in range(4)]


# ----------------------------------------------------------------------------
# functionals
# ----------------------------------------------------------------------------

def empirical_functional(spectrum, F) -> float:
    """(1/n) sum F(values): the empirical side of the distribution limit."""
    values = spectrum.values if isinstance(spectrum, SpectralSet) else np.asarray(spectrum)
    return float(np.mean(F(values)))


#: the panels per axis of the Weyl quadrature grid when none is given
DEFAULT_QUAD_RES = 400


def _quadrature_axes(kappa: SymbolExpr, quad_res):
    """The x and theta axes of the 2-d quadrature grid on :data:`SYMBOL_RECT`.

    A symbol without a quotient takes a composite Gauss-Legendre rule with
    ``quad_res`` panels and two nodes per panel per axis (equal weights, so
    plain means are exact averages); a quotient symbol takes the
    cell-center rule, with singular cells excluded and the measure
    renormalized accordingly.
    """
    (x0, x1), (t0, t1) = SYMBOL_RECT
    centres = np.arange(quad_res) + 0.5
    if kappa.has_quotient:
        return x0 + (x1 - x0) * centres / quad_res, t0 + (t1 - t0) * centres / quad_res
    g = 1.0 / (2.0 * math.sqrt(3.0))  # 2-point Gauss offsets on a unit panel
    nodes = (centres[:, None] / quad_res + np.array([-g, g]) / quad_res).ravel()
    return x0 + (x1 - x0) * nodes, t0 + (t1 - t0) * nodes


#: a symbol on one quadrature grid: its kept and excluded points, least and greatest value
GridRange = namedtuple("GridRange", "count excluded lo hi")


def _grid_range(kappa: SymbolExpr, quad_res, absolute):
    """The :data:`GridRange` of ``kappa`` (of its moduli with ``absolute``) on the grid of
    ``quad_res`` panels, from one pass over its blocks (lo, hi = inf, -inf if none is kept).
    NaN or infinite values raise SymbolSingularityError with their number."""
    axes = _quadrature_axes(kappa, quad_res)
    count, lo, hi = 0, math.inf, -math.inf
    for values in _grid_blocks(kappa, axes, absolute):
        count += values.size
        lo, hi = values.min(initial=lo), values.max(initial=hi)  # a NaN stays
    if count and not (math.isfinite(lo) and math.isfinite(hi)):  # a second pass counts them
        require_finite(sum(map(nonfinite_count, _grid_blocks(kappa, axes, absolute))))
    return GridRange(count, axes[0].size * axes[1].size - count, float(lo), float(hi))


def _streamed_means(kappa: SymbolExpr, quad_res, absolute, count, Fs):
    """The mean of each F of ``Fs`` over the ``count`` kept values of ``kappa`` on
    the grid of ``quad_res`` panels, in one pass, F taking each chunk of 2^17
    values (1/16 of them when that is fewer)."""
    # the chunk boundaries fix the bits of every symbol-side value: this
    # partition stays when the evaluation blocks change
    step = max(1, min(1 << 17, count // 16))
    sums, seen = [[] for _ in Fs], 0
    for chunk in _grid_blocks(kappa, _quadrature_axes(kappa, quad_res), absolute, step):
        seen += chunk.size
        for F, parts in zip(Fs, sums):
            parts.append(float(np.sum(F(chunk))))
    if seen != count:
        raise RuntimeError(f"the grid gave {seen} of its {count} values: the samples changed")
    return [math.fsum(parts) / count for parts in sums]


# ----------------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalGap:
    label: str
    empirical: float
    symbol_value: float

    @property
    def gap(self):
        return abs(self.empirical - self.symbol_value)


@dataclass(frozen=True)
class DistributionReport:
    """Agreement summary between one spectrum and its predicted symbol."""

    case: str
    n: int
    alpha_n: float
    mode: str
    functionals: tuple = ()
    rearrangement_gap: float | None = None
    rearrangement_gap_rel: float | None = None
    outlier_count: int | None = None
    outlier_values: tuple = ()
    spectrum: SpectralSet | None = field(default=None, repr=False)
    overlay: tuple = field(default=(), repr=False)  # (t_i, symbol sample, eigenvalue)
    quad_rule: str = ""
    quad_res: int = 0
    quad_refinement: float | None = None
    quad_excluded: int | None = None  # full-grid points a division guard drops
    backing: str = ""
    rearrangement: Rearrangement | None = field(default=None, repr=False)

    def max_gap(self):
        return max((f.gap for f in self.functionals), default=0.0)

    def to_json_dict(self):
        return {
            "case": self.case,
            "n": self.n,
            "alpha_n": self.alpha_n,
            "mode": self.mode,
            "functionals": [
                {"label": f.label, "empirical": f.empirical,
                 "symbol": f.symbol_value, "gap": f.gap}
                for f in self.functionals
            ],
            "rearrangement_gap": self.rearrangement_gap,
            "rearrangement_gap_rel": self.rearrangement_gap_rel,
            "outliers": {"count": self.outlier_count, "values": list(self.outlier_values)},
            "rearrangement": (self.rearrangement.to_json_dict()
                              if self.rearrangement is not None else None),
            "quadrature": {"rule": self.quad_rule, "resolution": self.quad_res,
                           "refinement_gap": self.quad_refinement,
                           "excluded": self.quad_excluded},
            "backing": self.backing,
            "solver": self.spectrum.solver if self.spectrum is not None else None,
        }


def _backing(case: DiscretizationCase, solver: str, mode: str) -> str:
    """The theory behind the predicted distribution, read off the solved
    operand first: a symmetric one is Hermitian, whatever the case declares;
    another is a Hermitian part plus a vanishing-norm split where the case
    declares corrections (``companions``), else what its solver path says."""
    if mode == "sigma":
        return "sigma distribution (symbol algebra)"
    if solver.startswith(("sym_", "pencil_")):
        return "lambda distribution (Hermitian)"
    if case.companions:
        return "lambda distribution (Hermitian + vanishing-norm split)"
    if solver.startswith("similarity_"):
        return "lambda distribution (similar to Hermitian)"
    return "exploratory (no Hermitian split registered)"


@dataclass(frozen=True)
class SymbolSamples:
    """The :data:`GridRange` of the symbol ``kappa`` (of its moduli in sigma
    mode) on the Weyl quadrature grid (``full``) and on its coarse half
    (``coarse``); :meth:`symbol_sides` evaluates the values again and holds
    none.  It depends on ``kappa``, ``mode`` and ``quad_res`` but not on n,
    so one serves every n of a case, and so does each F's symbol side."""

    kappa: SymbolExpr
    mode: str
    quad_rule: str
    quad_res: int
    full: GridRange
    coarse: GridRange
    _symbol_sides: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def default_suite(self):
        """:func:`default_suite` of the range of ``full``: the test functions
        of :func:`weyl_compare` when it is given none."""
        return default_suite(self.full.lo, self.full.hi)

    def symbol_sides(self, Fs):
        """``(mean F(full), |mean F(full) - mean F(coarse)|, None if it keeps no point)``
        for each F of ``Fs``: one streamed pass over each grid for all the F not seen yet."""
        new = [F for F in dict.fromkeys(Fs) if F not in self._symbol_sides]
        if new:
            full, coarse = (_streamed_means(self.kappa, res, self.mode == "sigma", grid.count, new)
                            if grid.count else [None] * len(new)
                            for res, grid in ((self.quad_res, self.full),
                                              (self.quad_res // 2, self.coarse)))
            for F, sym, rough in zip(new, full, coarse):
                self._symbol_sides[F] = (sym, None if rough is None else abs(sym - rough))
        return [self._symbol_sides[F] for F in Fs]


def symbol_samples(kappa: SymbolExpr, mode="lambda", quad_res=DEFAULT_QUAD_RES) -> SymbolSamples:
    """Range :func:`weyl_compare`'s quadrature grids of ``kappa`` (a case's ``predicted_symbol``);
    a complex one raises ComplexSymbolError in lambda mode, NaN or infinite samples
    SymbolSingularityError, and a ``quad_res`` below 2 (no coarser grid to refine) ValueError."""
    if mode not in ("lambda", "sigma"):
        raise ValueError("mode must be 'lambda' or 'sigma'")
    if quad_res < 2:
        raise ValueError(f"quad_res must be >= 2, got {quad_res}")
    full = _grid_range(kappa, quad_res, mode == "sigma")
    if full.count == 0:
        raise SymbolSingularityError("the symbol is singular at every grid point")
    coarse = _grid_range(kappa, quad_res // 2, mode == "sigma")
    rule = "midpoint" if kappa.has_quotient else "gauss"
    return SymbolSamples(kappa, mode, rule, int(quad_res), full, coarse)


def weyl_compare(case: DiscretizationCase, ns, F_suite=None, mode="lambda",
                 quad_res=DEFAULT_QUAD_RES) -> list:
    """Test-functional comparison of the spectrum of alpha_n A_n with the
    predicted symbol, one :class:`DistributionReport` per n of ``ns``.

    ``mode`` selects eigenvalues ("lambda") or singular values ("sigma");
    sigma mode compares against F(|kappa|) as the distribution definition
    prescribes.  The symbol is sampled once, and each F's symbol side taken
    once, for every n; each n is solved once.  ``F_suite`` defaults to
    :meth:`SymbolSamples.default_suite`.
    """
    samples = symbol_samples(case.predicted_symbol, mode, quad_res)
    if F_suite is None:
        F_suite = samples.default_suite()
    solve = case.singular_spectrum if mode == "sigma" else case.spectrum
    return [_weyl_report(case, n, solve(n), samples, F_suite) for n in ns]


def _weyl_report(case, n, spectrum, samples, F_suite) -> DistributionReport:
    """The Weyl report of the ``spectrum`` of alpha_n A_n against the
    :class:`SymbolSamples` of the case's symbol, in the samples' mode."""
    sides = samples.symbol_sides(F_suite)
    gaps = [FunctionalGap(F.label, empirical_functional(spectrum, F), sym)
            for F, (sym, _) in zip(F_suite, sides)]
    return DistributionReport(
        case=case.name, n=int(n), alpha_n=float(case.alpha(n)), mode=samples.mode,
        functionals=tuple(gaps), spectrum=spectrum,
        quad_rule=samples.quad_rule, quad_res=samples.quad_res,
        quad_refinement=max((d for _, d in sides), default=0.0) if samples.coarse.count else None,
        quad_excluded=samples.full.excluded,
        backing=_backing(case, spectrum.solver, samples.mode),
    )


def outlier_count(spectrum, lo, hi, eps):
    """Spectrum entries outside [lo - eps, hi + eps]; returns (count, values)."""
    values = spectrum.values if isinstance(spectrum, SpectralSet) else np.asarray(spectrum)
    mask = (values < lo - eps) | (values > hi + eps)
    out = values[mask]
    return int(out.size), [float(v) for v in out]


#: the lattice parameter r of a rearrangement when none is given (table 2's)
DEFAULT_R = 5000


def rearrangement_nodes(ns):
    """The points i/n, i = 1..n, at which :func:`rearrangement_compare` reads
    the rearrangement, for each n of ``ns``: the ``ts`` to build it for."""
    return np.concatenate([uniform_grid(n) for n in ns])


def _unbounded_refusal(case: DiscretizationCase):
    """Why ``case`` has no rearrangement comparison, None when its symbol is bounded."""
    if case.predicted_symbol.bounded:
        return None
    return (f"case {case.name}: the symbol is unbounded (essential sup is infinite); "
            "use sigma-mode Weyl comparison on a bounded window instead")


def rearrangement_compare(case: DiscretizationCase, ns, r=DEFAULT_R) -> list:
    """Sorted-spectrum vs rearranged-symbol comparison, one
    :class:`DistributionReport` per n of ``ns``.

    e_n: eigenvalues of alpha_n A_n ascending; s_n: rearrangement samples at
    i/n.  Reports the sup-norm gap, its scale-free version (divided by the
    magnitude of the essential range; None when that is 0), and outliers
    beyond the essential range by more than 1e-8.  One rearrangement on the
    r x r lattice serves every n, each n is solved once, and complex spectra
    surface as ComplexSpectrumError; an unbounded symbol raises
    UnboundedSymbolError."""
    refusal = _unbounded_refusal(case)
    if refusal:
        raise UnboundedSymbolError(refusal)
    rearr = monotone_rearrangement(case.predicted_symbol, r, rearrangement_nodes(ns))
    return [_rearrangement_report(case, n, case.spectrum(n), rearr) for n in ns]


def _rearrangement_report(case, n, spectrum, rearr) -> DistributionReport:
    """The rearrangement report of the eigenvalues ``spectrum`` of alpha_n A_n
    against ``rearr``, built for the :func:`rearrangement_nodes` of n."""
    t = uniform_grid(n)
    s = rearr(t)
    e = spectrum.values
    gap = float(np.max(np.abs(s - e)))
    scale = max(abs(rearr.ess_inf), abs(rearr.ess_sup))
    count, values = outlier_count(spectrum, rearr.ess_inf, rearr.ess_sup, 1e-8)
    return DistributionReport(
        case=case.name, n=int(n), alpha_n=float(case.alpha(n)), mode="lambda",
        rearrangement_gap=gap, rearrangement_gap_rel=gap / scale if scale else None,
        outlier_count=count, outlier_values=tuple(values),
        spectrum=spectrum, overlay=(t, s, e),
        backing=_backing(case, spectrum.solver, "lambda"), rearrangement=rearr,
    )


# ----------------------------------------------------------------------------
# zero-distribution diagnostics
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendReport:
    """Schatten-norm decay check for a correction-term family."""

    p: float
    ns: tuple
    norms: tuple
    ratios: tuple          # ||Z_n||_p / n^(1/p)
    decay_threshold: float
    monotone: bool
    overall_pass: bool


DECAY_THRESHOLD = 2.0


def zero_distribution_check(build, ns, p=2.0) -> TrendReport:
    """Check that ||Z_n||_p = o(n^(1/p)) holds in trend over ``ns``.

    PASS requires the ratios ||Z_n||_p / n^(1/p) to decrease monotonically
    with the last below the first divided by ``DECAY_THRESHOLD``.
    """
    ns = tuple(int(n) for n in ns)
    norms, ratios = [], []
    for n in ns:
        z = schatten_norm(build(n), p)
        norms.append(z)
        ratios.append(z / n ** (1.0 / p) if not np.isinf(p) else z)
    ratios = tuple(ratios)
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(ratios, ratios[1:]))
    decayed = ratios[-1] < ratios[0] / DECAY_THRESHOLD if ratios[0] > 0 else True
    return TrendReport(
        p=float(p), ns=ns, norms=tuple(norms), ratios=ratios,
        decay_threshold=DECAY_THRESHOLD, monotone=monotone, overall_pass=monotone and decayed,
    )
