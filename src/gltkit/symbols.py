"""Symbols living on [0,1] x [-pi,pi]: trig polynomials in theta, coefficient
functions in x, and algebraic combinations kappa(x,theta) of the two.

The central numerical object is the monotone rearrangement of a real symbol:
sample kappa on a uniform lattice of the domain rectangle, sort the samples
ascending, and interpolate them piecewise linearly over equally spaced nodes
of [0,1].  The resulting nondecreasing function converges uniformly to the
rearranged symbol as the sampling parameter grows, with the endpoints
approaching the essential infimum and supremum.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

#: divisions with |denominator| below this guard count as singular points
DIV_GUARD = 1e-13


class SymbolSingularityError(ArithmeticError):
    """Symbol evaluation hit a division singularity."""


class ComplexSymbolError(TypeError):
    """A real-valued symbol was required (e.g. for rearrangement)."""


# ----------------------------------------------------------------------------
# trigonometric polynomials
# ----------------------------------------------------------------------------

class TrigPoly:
    """Trigonometric polynomial f(theta) = sum_{k=-r}^{r} c_k e^{i k theta}.

    ``coeffs`` holds (c_{-r}, ..., c_0, ..., c_r).  The polynomial is flagged
    real-valued when the coefficients are Hermitian, c_{-k} = conj(c_k).
    """

    def __init__(self, coeffs):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if coeffs.size % 2 != 1:
            raise ValueError("need an odd number of coefficients c_{-r}..c_r")
        self.coeffs = coeffs
        self.degree = coeffs.size // 2
        self.real_valued = bool(np.allclose(coeffs, np.conj(coeffs[::-1]), atol=1e-15))

    @classmethod
    def from_cosines(cls, cosine_coeffs):
        """Build a0 + a1 cos(theta) + a2 cos(2 theta) + ... (always real-valued)."""
        a = np.asarray(cosine_coeffs, dtype=float)
        r = a.size - 1
        c = np.zeros(2 * r + 1, dtype=complex)
        c[r] = a[0]
        for k in range(1, r + 1):
            c[r + k] = c[r - k] = a[k] / 2.0
        return cls(c)

    @classmethod
    def sine(cls):
        """sin(theta) = (e^{i theta} - e^{-i theta}) / (2i)."""
        return cls([0.5j, 0.0, -0.5j])

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = self.degree
        if self.real_valued:
            # anchored form f(0) - 4 sum Re(c_k) sin^2(k theta/2) - 2 sum Im(c_k)
            # sin(k theta): analytically identical to the Fourier sum but free
            # of the O(1) cancellation at the stencil zeros near theta = 0
            at_zero = math.fsum([self.coeffs[r].real] + [2.0 * self.coeffs[r + k].real
                                                         for k in range(1, r + 1)])
            out = np.full(theta.shape, at_zero, dtype=float)
            for k in range(1, r + 1):
                ck = self.coeffs[r + k]
                out = out - 4.0 * ck.real * np.sin(k * theta / 2.0) ** 2 \
                          - 2.0 * ck.imag * np.sin(k * theta)
            return out
        out = np.full(theta.shape, self.coeffs[r], dtype=complex)
        for k in range(1, r + 1):
            out = out + self.coeffs[r + k] * np.exp(1j * k * theta) \
                      + self.coeffs[r - k] * np.exp(-1j * k * theta)
        return out

    def __repr__(self):
        return f"TrigPoly(degree={self.degree}, real_valued={self.real_valued})"


#: symbols of the standard stencils used throughout the builders
LAPLACE_SYMBOL = TrigPoly.from_cosines([2.0, -2.0])            # 2 - 2 cos
FOURTH_DERIVATIVE_SYMBOL = TrigPoly.from_cosines([6.0, -8.0, 2.0])   # 6 - 8 cos + 2 cos 2t
FOURTH_ORDER_LAPLACE_SYMBOL = TrigPoly.from_cosines([30 / 12, -32 / 12, 2 / 12])
MASS_SYMBOL = TrigPoly.from_cosines([2 / 3, 1 / 3])            # (2 + cos)/3
SIN_SYMBOL = TrigPoly.sine()


# ----------------------------------------------------------------------------
# coefficient functions on [0, 1]
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class _Interp:
    """np.interp through the float64 knots xs and values, held as bytes so
    that two tables of the same knots are equal functions."""

    xs: bytes
    values: bytes

    def __call__(self, x):
        return np.interp(x, np.frombuffer(self.xs), np.frombuffer(self.values))


@dataclass(frozen=True)
class Coefficient:
    """Real function a(x) on [0,1] with regularity metadata.

    ``regularity`` is one of "continuous", "ae_continuous", "L1"; only the
    last admits unbounded values.  ``exact_modulus`` and ``sup`` optionally
    supply the true modulus of continuity and max |a| on [0,1] for
    certificate checks, and ``inf`` the exact min |a| on [0,1]: a symbol
    that divides by a is bounded only when it is positive.
    """

    name: str
    fn: callable = field(repr=False)
    regularity: str = "continuous"
    exact_modulus: callable | None = field(default=None, repr=False)
    sup: float | None = None
    inf: float | None = None
    singular_points: tuple = ()

    def __post_init__(self):
        if self.regularity not in ("continuous", "ae_continuous", "L1"):
            raise ValueError(f"unknown regularity tag {self.regularity!r}")

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    @property
    def bounded(self):
        return self.regularity != "L1"

    @classmethod
    def from_table(cls, xs, values, name="table"):
        """Piecewise-linear coefficient through (xs, values), xs ascending in [0,1]."""
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
            raise ValueError("need matching 1-d x/value columns with >= 2 rows")
        bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(values)))
        if bad.size:
            raise ValueError(f"row {bad[0] + 1} of the x/value table is not finite: "
                             f"x = {xs[bad[0]]}, value = {values[bad[0]]}")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("x column must be strictly ascending")
        if xs[0] < 0 or xs[-1] > 1:
            raise ValueError("x values must lie in [0, 1]")
        # piecewise-linear data attain their sup at the knots, and their inf
        # there too unless they change sign between two of them
        changes_sign = values.min() < 0 < values.max()
        return cls(name, _Interp(xs.tobytes(), values.tobytes()), "continuous",
                   sup=float(np.max(np.abs(values))),
                   inf=0.0 if changes_sign else float(np.min(np.abs(values))))

    @classmethod
    def from_csv(cls, path):
        """Load a table coefficient from a CSV with header ``x,value``; a
        file without a header or without rows raises ValueError."""
        with open(path) as f:
            lines = f.readlines()
        if not any(line.strip() for line in lines):  # genfromtxt fails on it with IndexError
            raise ValueError(f"coefficient CSV {path} is empty: it needs header 'x,value' "
                             "and rows")
        data = np.genfromtxt(lines, delimiter=",", names=True)
        if data.dtype.names is None or tuple(data.dtype.names) != ("x", "value"):
            raise ValueError("coefficient CSV needs header 'x,value'")
        return cls.from_table(data["x"], data["value"], name=f"csv:{path}")


def _omega_linear(delta):
    return float(min(delta, 1.0))


def _omega_xexp(delta):
    # x e^{-x} is increasing on [0,1] with decreasing slope, so the largest
    # increment over a delta-window sits at the left endpoint.
    d = min(delta, 1.0)
    return float(d * np.exp(-d))


def _omega_expx(delta):
    d = min(delta, 1.0)
    return float(np.e - np.exp(1.0 - d))


COEFFICIENT_PRESETS = {
    "one": Coefficient("one", lambda x: np.ones_like(x), "continuous", lambda d: 0.0, 1.0, 1.0),
    "x": Coefficient("x", lambda x: x, "continuous", _omega_linear, 1.0, 0.0),
    "xexp": Coefficient("xexp", lambda x: x * np.exp(-x), "continuous", _omega_xexp,
                        math.exp(-1.0), 0.0),
    "1+x": Coefficient("1+x", lambda x: 1.0 + x, "continuous", _omega_linear, 2.0, 1.0),
    "expx": Coefficient("expx", np.exp, "continuous", _omega_expx, math.e, 1.0),
    "zero": Coefficient("zero", lambda x: np.zeros_like(x), "continuous", lambda d: 0.0, 0.0,
                        0.0),
}


def coefficient_preset(name: str) -> Coefficient:
    """Resolve a preset name or ``csv:PATH`` spec to a Coefficient."""
    if name in COEFFICIENT_PRESETS:
        return COEFFICIENT_PRESETS[name]
    if name.startswith("csv:"):
        return Coefficient.from_csv(name[4:])
    raise KeyError(
        f"unknown coefficient {name!r}; presets: {sorted(COEFFICIENT_PRESETS)} or csv:PATH"
    )


# ----------------------------------------------------------------------------
# symbol expression trees
# ----------------------------------------------------------------------------

class SymbolExpr:
    """Node of a symbol expression tree over (x, theta).

    Evaluation broadcasts numpy-style, so passing x with shape (m, 1) and
    theta with shape (1, n) evaluates the symbol on the full m-by-n grid
    while x-only and theta-only subtrees stay one-dimensional.
    """

    is_real: bool = True
    has_quotient: bool = False
    #: False for a subtree of theta alone, which a grid evaluates once
    reads_x: bool = True
    #: essentially bounded on :data:`SYMBOL_RECT`, as far as the tree shows
    bounded: bool = True

    def _eval(self, x, theta, invalid, out=None):
        """Values at (x, theta); division guards append their masks to
        ``invalid``.  A node may write its real result into ``out``, a
        float array of the full broadcast shape; its children are evaluated
        without one."""
        raise NotImplementedError

    def __call__(self, x, theta):
        """Evaluate without singularity tracking; NaN marks singular points."""
        vals, invalid = self.eval_masked(x, theta)
        if invalid is not None and np.any(invalid):
            vals = np.where(invalid, np.nan, vals)
        return vals

    def eval_masked(self, x, theta, out=None):
        """Evaluate on broadcastable arrays, returning (values, invalid_mask).

        ``invalid_mask`` is None when no division guard was tripped.  A real
        result of the full broadcast shape may be written into ``out``, a
        float array of that shape, and the values returned are then ``out``
        itself.
        """
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        invalid = []
        vals = self._eval(x, theta, invalid, out)
        if not invalid:
            return vals, None
        mask = invalid[0]
        for m in invalid[1:]:
            mask = mask | m
        mask = np.broadcast_to(mask, np.broadcast_shapes(np.shape(vals), mask.shape))
        return vals, mask


def _as_symbol(value):
    if isinstance(value, SymbolExpr):
        return value
    if isinstance(value, Coefficient):
        return CoeffFactor(value)
    if isinstance(value, TrigPoly):
        return TrigFactor(value)
    if np.isscalar(value):
        return TrigFactor(TrigPoly([complex(value)]))
    raise TypeError(f"cannot use {value!r} as a symbol factor")


class CoeffFactor(SymbolExpr):
    """A coefficient a(x) as a symbol factor.  A constant one, whose exact
    modulus vanishes (omega_a(1) = sup |a(x) - a(y)| = 0), does not read x,
    so a grid evaluates it once with the theta-only subtrees."""

    def __init__(self, coefficient: Coefficient):
        self.coefficient = coefficient
        self.bounded = coefficient.bounded
        modulus = coefficient.exact_modulus
        self.reads_x = modulus is None or modulus(1.0) != 0

    def _eval(self, x, theta, invalid, out=None):
        # x is None where the factor does not read x: any point of [0, 1] serves
        return self.coefficient(0.0 if x is None else x)

    def __str__(self):
        return f"{self.coefficient.name}(x)"


class TrigFactor(SymbolExpr):
    def __init__(self, poly: TrigPoly):
        self.poly = poly
        self.is_real = poly.real_valued
        self.reads_x = False

    def _eval(self, x, theta, invalid, out=None):
        return self.poly(theta)

    def __str__(self):
        """The cosine/sine form, e.g. ``2-2cos(theta)``, from c_k e^{ik theta}
        + c_{-k} e^{-ik theta} = (c_k + c_{-k}) cos + i (c_k - c_{-k}) sin."""
        c, r, text = self.poly.coeffs, self.poly.degree, ""
        terms = [(c[r], "")]
        for k in range(1, r + 1):
            arg = "theta" if k == 1 else f"{k}theta"
            terms += [(c[r + k] + c[r - k], f"cos({arg})"), (1j * (c[r + k] - c[r - k]), f"sin({arg})")]
        for v, f in (t for t in terms if t[0] != 0):
            num = f"{v.real:g}" if v.imag == 0 else f"({v:g})"
            num = num[:-1] if f and num in ("1", "-1") else num
            text += ("+" if text and not num.startswith("-") else "") + num + f
        return text or "0"


class _Node(SymbolExpr):
    """A node of the symbol algebra over its ``children``: real and bounded
    when they all are (a Quot: when its numerator is bounded and
    :func:`_stays_off_zero` holds), reading x when one does, with a quotient
    when one has one or it is a Quot.  ``kind`` names it and ``arity`` fixes
    their number (None: any)."""

    kind: str
    arity: int | None = None

    def __init__(self, *children):
        if self.arity is not None and len(children) != self.arity:
            raise ValueError(f"a {self.kind} node takes {self.arity} child node(s), "
                             f"got {len(children)}")
        self.children = children
        self.is_real = all(c.is_real for c in children)
        self.has_quotient = self.kind == "quot" or any(c.has_quotient for c in children)
        self.reads_x = any(c.reads_x for c in children)
        self.bounded = (children[0].bounded and _stays_off_zero(*children) if self.kind == "quot"
                        else all(c.bounded for c in children))


class Sum(_Node):
    kind = "sum"

    def _eval(self, x, theta, invalid, out=None):
        return _fold(np.add, self.children, x, theta, invalid, out)

    def __str__(self):
        return " + ".join(str(t) for t in self.children)


class Prod(_Node):
    kind = "prod"

    def _eval(self, x, theta, invalid, out=None):
        return _fold(np.multiply, self.children, x, theta, invalid, out)

    def __str__(self):
        return " * ".join(f"({f})" for f in self.children)


class Quot(_Node):
    """Quotient node (numerator, denominator); construct through
    :func:`divide` so that the a.e. nonzero declaration on the denominator
    is explicit."""

    kind, arity = "quot", 2

    def _eval(self, x, theta, invalid, out=None):
        num, den = self.children
        nv, dv = num._eval(x, theta, invalid), den._eval(x, theta, invalid)
        small = np.absolute(dv) < DIV_GUARD
        if np.any(small):
            invalid.append(small)
            dv = np.where(small, 1.0, dv)
        return _apply(np.divide, nv, dv, out=out)

    def __str__(self):
        return "({}) / ({})".format(*self.children)


def _leaf_product(node):
    """A product of leaves as its Coefficients and the product of its trig
    polynomials, (c_-r, ..., c_r); None for any other node."""
    if isinstance(node, CoeffFactor):
        return [node.coefficient], np.ones(1)
    if isinstance(node, TrigFactor):
        return [], node.poly.coeffs
    forms = [_leaf_product(c) for c in node.children] if isinstance(node, Prod) else [None]
    if None in forms:
        return None
    return [c for f in forms for c in f[0]], math.prod(np.poly1d(f[1]) for f in forms).coeffs


def _stays_off_zero(num, den):
    """Whether ``den``, a product of leaves, stays off 0 on the symbol's
    rectangle after cancelling with ``num`` its equal Coefficients, and its
    polynomial if that divides ``num``'s (sin^2 / (2 - 2cos) = (1 + cos) / 2):
    if the Coefficients left declare inf > 0 and the polynomial left, less
    terms below 1e-12 of the largest, has a term outweighing the rest (no
    np.roots, whose LAPACK costs 0.9 MB of RSS) or no root within 1e-3
    (eps^(1/m) at multiplicity m) of |z| = 1, z = e^{i theta}."""
    (top, upper), (bottom, poly) = _leaf_product(num) or ([], None), _leaf_product(den) or ([], [])
    for coefficient in bottom:
        if coefficient in top:
            top.remove(coefficient)
        elif not (coefficient.inf or 0) > 0:
            return False
    scale = np.abs(poly).max(initial=0.0)
    if not scale > np.finfo(float).tiny:  # not a product of leaves, or too small to scale
        return False
    poly = np.trim_zeros(np.where(np.abs(poly) > 1e-12 * scale, poly / scale, 0))
    if upper is not None and np.all(np.abs(np.polydiv(upper, poly)[1])
                                    <= 1e-12 * np.abs(upper).max()):
        return True
    if np.abs(poly).sum() < 1.999:  # the largest term, 1, outweighs the rest, rounding aside
        return True
    return not np.any(np.abs(np.abs(np.roots(poly)) - 1) <= 1e-3)


class Conj(_Node):
    kind, arity = "conj", 1

    def _eval(self, x, theta, invalid, out=None):
        return _apply(np.conjugate, self.children[0]._eval(x, theta, invalid), out=out)

    def __str__(self):
        return f"conj({self.children[0]})"


class _Fixed(SymbolExpr):
    """A subtree of theta alone, evaluated once on a grid's theta axis: its
    values and the masks its division guards tripped; its flags go unread."""

    def __init__(self, node, theta):
        self.invalid = []
        self.values = node._eval(None, theta, self.invalid)

    def _eval(self, x, theta, invalid, out=None):
        invalid.extend(self.invalid)
        return self.values


def _bind_theta(node, theta):
    """``node`` with each largest subtree that does not read x replaced by
    its values on ``theta``, so a grid evaluated in blocks of x rows
    computes them once."""
    if not node.reads_x:
        return _Fixed(node, theta)
    if not isinstance(node, _Node):
        return node
    bound = copy.copy(node)  # keeps what the node derived from its children
    bound.children = tuple(_bind_theta(c, theta) for c in node.children)
    return bound


def _apply(ufunc, *args, out):
    """``ufunc(*args)``, written into ``out`` when it has the operands'
    broadcast shape and the result is real."""
    if out is not None and np.result_type(*args).kind == "f" \
            and np.broadcast(*args).shape == out.shape:
        return ufunc(*args, out=out)
    return ufunc(*args)


def _fold(ufunc, nodes, x, theta, invalid, out):
    """Left fold of ``ufunc`` over the nodes' values, accumulated in
    ``out``."""
    acc = nodes[0]._eval(x, theta, invalid)
    for node in nodes[1:]:
        acc = _apply(ufunc, acc, node._eval(x, theta, invalid), out=out)
    return acc


def add(*terms):
    return Sum(*map(_as_symbol, terms))


def multiply(*factors):
    return Prod(*map(_as_symbol, factors))


def divide(num, den):
    """Quotient of symbols.  The denominator must be nonzero almost
    everywhere; its isolated zeros are treated as excluded singular points
    at evaluation time."""
    return Quot(_as_symbol(num), _as_symbol(den))


def conjugate(arg):
    return Conj(_as_symbol(arg))


# ----------------------------------------------------------------------------
# monotone rearrangement
# ----------------------------------------------------------------------------

def _node_ranks(t, N):
    """Where ``t`` in [0, 1] falls among the nodes (0, 1/N, ..., 1) of N
    sorted samples: ``(x, j, exact, lo, hi)`` with x = t N, interval
    j = min(floor(x), N - 1), ``exact`` where x is a node, and the ranks of
    the samples R(t) reads.  Node i > 0 carries the sample of rank i - 1
    and node 0 repeats rank 0, so an exact node reads rank max(x - 1, 0)
    (``lo`` = ``hi``) and any other t the ranks max(j - 1, 0) and j of its
    interval's ends."""
    x = t * N
    k = np.floor(x).astype(np.intp)
    exact = x == k
    j = np.minimum(k, N - 1)
    hi = np.where(exact, np.maximum(k - 1, 0), j)
    lo = np.where(exact, hi, np.maximum(j - 1, 0))
    return x, j, exact, lo, hi


def _require_unit_interval(t):
    t = np.asarray(t, dtype=float)
    if np.any(~((t >= 0.0) & (t <= 1.0))):
        raise ValueError("rearrangement is defined on [0, 1]")
    return t


@dataclass(frozen=True)
class Rearrangement:
    """Piecewise-linear nondecreasing interpolant of N sorted symbol samples.

    The interpolation nodes are (0, 1/N, ..., 1): node i > 0 carries the
    sample of rank i - 1 and node 0 repeats the smallest, so ``node_count``
    is N + 1.  Only the samples it is read at are kept: ``values`` holds
    the sorted samples of the ascending ``ranks``, which include 0 and
    N - 1.  The endpoints approximate the essential infimum and supremum
    of the symbol on :data:`SYMBOL_RECT`.
    """

    values: np.ndarray = field(repr=False)
    N: int
    r: int
    ranks: np.ndarray = field(repr=False)
    excluded: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        ranks = np.asarray(self.ranks, dtype=np.intp)
        if (values.ndim != 1 or values.size < 1 or ranks.shape != values.shape
                or ranks[0] != 0 or ranks[-1] != self.N - 1 or np.any(np.diff(ranks) <= 0)):
            raise ValueError(f"need one value per rank, the ranks ascending strictly "
                             f"from 0 to N - 1 = {self.N - 1}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ranks", ranks)

    @property
    def node_count(self):
        return self.N + 1

    @property
    def ess_inf(self):
        return float(self.values[0])

    @property
    def ess_sup(self):
        return float(self.values[-1])

    def to_json_dict(self):
        return {"r": self.r, "node_count": self.node_count, "excluded": self.excluded}

    def _at(self, t, ranks):
        """The kept samples of ``ranks``; ValueError for a rank not kept,
        naming the first ``t`` that reads one."""
        i = np.searchsorted(self.ranks, ranks)
        missing = self.ranks[i] != ranks  # i stays in range: ranks[-1] is N - 1
        if np.any(missing):
            raise ValueError(f"the rearrangement was not built for t = "
                             f"{float(np.ravel(t)[np.argmax(np.ravel(missing))])!r}: "
                             "pass it to monotone_rearrangement in ts")
        return self.values[i]

    def __call__(self, t):
        """Interpolated value at ``t`` in [0, 1], O(len(t)): the nodes i/N
        are uniform, so ``t`` lies in node interval ``floor(t N)`` and no
        node array is built.  The arithmetic is np.interp's on the N + 1
        node values, bit for bit: an exact node returns its sample,
        anything else the linear formula on its interval (the last
        interval for t = 1).  A ``t`` whose samples were not kept raises
        ValueError."""
        t = _require_unit_interval(t)
        x, j, exact, lo_rank, hi_rank = _node_ranks(t, self.N)
        lo, hi = self._at(t, lo_rank), self._at(t, hi_rank)
        return np.where(exact, lo, (hi - lo) * (x - j) + lo)[()]


#: (x, theta) domain of the symbols: every registered symbol is even in
#: theta, so [0, pi] carries the distribution of [-pi, pi]
SYMBOL_RECT = ((0.0, 1.0), (0.0, math.pi))


def _lattice(r):
    """The axes lo + i (hi - lo) / r, i = 1..r, of :data:`SYMBOL_RECT`."""
    return [lo + np.arange(1, r + 1) * (hi - lo) / r for lo, hi in SYMBOL_RECT]


#: bytes of one float block of a blocked grid evaluation: 256 KB, so that a
#: block and the temporaries of its evaluation stay in cache
BLOCK_BYTES = 1 << 18


def _grid_blocks(kappa: SymbolExpr, axes, absolute=False, step=None):
    """Yield the kept values of the symbol ``kappa`` on the outer-product
    grid of the 1-d ``axes`` (x, theta), row-major, with the points where a
    division guard trips dropped: block by block of x rows (of
    ``BLOCK_BYTES``, or 1/16 of the grid when that is less), or with
    ``step`` in chunks of exactly ``step`` values, the last one shorter.
    Each is a view of one buffer (a block, or ``step`` values plus a block)
    and holds until the next is yielded.  The root alone writes into that
    buffer; the values of the inner nodes are temporaries of at most a
    block each.  The theta-only subtrees are evaluated once.  The axes
    reach the symbol read-only, so a symbol that returns its input is
    copied, never handed out to be overwritten.  Complex values raise
    ComplexSymbolError unless ``absolute`` asks for moduli.
    """
    x, theta = (np.asarray(a, dtype=float).view() for a in axes)
    x.flags.writeable = theta.flags.writeable = False
    theta = theta[None, :]
    rows_per_block = max(1, min(BLOCK_BYTES // 8, x.size * theta.size // 16) // max(theta.size, 1))
    bound = _bind_theta(kappa, theta)
    buf = np.empty((step or 0) + rows_per_block * theta.size)
    filled = 0
    for start in range(0, x.size, rows_per_block):
        rows = x[start:start + rows_per_block, None]
        block = buf[filled:filled + rows.size * theta.size]
        out = block.reshape(-1, theta.size)
        vals, invalid = bound.eval_masked(rows, theta, out)
        if vals is not out:
            if np.iscomplexobj(vals) and not absolute:
                raise ComplexSymbolError(
                    "symbol takes complex values; a real-valued one is required")
            if absolute:
                np.absolute(vals, out=out)
            else:
                np.copyto(out, vals)
        elif absolute:
            np.absolute(out, out=out)
        if invalid is not None:
            values = out[~np.broadcast_to(invalid, out.shape)]
            block = block[:values.size]
            block[:] = values
        if step is None:
            yield block
            continue
        filled += block.size  # the kept values follow those left over
        done = filled - filled % step
        for i in range(0, done, step):
            yield buf[i:i + step]
        buf[:filled - done] = buf[done:filled]  # fewer than step: no overlap
        filled -= done
    if filled:
        yield buf[:filled]


#: bytes, at most, of the selection's bucket counts
_BUCKET_BYTES = 1 << 21

#: uniform value buckets of the rearrangement's selection, at least
_MIN_BUCKETS = 1 << 16

#: rows and columns, at most, of the sub-lattice that sets the buckets' range
_RANGE_LATTICE = 256


def _bucket_count(samples):
    """The number of buckets the selection spreads ``samples`` values
    over, and the dtype of their counts: int32 while ``samples`` is below
    2^31 (r <= 46340), intp beyond.  The counts take about a byte per 8
    samples: the power of two at or above samples / 32 int32 buckets (or
    samples / 64 intp ones), within ``_MIN_BUCKETS`` and 2 MB of counts
    (r^2 samples: 2^16 int32 buckets up to r = 1448, 2^19 from r = 2897).
    Finer buckets leave pass 2 fewer values to gather where the symbol's
    values pile up: 257 000 of the 25M at r = 5000 for the benchmark
    table's nodes (466 000 with 2^18 buckets, 1.48M with 2^16).  On small
    lattices the counts would outweigh what they save (2^18 intp buckets
    raised the r = 1000 peak), and coarser ones than 2^16 gather so much
    that r = 1000 got slower."""
    dtype = np.dtype(np.int32 if samples < 1 << 31 else np.intp)
    wanted = -(-samples // (8 * dtype.itemsize))
    count = max(1 << max(wanted - 1, 0).bit_length(), _MIN_BUCKETS)
    return min(count, _BUCKET_BYTES // dtype.itemsize), dtype


def _bucket_map(lo, hi, count):
    """The bucket of each of some finite values: (v - lo) / (hi - lo)
    scaled to ``count`` buckets and clipped to its end buckets.  Each step
    rounds monotonically, so v <= w puts v in a bucket no later than w's,
    whatever the range; a range too narrow or too wide for a finite
    positive scale takes the nearest one that is.  Given the least and the
    greatest of the values, ``vmin`` and ``vmax``, the clip is skipped
    when both map inside the buckets, which by that monotonicity puts
    every value there.  The returned function writes into buffers it keeps
    from call to call, so each result holds until its next call."""
    with np.errstate(over="ignore"):
        scale = float(np.divide(count, np.subtract(hi, lo))) if hi > lo else 1.0
    scale = min(max(scale, np.finfo(float).tiny), np.finfo(float).max)
    work = np.empty(0)
    index = np.empty(0, dtype=np.intp)

    def buckets(values, vmin=None, vmax=None):
        nonlocal work, index
        if work.size < values.size:
            work, index = np.empty(values.size), np.empty(values.size, dtype=np.intp)
        with np.errstate(over="ignore"):  # an overflow to +-inf lands in an end bucket
            t = np.subtract(values, lo, out=work[:values.size])
            t *= scale
            inside = vmin is not None and vmin >= lo and (vmax - lo) * scale < count - 1
        if not inside:
            np.clip(t, 0, count - 1, out=t)
        b = index[:values.size]
        np.copyto(b, t, casting="unsafe")  # truncation is floor on t >= 0
        return b

    return buckets


def nonfinite_count(values):
    """The number of NaN or infinite values of the float array ``values``:
    one min/max pass when there are none."""
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        return values.size - int(np.count_nonzero(np.isfinite(values)))
    return 0


def require_finite(count):
    """SymbolSingularityError when ``count`` samples of a symbol are NaN or
    infinite."""
    if count:
        raise SymbolSingularityError(f"{count} samples of the symbol are not finite "
                                     "(NaN or infinite)")


def _histogram(blocks, buckets, count, dtype):
    """The number of values of the ``blocks`` in each of ``count`` buckets,
    as ``dtype`` counts; non-finite values raise SymbolSingularityError
    with their number.  Each block's least and greatest values, taken to
    find non-finite ones, also let ``buckets`` skip the clip of a block
    inside the range.

    ``np.add.at`` counts into one histogram, with no per-block count array
    of ``count`` entries, as ``np.bincount`` makes.  Its fast ``ufunc.at``
    path (numpy >= 1.25) needs an intp index and an increment of the
    histogram's own dtype: a Python 1 into int32 counts falls off it, 15
    times slower, so the increment is ``hist.dtype.type(1)``."""
    hist = np.zeros(count, dtype=dtype)
    one = hist.dtype.type(1)
    nonfinite = 0
    for values in blocks:
        if not values.size:
            continue
        vmin, vmax = values.min(), values.max()
        if not (math.isfinite(vmin) and math.isfinite(vmax)):
            nonfinite += nonfinite_count(values)
        elif not nonfinite:
            np.add.at(hist, buckets(values, vmin, vmax), one)
    require_finite(nonfinite)
    return hist


def _select_ranks(blocks, value_range, ranks_of, samples):
    """Order statistics of a stream of values, in two passes over it
    without holding it whole.

    ``blocks()`` iterates over the values as 1-d float blocks, the same
    values in the same blocks on every call.  ``samples``, the number of
    values the caller expects and at least their number, sets the number
    of uniform buckets and the dtype of their counts
    (:func:`_bucket_count`); the buckets span ``value_range`` (lo, hi),
    values beyond it falling into the end buckets.  ``ranks_of(N)``, given
    the number N of values, returns the ascending ranks wanted.  Returns
    N, those ranks and their values: what np.sort of all the values puts
    there.

    Pass 1 histograms the blocks into the buckets and accumulates the
    counts in place.  The cumulative counts place each wanted rank in one
    bucket, which is flagged, and among the values of the flagged buckets.
    Then the counts are dropped, before pass 2 gathers the values of the
    flagged buckets into one buffer sized from their counts and sorts it;
    pass 2 keeps one flag per bucket alone.  Non-finite values raise
    SymbolSingularityError with their number; a pass 2 that does not
    gather exactly the counted values raises RuntimeError.
    """
    count, dtype = _bucket_count(samples)
    buckets = _bucket_map(*value_range, count)
    cum = _histogram(blocks(), buckets, count, dtype)
    np.add.accumulate(cum, out=cum)  # in place: no second array of counts
    N = int(cum[-1])
    if N == 0:
        raise SymbolSingularityError("the symbol is singular at every grid point")
    ranks = ranks_of(N)
    # ranks of the counts' own dtype: others would make searchsorted copy the counts
    where = np.searchsorted(cum, ranks.astype(cum.dtype), side="right")  # the bucket of each rank
    first = np.concatenate(([True], where[1:] != where[:-1]))  # ascending ranks, ascending buckets
    flagged = where[first]
    below = np.where(flagged > 0, cum[flagged - 1], 0)  # the values below each flagged bucket
    sizes = cum[flagged] - below
    # a rank's place among the gathered values: the rank less the values below
    # its bucket, plus the values of the flagged buckets below it
    k = np.cumsum(first) - 1
    places = ranks - below[k] + (np.cumsum(sizes) - sizes)[k]
    needed = np.zeros(count, dtype=bool)
    needed[flagged] = True
    del cum  # 2 MB of counts, gone before the gather buffer is allocated
    gathered = np.empty(int(sizes.sum()))

    filled = 0
    for values in blocks():
        values = values[np.take(needed, buckets(values))]
        if filled + values.size > gathered.size:
            raise RuntimeError(f"the second pass over the samples gathered more than the "
                               f"{gathered.size} values the first one counted: "
                               "the samples changed")
        gathered[filled:filled + values.size] = values
        filled += values.size
    if filled != gathered.size:
        raise RuntimeError(f"the second pass over the samples gathered {filled} of the "
                           f"{gathered.size} values the first one counted: the samples changed")
    gathered.sort()
    return N, ranks, gathered[places]


def _range_of(kappa, axes):
    """(lo, hi) of the finite samples on a sub-lattice of at most
    ``_RANGE_LATTICE`` rows and columns of the grid of ``axes``; (0, 0)
    when it has none."""
    stride = -(-max(a.size for a in axes) // _RANGE_LATTICE)
    lo, hi = math.inf, -math.inf
    for values in _grid_blocks(kappa, [a[::stride] for a in axes]):
        finite = values[np.isfinite(values)]
        if finite.size:
            lo, hi = min(lo, float(finite.min())), max(hi, float(finite.max()))
    return (lo, hi) if lo <= hi else (0.0, 0.0)


def monotone_rearrangement(kappa: SymbolExpr, r, ts) -> Rearrangement:
    """Monotone rearrangement of a real symbol from its samples on the
    r-by-r lattice of :data:`SYMBOL_RECT` (:func:`_lattice`), to be read
    at the points ``ts`` of [0, 1].

    Lattice points where a division guard trips are excluded and the node
    count shrinks accordingly (recorded in ``excluded``); a sample that is
    NaN or infinite raises SymbolSingularityError.  Only the sorted samples
    that R(t) reads for t in ``ts`` are kept.  For a symbol that reads x,
    :func:`_select_ranks` finds them in two passes over the r^2 lattice
    samples, evaluated in blocks of x rows, without holding or sorting
    them all; it spreads them over a number of buckets set by r^2
    (:func:`_bucket_count`: 2^16 up to r = 1448, 2^19 from r = 2897).

    A symbol that does not read x (a Toeplitz symbol f(theta)) has r equal
    lattice rows, so its sorted samples are those of one row, each
    repeated r times: that row alone is evaluated and sorted, and rank k
    is its value k // r, what sorting the whole lattice puts there.
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"sampling parameter r must be an integer >= 1, got {r!r}")
    if not kappa.is_real:
        raise ComplexSymbolError("monotone rearrangement needs a real-valued symbol")
    ts = _require_unit_interval(ts)
    r = int(r)
    axes = _lattice(r)

    def ranks_of(N):
        _, _, _, lo, hi = _node_ranks(ts, N)
        ranks = np.concatenate(([0, N - 1], np.ravel(lo), np.ravel(hi)))
        ranks.sort()  # then a neighbour test: np.unique would import numpy.ma
        return ranks[np.concatenate(([True], ranks[1:] != ranks[:-1]))]

    if kappa.reads_x:
        N, ranks, values = _select_ranks(lambda: _grid_blocks(kappa, axes),
                                         _range_of(kappa, axes), ranks_of, r * r)
    else:
        (row,) = _grid_blocks(kappa, (axes[0][:1], axes[1]))  # one row: one block
        if row.size == 0:
            raise SymbolSingularityError("the symbol is singular at every grid point")
        require_finite(r * nonfinite_count(row))
        row.sort()
        N = r * row.size
        ranks = ranks_of(N)
        values = row[ranks // r]
    return Rearrangement(values=values, N=N, r=r, ranks=ranks, excluded=r * r - N)


# ----------------------------------------------------------------------------
# moduli of continuity
# ----------------------------------------------------------------------------

def modulus_upper_bound(a: Coefficient, delta):
    """omega_a(delta) for certificate right-hand sides, from the
    coefficient's exact modulus.  A coefficient without one raises
    ValueError: a modulus sampled on a lattice is only a lower bound, so no
    right-hand side may rest on it.
    """
    if a.exact_modulus is None:
        raise ValueError(f"coefficient {a.name!r} has no exact modulus of continuity; "
                         "a sampled one is a lower bound, which no right-hand side may use")
    return float(a.exact_modulus(delta))


def modulus_of_integral_continuity(f: Coefficient, delta, sample_count=100001):
    """Estimate of sup over |E| <= delta of the integral of |f| on E.

    The supremum is attained on the superlevel set of |f| of measure delta,
    so: sample |f| at midpoints, sort descending, and add up the top
    delta-fraction of cells (with a fractional last cell).
    """
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    mid = (np.arange(sample_count) + 0.5) / sample_count
    vals = np.sort(np.abs(np.asarray(f(mid), dtype=float)))[::-1]
    vals = vals[np.isfinite(vals)]
    m = vals.size
    k = int(np.floor(delta * m + 1e-12))
    total = vals[:k].sum() / m
    if k < m:
        total += (delta - k / m) * vals[k]
    return float(total)
