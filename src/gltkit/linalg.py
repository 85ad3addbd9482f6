"""Dense and banded real linear algebra used by the matrix builders.

Eigenvalues of symmetric band matrices go through LAPACK's band driver
(values only, a tridiagonal as a kd = 1 band), nonsymmetric spectra
through Hessenberg + shifted QR, symmetric-definite band pencils through
LAPACK ``dsbgv`` (split Cholesky ``dpbstf``, Crawford's band-preserving
reduction ``dsbgst``, ``dsbtrd`` and ``dsterf``, O(n^2) for a fixed
bandwidth), a symmetric band plus a rank-one term ``T + s u u^T`` as an
n x n band pencil, and SPD banded systems through banded Cholesky.
:func:`real_eigvals` alone maps an operand to its eigensolver: a
:class:`Pencil` to ``dsbgv``, a :class:`RankOneUpdate` to the pencil
``(L (T + s u u^T) L^T, L L^T)`` with ``L u = e_1`` (the dense S when u is
rough), and a matrix by its structure (a band diagonally similar to a
symmetric band is solved as one; the dense nonsymmetric solver is the last
resort); :func:`singular_spectrum` alone maps one to its singular values,
which :func:`schatten_norm` takes.
Everything is 64-bit; failures inside LAPACK surface as
``EigenConvergenceError``, never silently.
:class:`BandedMatrix` alone knows the band layout; its algebra (``+``,
``-``, ``row_scaled``, ``@``, ``.T``) reads only the stored diagonals.

The band routines are LAPACK's own, called through the C function
capsules of scipy's ``cython_lapack`` extension, five of them: ``dsbevd``
(symmetric band spectra, values only), ``dsbevx`` (the largest eigenvalue
of ``A^T A`` for the spectral norm of a real band), ``dsbgv``
(band pencils), ``dpbsv`` (SPD band solves) and ``dpbtrf`` (banded
Cholesky).  Each is called with the arguments that scipy.linalg's wrapper
of the same routine passes, so the results are the same bytes.  A
tridiagonal is solved as a kd = 1 band: ``dsbevd``'s band reduction
``dsbtrd`` only copies it, so its ``dsterf`` gives the bits of LAPACK's
tridiagonal driver.  The extension file is loaded by path when this module
is imported, so ``scipy/linalg/__init__.py`` never runs, and leaves no
``sys.modules`` entry behind; a module already in ``sys.modules`` is
reused, and without the file the module comes from ``from scipy.linalg
import cython_lapack``.
:data:`LAPACK_SOURCE` says which: the loaded file, or ``"scipy.linalg
import"``.  Each routine is bound on its first call, after its capsule's
declared C signature is checked against the binding.  Every LAPACK
``info`` goes through one map: a failed Cholesky pivot raises ``SpdError``,
a failed iteration ``EigenConvergenceError`` and an illegal argument
``ValueError``.  numpy keeps the dense paths (``eigvalsh``, ``eigh``,
``eigvals``, ``svd``).
"""
from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np


class SymmetryError(ValueError):
    """Input matrix is not symmetric: max |A - A^T| > 1e-12 * max |A|."""


class SpdError(ValueError):
    """A Cholesky pivot was not positive: the matrix is not SPD."""


class EigenConvergenceError(RuntimeError):
    """The eigenvalue iteration hit its cap without converging."""


class ComplexSpectrumError(ValueError):
    """Eigenvalues have genuine imaginary parts; use singular-value mode."""


# ----------------------------------------------------------------------------
# LAPACK through the C function capsules of scipy's cython_lapack
# ----------------------------------------------------------------------------

_CYTHON_LAPACK = "scipy.linalg.cython_lapack"


def _cython_lapack_path():
    """scipy's ``linalg/cython_lapack`` extension file, or None if it is not there."""
    import scipy

    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "cython_lapack")
    return next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(stem + suffix)), None)


def _load_cython_lapack():
    """``(module, source)`` for scipy's ``cython_lapack`` extension.

    A module already in ``sys.modules`` is reused.  Otherwise the extension
    file is loaded by path under its own name, so ``scipy/linalg/__init__.py``
    (most of the cost of ``import scipy.linalg``) never runs, and its
    ``sys.modules`` entry is dropped: a later ``import scipy.linalg`` then
    imports the submodule, gets this module object back from Cython and
    sets the attribute.  Without the file the module comes from ``from
    scipy.linalg import cython_lapack``, with source ``"scipy.linalg import"``.
    """
    module = sys.modules.get(_CYTHON_LAPACK)
    if module is None:
        path = _cython_lapack_path()
        if path is None:
            from scipy.linalg import cython_lapack
            return cython_lapack, "scipy.linalg import"
        loader = importlib.machinery.ExtensionFileLoader(_CYTHON_LAPACK, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(_CYTHON_LAPACK, path, loader=loader))
        sys.modules[_CYTHON_LAPACK] = module
        try:
            loader.exec_module(module)
        finally:
            del sys.modules[_CYTHON_LAPACK]
    return module, module.__file__


_cython_lapack, LAPACK_SOURCE = _load_cython_lapack()

_C_TYPES = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int),
            "d": ctypes.POINTER(ctypes.c_double)}
_C_NAMES = {_C_TYPES["c"]: "char *", _C_TYPES["i"]: "int *", _C_TYPES["d"]: "d *"}
_SCALAR_TYPES = {"i": (ctypes.c_int, np.intc), "d": (ctypes.c_double, np.float64)}
#: the Fortran argument list of every routine bound here, each argument with
#: its C type: c is ``char *``, i ``int *`` and d ``double *``
_SIGNATURES = {name: tuple(tuple(arg.split(":")) for arg in spec.split()) for name, spec in {
    "dsbevd": "jobz:c uplo:c n:i kd:i ab:d ldab:i w:d z:d ldz:i work:d lwork:i "
              "iwork:i liwork:i info:i",
    "dsbevx": "jobz:c range:c uplo:c n:i kd:i ab:d ldab:i q:d ldq:i vl:d vu:d il:i iu:i "
              "abstol:d m:i w:d z:d ldz:i work:d iwork:i ifail:i info:i",
    "dsbgv": "jobz:c uplo:c n:i ka:i kb:i ab:d ldab:i bb:d ldbb:i w:d z:d ldz:i work:d info:i",
    "dpbsv": "uplo:c n:i kd:i nrhs:i ab:d ldab:i b:d ldb:i info:i",
    "dpbtrf": "uplo:c n:i kd:i ab:d ldab:i info:i",
}.items()}
_ARGTYPES = {name: tuple(_C_TYPES[t] for _, t in sig) for name, sig in _SIGNATURES.items()}


@functools.cache
def _lapack(name, argtypes):
    """The LAPACK routine ``name`` from its C function capsule in
    ``scipy.linalg.cython_lapack``, as a ctypes function with ``argtypes``;
    resolved on the first call and cached.

    The capsule is named by its C signature, e.g. ``void (char *, int *,
    __pyx_t_..._cython_lapack_d *)``; unless it declares a ``void`` return
    and exactly ``argtypes``, a ``RuntimeError`` is raised rather than a
    call made through a mismatched prototype.
    """
    capsule = _cython_lapack.__pyx_capi__[name]
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    ret, _, args = signature.decode().partition(" (")
    declared = [a.rsplit("cython_lapack_", 1)[-1] for a in args.rstrip(")").split(", ")]
    expected = [_C_NAMES[t] for t in argtypes]
    if ret != "void" or declared != expected:
        raise RuntimeError(f"scipy.linalg.cython_lapack.{name} is declared as "
                           f"{ret} ({', '.join(declared)}); gltkit binds it as "
                           f"void ({', '.join(expected)})")
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, signature)
    return ctypes.CFUNCTYPE(None, *argtypes)(pointer)


def _pointer(value, kind):
    """A ``char *``, ``int *`` or ``double *`` argument: a str, or a scalar
    passed by reference, or a writable array of the matching dtype in
    Fortran order, which LAPACK may write (an empty one is passed as NULL)."""
    if kind == "c":
        return value.encode()
    ctype, dtype = _SCALAR_TYPES[kind]
    if not isinstance(value, np.ndarray):
        return ctypes.byref(ctype(value))
    if value.dtype != dtype or not value.flags.f_contiguous:
        raise TypeError(f"LAPACK needs a Fortran-ordered {np.dtype(dtype)} array, "
                        f"got {value.dtype} with flags {value.flags}")
    # the transpose is C-ordered, as from_buffer needs, and from_buffer
    # refuses a read-only array
    return ctypes.byref(ctype.from_buffer(value.T)) if value.size else None


def _call(name, **args):
    """Run LAPACK ``name`` on its arguments, given by their Fortran names
    (``info`` excepted); arrays are updated in place and ``info`` goes
    through :func:`_check_info`."""
    info = ctypes.c_int()
    _lapack(name, _ARGTYPES[name])(*[ctypes.byref(info) if arg == "info" else
                                     _pointer(args[arg], kind)
                                     for arg, kind in _SIGNATURES[name]])
    _check_info(name, info.value, args["n"])


def _check_info(name, info, n):
    """Map the ``info`` of LAPACK ``name`` on an order-n problem to an exception:
    a negative info names the illegal argument (ValueError), a positive one is
    a failed Cholesky pivot (``SpdError``) for the SPD drivers and for
    ``dsbgv`` beyond n (its split Cholesky ``dpbstf``), and a failed iteration
    (``EigenConvergenceError``) otherwise."""
    if info < 0:
        arg = _SIGNATURES[name][-info - 1][0]
        raise ValueError(f"LAPACK {name}: argument {-info} ({arg}) has an illegal value")
    if info > n and name == "dsbgv":
        raise SpdError(f"mass matrix of the pencil is not SPD: the split Cholesky "
                       f"factorization (dpbstf) failed, info = {info}")
    if info > 0 and name in ("dpbtrf", "dpbsv"):
        raise SpdError(f"matrix is not SPD: the leading minor of order {info} is not "
                       f"positive definite (LAPACK {name})")
    if info > 0:
        raise EigenConvergenceError(f"LAPACK {name} did not converge, info = {info}")


# ----------------------------------------------------------------------------
# matrix containers
# ----------------------------------------------------------------------------

def _slot(upper_bw, n, k):
    """Where diagonal ``k`` of an n x n band lives: its entry ``(j - k, j)``
    is stored at ``bands[upper_bw - k, j]`` for the columns j in the slice."""
    return upper_bw - k, slice(max(0, k), n + min(0, k))


@dataclass(frozen=True)
class BandedMatrix:
    """Square banded matrix in diagonal-ordered band storage.

    ``bands`` has shape ``(lower_bw + upper_bw + 1, n)`` with
    ``bands[upper_bw + i - j, j] == A[i, j]`` for ``-upper_bw <= i - j <=
    lower_bw`` (LAPACK convention).  Entries outside the band are zero by
    construction.
    """

    n: int
    lower_bw: int
    upper_bw: int
    bands: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be >= 1")
        if not (0 <= self.lower_bw < self.n and 0 <= self.upper_bw < self.n):
            raise ValueError("bandwidths must satisfy 0 <= bw < n")
        bands = np.asarray(self.bands)
        if bands.shape != (self.lower_bw + self.upper_bw + 1, self.n):
            raise ValueError("band storage has wrong shape")
        if not np.isfinite(bands).all():
            raise ValueError("non-finite entries in band storage")
        object.__setattr__(self, "bands", bands)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_diagonals(cls, n, diagonals):
        """Build from ``{offset: values}`` where offset ``k`` is the k-th
        diagonal (``k > 0`` above the main diagonal, length ``n - |k|``)."""
        diagonals = {k: np.asarray(v) for k, v in diagonals.items() if n - abs(k) > 0}
        offsets = sorted(diagonals) or [0]
        ku = max(0, max(offsets))
        kl = max(0, -min(offsets))
        dtype = complex if any(np.iscomplexobj(v) for v in diagonals.values()) else float
        bands = np.zeros((kl + ku + 1, n), dtype=dtype)
        for k, vals in diagonals.items():
            if vals.shape != (n - abs(k),):
                raise ValueError(f"diagonal {k} has wrong length")
            bands[_slot(ku, n, k)] = vals
        return cls(n, kl, ku, bands)

    @classmethod
    def tridiagonal(cls, diag, lower, upper):
        diag = np.asarray(diag)
        n = diag.shape[0]
        return cls.from_diagonals(n, {0: diag, -1: np.asarray(lower), 1: np.asarray(upper)})

    @classmethod
    def diagonal(cls, values):
        values = np.asarray(values)
        return cls(values.shape[0], 0, 0, values[None, :].copy())

    # -- views ------------------------------------------------------------

    def diagonal_values(self, k=0):
        """Values on the k-th diagonal (zeros if outside the band)."""
        if not (-self.lower_bw <= k <= self.upper_bw):
            return np.zeros(self.n - abs(k), dtype=self.bands.dtype)
        return self.bands[_slot(self.upper_bw, self.n, k)].copy()

    def _diagonals(self):
        """``(k, values)`` for every stored diagonal, lowest offset first."""
        return [(k, self.bands[_slot(self.upper_bw, self.n, k)])
                for k in range(-self.lower_bw, self.upper_bw + 1)]

    @property
    def T(self) -> BandedMatrix:
        """The transpose: diagonal k of ``A.T`` is diagonal -k of ``A``."""
        return BandedMatrix.from_diagonals(self.n, {-k: v for k, v in self._diagonals()})

    def toarray(self):
        """The dense form.  Only stored entries whose bits are not +0.0 are
        written, so the pages of ``np.zeros`` that a sparse band never
        touches are never mapped (-0.0 and complex parts keep their bytes)."""
        A = np.zeros((self.n, self.n), dtype=self.bands.dtype)
        for k, v in self._diagonals():
            i = np.flatnonzero((v != 0) | np.signbit(v.real) | np.signbit(v.imag))
            A[i + max(0, -k), i + max(0, k)] = v[i]
        return A

    def scaled(self, alpha):
        return BandedMatrix(self.n, self.lower_bw, self.upper_bw, alpha * self.bands)

    def row_scaled(self, v) -> BandedMatrix:
        """``diag(v) A`` on the stored diagonals, O(n bw): row i times v[i]."""
        v = np.asarray(v)
        if v.shape != (self.n,):
            raise ValueError(f"row scaling needs {self.n} values, got shape {v.shape}")
        # bands[r, j] sits in row j + r - upper_bw, so it is scaled by
        # padded[r + j] where padded[upper_bw + i] = v[i]; padding gets 0
        rows = self.bands.shape[0]
        padded = np.zeros(self.n + rows - 1, dtype=v.dtype)
        padded[self.upper_bw: self.upper_bw + self.n] = v
        scale = padded[np.arange(rows)[:, None] + np.arange(self.n)]
        return BandedMatrix(self.n, self.lower_bw, self.upper_bw, self.bands * scale)

    def _combine(self, other, op) -> BandedMatrix:
        """``op(A, B)`` over a band covering both operands; all-zero outer
        diagonals are dropped, the main diagonal always stays."""
        if not isinstance(other, BandedMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        kl = max(self.lower_bw, other.lower_bw)
        ku = max(self.upper_bw, other.upper_bw)
        dtype = np.result_type(self.bands, other.bands, float)
        total = np.zeros((kl + ku + 1, self.n), dtype=dtype)
        total[ku - self.upper_bw: ku + self.lower_bw + 1] += self.bands
        rows = total[ku - other.upper_bw: ku + other.lower_bw + 1]
        op(rows, other.bands, out=rows)
        kept = [k for k in range(-kl, ku + 1) if k == 0 or total[_slot(ku, self.n, k)].any()]
        return BandedMatrix(self.n, -kept[0], kept[-1], total[ku - kept[-1]: ku - kept[0] + 1])

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __matmul__(self, other):
        """The band ``A @ B`` of bandwidths ``min(A.bw + B.bw, n - 1)``, in
        O(n bw_A bw_B); an operand that is not a band raises TypeError."""
        _require_bands(self, other)
        return BandedMatrix.from_diagonals(self.n, _product_diagonals(self, other))


def _product_diagonals(A: BandedMatrix, B: BandedMatrix):
    """``{k: diagonal k}`` of the band product ``A @ B``: every k = p + q
    with |k| < n gets a term, and each diagonal sums its terms in ascending p."""
    n, C = A.n, {}

    def rows(k, lo, hi):  # rows lo .. hi - 1 of diagonal k, which starts in row max(0, -k)
        return slice(lo - max(0, -k), hi - max(0, -k))

    for p, a in A._diagonals():
        for q, b in B._diagonals():
            # C[i, i + k] += A[i, i + p] B[i + p, i + k] over the rows i where all exist
            k = p + q
            lo, hi = max(0, -p, -k), n - max(0, p, k)
            if lo < hi:
                c = C.setdefault(k, np.zeros(n - abs(k), np.result_type(a, b, float)))
                c[rows(k, lo, hi)] += a[rows(p, lo, hi)] * b[rows(q, lo + p, hi + p)]
    return C


def _require_bands(*operands):
    """TypeError unless every operand is a BandedMatrix, ValueError unless all have one n."""
    if not all(isinstance(X, BandedMatrix) for X in operands):
        raise TypeError("expected BandedMatrix operands")
    if len({X.n for X in operands}) > 1:
        raise ValueError(f"size mismatch: {' vs '.join(str(X.n) for X in operands)}")


@dataclass(frozen=True)
class RankOneUpdate:
    """``S = T + s u u^T`` held as ``T``, ``u`` and ``s`` and never formed:
    ``T`` a real (``ValueError``) symmetric (``SymmetryError``) band, ``u``
    finite with no zero entry and ``s`` finite (``ValueError``).  :func:`real_eigvals` solves it
    as an n x n band pencil (densely when u is rough); ``toarray`` forms S."""

    T: BandedMatrix
    u: np.ndarray
    s: float

    def __post_init__(self):
        _require_bands(self.T)
        _require_real(self.T)
        require_symmetric(self.T)
        u = np.asarray(self.u, dtype=float)
        if u.shape != (self.T.n,) or not (np.all(np.isfinite(u)) and np.all(u != 0)):
            raise ValueError(f"u must hold {self.T.n} finite nonzero values")
        if not np.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", float(self.s))

    def toarray(self):
        return self.T.toarray() + self.s * np.outer(self.u, self.u)


@dataclass(frozen=True)
class Pencil:
    """The band pencil ``K x = lambda M x`` of two n x n bands, ``K`` real
    (``ValueError``) and symmetric (``SymmetryError``) and ``M`` SPD (checked here by banded
    Cholesky, ``SpdError``); it has no dense form.  :func:`real_eigvals`
    solves it as :func:`generalized_sym_eigvals` does, trusting these checks."""

    K: BandedMatrix
    M: BandedMatrix

    def __post_init__(self):
        _require_bands(self.K, self.M)
        _require_real(self.K)
        require_symmetric(self.K)
        spd_cholesky_banded(self.M)


def as_dense(A):
    """A BandedMatrix or RankOneUpdate as a new dense ndarray; a square
    array-like as an ndarray (the same array when it already is one)."""
    if isinstance(A, Pencil):
        raise ValueError("a pencil (K, M) has no dense form; solve it with real_eigvals")
    if isinstance(A, (BandedMatrix, RankOneUpdate)):
        return A.toarray()
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    return A


def _entries(A) -> np.ndarray:
    """The entries of ``A`` in one vector; a band's stored diagonals only."""
    if isinstance(A, BandedMatrix):
        return np.concatenate([v for _, v in A._diagonals()])
    return as_dense(A).ravel()


def _max_abs(A):
    v = _entries(A)
    return float(np.abs(v).max()) if v.size else 0.0


def _symmetry_defect(A):
    """max |A - A^T|; on a band, stored diagonal k against diagonal -k."""
    if not isinstance(A, BandedMatrix):
        A = as_dense(A)
        return _max_abs(A - A.T)
    d = dict(A._diagonals())
    return max((float(np.abs(d.get(k, 0.0) - d.get(-k, 0.0)).max())
                for k in range(1, max(A.lower_bw, A.upper_bw) + 1)), default=0.0)


def is_symmetric(A, tol=1e-12):
    """max |A - A^T| <= tol * max |A|."""
    return _symmetry_defect(A) <= tol * max(_max_abs(A), np.finfo(float).tiny)


def require_symmetric(A):
    if not is_symmetric(A):
        raise SymmetryError(f"matrix is not symmetric: max |A - A^T| = "
                            f"{_symmetry_defect(A):.3e} > 1e-12 * {_max_abs(A):.3e}")


@dataclass(frozen=True)
class SpectralSet:
    """Sorted spectrum or singular values of one matrix, with the name of
    the solver path that computed them (``sym_tridiagonal``, ``sym_band``,
    ``sym_dense``, ``similarity_tridiagonal``, ``similarity_band``,
    ``nonsym_dense``, ``pencil_band``, ``pencil_rank_one`` or ``svd_dense``).
    ``pencil_band`` is LAPACK ``dsbgv`` on the band storage of a
    symmetric-definite pencil; ``pencil_rank_one`` is the n x n band pencil
    that :func:`real_eigvals` solves for a :class:`RankOneUpdate`."""

    values: np.ndarray
    kind: str  # "eigenvalues" | "singular_values"
    solver: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(values) < 0):
            raise ValueError("values must be sorted ascending")
        if self.kind == "singular_values" and values.size and values[0] < 0:
            raise ValueError("singular values must be nonnegative")
        if self.kind not in ("eigenvalues", "singular_values"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)


# ----------------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------------

def sym_eigvals(A) -> SpectralSet:
    """Eigenvalues of a symmetric matrix, sorted ascending.

    Band storage goes to LAPACK's band driver ``dsbevd`` (a tridiagonal
    as a kd = 1 band), anything else to the dense symmetric driver.
    """
    require_symmetric(A)
    return _sym_eigvals(A)


def _require_real(A):
    """ValueError for a complex matrix, whose imaginary parts the real
    drivers below, and the operands that reach them, would drop:
    ``eigvalsh`` would even read a complex symmetric matrix as Hermitian."""
    if np.iscomplexobj(A.bands if isinstance(A, BandedMatrix) else as_dense(A)):
        raise ValueError("a complex matrix reached a real symmetric driver or operand, "
                         "which would drop its imaginary parts")


def _sym_eigvals(A) -> SpectralSet:
    """:func:`sym_eigvals` without its guard, for callers that have just
    proven ``A`` symmetric to a tolerance no looser than 1e-12; a complex
    ``A`` raises ValueError."""
    _require_real(A)
    if not isinstance(A, BandedMatrix):
        try:
            vals = np.linalg.eigvalsh(as_dense(A))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise EigenConvergenceError(str(exc)) from exc
        return SpectralSet(vals, "eigenvalues", "sym_dense")
    n, kd = A.n, A.upper_bw
    vals = np.empty(n)
    _call("dsbevd", jobz="N", uplo="U", n=n, kd=kd, ab=_upper_band(A), ldab=kd + 1,
          w=vals, z=np.empty(1), ldz=1, work=np.empty(2 * n), lwork=2 * n,
          iwork=np.empty(1, np.intc), liwork=1)
    return SpectralSet(vals, "eigenvalues", "sym_tridiagonal" if kd <= 1 else "sym_band")


def sym_eigpairs(A):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    require_symmetric(A)
    vals, vecs = np.linalg.eigh(as_dense(A))
    return vals, vecs


def generalized_sym_eigvals(K, M) -> SpectralSet:
    """Eigenvalues of the symmetric-definite band pencil (K, M), sorted
    ascending, in O(n^2) for a fixed bandwidth.

    LAPACK ``dsbgv`` works on the upper band storage of both matrices and
    never forms ``M^{-1} K``: the split Cholesky factorization
    ``M = S^T S`` (``dpbstf``), Crawford's band-preserving reduction of the
    pencil to a standard symmetric band problem (``dsbgst``), its reduction
    to tridiagonal form (``dsbtrd``) and the values-only QL/QR iteration
    (``dsterf``).  K's band is padded to ``max(K.upper_bw, M.upper_bw)``,
    since the driver needs M's band no wider than K's.  A mass matrix that
    is not positive definite raises ``SpdError``.
    """
    _require_bands(K, M)
    require_symmetric(K)
    require_symmetric(M)
    return _pencil_eigvals(K, M)


def _pencil_eigvals(K, M) -> SpectralSet:
    """:func:`generalized_sym_eigvals` without its guards, for a :class:`Pencil`,
    whose operands were checked when it was made, and the pencil that
    :func:`_rank_one_eigvals` builds; only the upper diagonals are read."""
    n, kb = K.n, M.upper_bw
    ka = max(K.upper_bw, kb)
    w = np.empty(n)
    _call("dsbgv", jobz="N", uplo="U", n=n, ka=ka, kb=kb, ab=_upper_band(K, ka), ldab=ka + 1,
          bb=_upper_band(M), ldbb=kb + 1, w=w, z=np.empty(1), ldz=1, work=np.empty(3 * n))
    return SpectralSet(w, "eigenvalues", "pencil_band")


def _growth(u) -> float:
    """``max |u[k] / u[i]|`` over ``0 < i <= k``: how much |u| rises after an entry."""
    a = np.abs(u[1:])
    return float(np.max(np.maximum.accumulate(a[::-1])[::-1] / a)) if a.size else 1.0


_RANK_ONE_GROWTH_LIMIT = 10.0  # the largest _growth that _rank_one_eigvals solves as a pencil


def _rank_one_eigvals(A: RankOneUpdate) -> SpectralSet:
    """Eigenvalues of ``S = T + s u u^T``, ascending, as one n x n band
    pencil: O(n^2) for a fixed bandwidth of T, and nothing n x n is formed.

    The lower bidiagonal L with ``L[0, 0] = 1 / u[0]`` and rows ``(-u[i],
    u[i - 1]) / (|u[i - 1]| + |u[i]|)`` in columns i - 1, i has ``L u =
    e_1``, so ``S x = lambda x`` is ``(L T L^T + s e_1 e_1^T) y = lambda (L
    L^T) y`` with ``x = L^T y``: a band one wider than T (built from its
    upper diagonals) against a tridiagonal SPD matrix.  Its error grows
    with n and with how much |u| rises (:func:`_growth`), as for any banded
    L with rows orthogonal to u; so S is read backwards (the same spectrum)
    when |u| rises less that way, and solved densely (``sym_dense``) when
    the growth still exceeds ``_RANK_ONE_GROWTH_LIMIT``: on a coefficient
    with a bump the pencil erred by 4e-9 max |lambda| and failed the check
    below.  That check: ``sum lambda = tr T + s |u|^2`` must hold to 1e-10
    times the larger of ``n max |lambda|`` and ``sum |T[i, i]| + |s| |u|^2``,
    or ``EigenConvergenceError`` is raised.
    """
    n, T, u = A.T.n, A.T, A.u
    forward, backward = _growth(u), _growth(u[::-1])
    if min(forward, backward) > _RANK_ONE_GROWTH_LIMIT:
        return _sym_eigvals(A.toarray())
    if backward < forward:
        T, u = BandedMatrix.from_diagonals(n, {k: v[::-1] for k, v in T._diagonals()}), u[::-1]
    w = np.abs(u[:-1]) + np.abs(u[1:])
    L = BandedMatrix.from_diagonals(n, {0: np.append(1.0 / u[0], u[:-1] / w), -1: -u[1:] / w})
    upper = {k: v.copy() for k, v in (L @ T @ L.T)._diagonals() if k >= 0}
    upper[0][0] += A.s
    lam = _pencil_eigvals(BandedMatrix.from_diagonals(n, upper), L @ L.T).values
    diag, rank_one = A.T.diagonal_values(0), A.s * float(A.u @ A.u)
    residual = abs(float(np.sum(lam)) - (float(np.sum(diag)) + rank_one))
    scale = max(n * float(np.max(np.abs(lam))), float(np.sum(np.abs(diag))) + abs(rank_one))
    if residual > 1e-10 * scale:
        raise EigenConvergenceError(
            f"rank-one update pencil failed its trace check: |sum lambda - (tr T + s |u|^2)| "
            f"= {residual:.3e} > 1e-10 * {scale:.3e}")
    return SpectralSet(lam, "eigenvalues", "pencil_rank_one")


def singular_values(A) -> SpectralSet:
    vals = np.linalg.svd(as_dense(A), compute_uv=False)
    return SpectralSet(np.sort(vals), "singular_values", "svd_dense")


def singular_spectrum(A) -> SpectralSet:
    """Singular values, sorted ascending: the eigenvalue magnitudes of a
    Pencil, a RankOneUpdate (both by :func:`real_eigvals`) or an exactly
    symmetric real matrix, with ``solver`` naming the eigensolver, and the
    dense SVD of :func:`singular_values` for anything else."""
    if isinstance(A, (Pencil, RankOneUpdate)):
        ev = real_eigvals(A)
    elif np.isrealobj(A.bands if isinstance(A, BandedMatrix) else A) and is_symmetric(A, 0.0):
        ev = _sym_eigvals(A)
    else:
        return singular_values(A)
    return SpectralSet(np.sort(np.abs(ev.values)), "singular_values", ev.solver)


def nonsym_eigvals(A) -> np.ndarray:
    """All eigenvalues of a real square matrix as a complex array.

    Uses Hessenberg reduction plus shifted QR (LAPACK).  Non-convergence
    raises ``EigenConvergenceError`` instead of returning partial output.
    """
    try:
        return np.linalg.eigvals(as_dense(A))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc


def _diagonal_similarity(A: BandedMatrix):
    """A symmetric band similar to ``A`` through a positive diagonal, with
    the name of the path, or None when none is found.

    A tridiagonal ``A`` with every ``A[i+1,i] * A[i,i+1] > 0`` is similar to
    the symmetric tridiagonal matrix with off-diagonal
    ``sqrt(A[i+1,i] * A[i,i+1])`` (Parlett, *The Symmetric Eigenvalue
    Problem*, section 7).  A wider ``A = D S`` with ``D = diag(d > 0)`` and
    ``S`` symmetric has ``d[i+1] / d[i] = A[i+1,i] / A[i,i+1]``; with those
    ratios all positive, ``D^{-1/2} A D^{1/2}`` is tried and kept when it
    passes the symmetry check.
    """
    lower, upper = A.diagonal_values(-1), A.diagonal_values(1)
    if A.n < 2 or not np.all(lower * upper > 0):
        return None
    if max(A.lower_bw, A.upper_bw) == 1:
        off = np.sqrt(lower * upper)
        return BandedMatrix.tridiagonal(A.diagonal_values(0), off, off), "similarity_tridiagonal"
    log_d = np.concatenate(([0.0], np.cumsum(np.log(lower / upper))))
    diags = {}
    for k in range(-A.lower_bw, A.upper_bw + 1):
        rows = np.arange(A.n - abs(k)) + max(0, -k)
        diags[k] = A.diagonal_values(k) * np.exp(0.5 * (log_d[rows + k] - log_d[rows]))
    S = BandedMatrix.from_diagonals(A.n, diags)
    return (S, "similarity_band") if is_symmetric(S) else None


def real_eigvals(A) -> SpectralSet:
    """Eigenvalues of a real square matrix with a real spectrum, sorted
    ascending, through a solver chosen from the matrix itself.

    Tried in order: a symmetric matrix goes to :func:`sym_eigvals`; a band
    that is similar to a symmetric band through a positive diagonal (see
    ``_diagonal_similarity``) is solved as that band, its strictly positive
    products proving the spectrum real; anything else goes to the dense
    nonsymmetric solver, where imaginary parts above ``1e-7 * max |lambda|``
    raise ``ComplexSpectrumError``.  ``solver`` on the result names the
    path that ran.  A :class:`Pencil` goes to ``dsbgv`` as in
    :func:`generalized_sym_eigvals`, without its guards, and a
    :class:`RankOneUpdate` to its band pencil (``pencil_rank_one``), or to
    the dense S (``sym_dense``) when u is rough.
    """
    if isinstance(A, Pencil):
        return _pencil_eigvals(A.K, A.M)
    if isinstance(A, RankOneUpdate):
        return _rank_one_eigvals(A)
    if is_symmetric(A):
        return _sym_eigvals(A)
    if isinstance(A, BandedMatrix):
        similar = _diagonal_similarity(A)
        if similar is not None:
            S, solver = similar
            return replace(_sym_eigvals(S), solver=solver)
    ev = nonsym_eigvals(A)
    scale = max(np.max(np.abs(ev)), np.finfo(float).tiny)
    imag = np.max(np.abs(ev.imag))
    if imag > 1e-7 * scale:
        raise ComplexSpectrumError(
            f"genuinely complex eigenvalues (max |Im| = {imag:.3e} > 1e-7 * {scale:.3e}); "
            "run the singular-value mode instead"
        )
    # a stable sort keeps the sign of each equal zero, which numpy's default does not
    return SpectralSet(np.sort(ev.real, kind="stable"), "eigenvalues", "nonsym_dense")


def schatten_norm(A, p) -> float:
    """Schatten p-norm: the vector p-norm of :func:`singular_spectrum`.

    ``p = 1`` is the trace norm, ``p = 2`` the Frobenius norm, ``p = inf``
    the spectral norm.  Two shortcuts skip the singular spectrum: ``p = 2``
    is the norm of the entries (a band's stored diagonals), and ``p = inf``
    on a real band, symmetric or not, :func:`_banded_spectral_norm`.  A
    :class:`Pencil` has no Schatten norm.
    """
    if p < 1:
        raise ValueError("Schatten norms need p >= 1")
    if isinstance(A, Pencil):
        raise ValueError("a pencil (K, M) is not one matrix and has no Schatten norm")
    if p == 2:
        return float(np.linalg.norm(_entries(A)))
    if np.isinf(p) and isinstance(A, BandedMatrix) and np.isrealobj(A.bands):
        return _banded_spectral_norm(A)
    return float(np.linalg.norm(singular_spectrum(A).values, p))


def _banded_spectral_norm(A: BandedMatrix) -> float:
    """Largest singular value of a real band: sqrt of the top eigenvalue of the
    band ``B.T @ B`` over ``scale``, where ``B = scale * A`` and the power of two
    ``scale`` puts max |A| in [1/2, 1) (at most 2^1023): exact at any finite scale."""
    scale = math.ldexp(1.0, min(-math.frexp(_max_abs(A))[1], 1023))
    B = A.scaled(scale)
    n, ab = A.n, _upper_band(B.T @ B)
    top = np.empty(n)
    # the largest eigenvalue alone (range I, il = iu = n) to the absolute
    # tolerance 2 dlamch('S') that LAPACK recommends for it
    _call("dsbevx", jobz="N", range="I", uplo="U", n=n, kd=ab.shape[0] - 1, ab=ab,
          ldab=ab.shape[0], q=np.empty(1), ldq=1, vl=0.0, vu=1.0, il=n, iu=n,
          abstol=2 * np.finfo(float).tiny, m=np.zeros(1, np.intc), w=top, z=np.empty(1),
          ldz=1, work=np.empty(7 * n), iwork=np.empty(5 * n, np.intc),
          ifail=np.empty(n, np.intc))
    return float(np.sqrt(max(top[0], 0.0))) / scale


def spectral_norm(A) -> float:
    return schatten_norm(A, np.inf)


# ----------------------------------------------------------------------------
# solves
# ----------------------------------------------------------------------------

def _upper_band(A: BandedMatrix, kd=0):
    """LAPACK's upper band storage ``ab[max(kd, u) + i - j, j] = A[i, j]``, u = A.upper_bw, in
    Fortran order: zero rows over the first u + 1 rows of ``A.bands``, padding and all
    (LAPACK never reads it).  A complex ``A`` raises ValueError."""
    _require_real(A)
    ab = np.zeros((max(kd, A.upper_bw) + 1, A.n), order="F")  # AB(LDAB, N), column-major
    ab[-A.upper_bw - 1:] = A.bands[:A.upper_bw + 1]
    return ab


def solve_spd_banded(A: BandedMatrix, B) -> np.ndarray:
    """Solve ``A X = B`` for SPD banded ``A`` via banded Cholesky (``dpbsv``)."""
    _require_bands(A)
    require_symmetric(A)
    B = np.asarray(B, dtype=float)
    squeeze = B.ndim == 1
    if squeeze:
        B = B[:, None]
    if B.ndim != 2 or B.shape[0] != A.n:
        raise ValueError("right-hand side size mismatch")
    n, ab = A.n, _upper_band(A)
    X = np.array(B, order="F")  # overwritten with the solution
    _call("dpbsv", uplo="U", n=n, kd=ab.shape[0] - 1, nrhs=X.shape[1], ab=ab,
          ldab=ab.shape[0], b=X, ldb=n)
    return X[:, 0] if squeeze else X


def spd_cholesky_banded(A: BandedMatrix):
    """Banded Cholesky factor of an SPD BandedMatrix (upper form).

    Raising ``SpdError`` here is the library's SPD test.
    """
    require_symmetric(A)
    ab = _upper_band(A)
    _call("dpbtrf", uplo="U", n=A.n, kd=ab.shape[0] - 1, ab=ab, ldab=ab.shape[0])
    return ab
