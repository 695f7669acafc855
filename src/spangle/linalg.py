"""Dense matrix kernel shared by every other module.

Real scalars are float64, complex scalars are complex128; a :class:`Field`
tag travels with every higher-level object so both cases run through one
code path.  Matrices are plain numpy arrays with vectors stored as
columns: a spanning matrix from :func:`stack_columns` is column-major,
the layout LAPACK reads, and every computed basis is C (row-major)
ordered.  All routines are pure functions on immutable
values and are sized for small dense problems (ambient dimension up to a
few hundred).

Every LAPACK call in the package but four goes through a raw entry here:
:func:`_svd`, :func:`_qr`, :func:`_det`, :func:`_slogdet` and
:func:`_eigvalsh` call numpy's own gufuncs in
``numpy.linalg._umath_linalg`` (the names of numpy 2.0 on) with the
signature read off the dtype: the same LAPACK calls as ``np.linalg.svd``,
``qr``, ``det``, ``slogdet`` and ``eigvalsh``, bit for bit, without their
per-call Python wrapper (array wrapping, type resolution, an ``errstate``
context and ``astype``).  On numpy 2.4 and one x86-64 core, a
values-only SVD of a real 8 x 4 matrix takes 8.8 -> 4.5 us, a QR of a
real 8 x 8 one 23 -> 14 us and its slogdet 8.6 -> 2.7 us.  :func:`_norm`
repeats the formula of ``np.linalg.norm`` for the two forms the package
uses.  A numpy without one of the gufuncs fails this module's import
with an ImportError that names it.

Cholesky, solve and lstsq keep numpy's wrappers: they report a singular
or indefinite matrix as LinAlgError through the wrapper's ``errstate``
callback, where a raw gufunc would return NaN and warn.  cond keeps its
wrapper too: it runs only in the verify suites, and its SVD through
:func:`_svd` would add to the SVD count the tests pin, for no less
LAPACK work.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

_GUFUNCS = ("svd", "svd_s", "svd_f", "qr_r_raw", "qr_reduced", "det", "slogdet", "eigvalsh_lo")
_missing_gufuncs = [name for name in _GUFUNCS if not hasattr(_umath_linalg, name)]
if _missing_gufuncs:
    raise ImportError(
        f"numpy {np.__version__} has no numpy.linalg._umath_linalg.{_missing_gufuncs[0]}, a private "
        "LAPACK gufunc that spangle.linalg calls; spangle is tested on numpy 2.0 and 2.4"
    )

HALF_PI = math.pi / 2
_EPS = float(np.finfo(np.float64).eps)


class Field(enum.Enum):
    """Ground field of a subspace: real or complex scalars, each member
    carrying its numpy ``dtype`` as a plain attribute."""

    REAL = "real"
    COMPLEX = "complex"

    def __init__(self, value: str):
        self.dtype = np.dtype(np.complex128 if value == "complex" else np.float64)


# Field.COMPLEX bound once, for the pair path: an enum member read through
# its class costs 107-176 ns on Python 3.11, a module global far less.
_COMPLEX = Field.COMPLEX


# The numerical policy, one job per tolerance: RANK_REL_TOL ranks a
# spanning list or matrix (singular values at or below RANK_REL_TOL *
# sigma_max * max(shape) count as zero); COMPARE_TOL decides every relation
# between two subspaces, and a principal cosine at or below it is a right angle.
RANK_REL_TOL = 1e-12
COMPARE_TOL = 1e-9

# The zero-angle band, c >= ZERO_ANGLE_COS_BAND: such cosines are
# indistinguishable from 1 at SVD backward error, so their angles count as
# exact zeros, with zero sines (else every genuinely shared direction would
# contribute a spurious sqrt(eps) sine).
ZERO_ANGLE_COS_BAND = 1.0 - 256.0 * _EPS


_NOT_FINITE = "entries must be finite (no NaN or infinity)"


def as_field_array(values: Iterable, field: Field) -> np.ndarray:
    """Convert to the dtype of ``field``, rejecting complex data under REAL,
    entries that are not numbers and non-finite entries (NaN or infinity)
    under either field."""
    arr = np.asarray(values)
    dtype = field.dtype  # its kind tells the fields apart, cheaper than a read of Field.REAL
    if arr.dtype.kind == "c" and dtype.kind != "c":
        if np.any(arr.imag != 0):
            raise ValueError("complex entries are not allowed in a REAL-tagged value")
        arr = arr.real
    try:
        arr = np.array(arr, dtype=dtype, order="C", ndmin=1)  # a fresh C-ordered copy, at least 1-D
    except TypeError:  # an entry numpy cannot read as a number, such as an arbitrary object
        raise ValueError("entries must be numbers") from None
    except OverflowError:  # a Python int beyond float range
        raise ValueError(_NOT_FINITE) from None
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(_NOT_FINITE)
    return arr


def clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def arccos_clamped(x: float) -> float:
    """arccos of x clamped into [0, 1] (rounding can push a cosine
    slightly outside)."""
    return math.acos(clamp01(x))


def angle_from_cosine(c: float) -> float:
    """The angle of a cosine: exactly 0 inside the zero-angle band, so that
    shared or contained directions give exact angles, else arccos of c
    clamped into [0, 1] (one call per angle: this is the scalar reduction's
    inner step)."""
    return 0.0 if c >= ZERO_ANGLE_COS_BAND else math.acos(min(max(c, 0.0), 1.0))


def _svd(M: np.ndarray, full_matrices: bool = True, compute_uv: bool = True):
    """``np.linalg.svd(M, full_matrices, compute_uv)`` for a float64 or
    complex128 matrix or stack of them: the singular values, or the tuple
    (U, sigma, Vh).  A failed LAPACK call raises ``np.linalg.LinAlgError``:
    numpy's gufunc fills that matrix's outputs with NaN (and raises the
    invalid flag, so numpy's default error state also warns)."""
    complex_in = M.dtype.kind == "c"
    if compute_uv:
        gufunc = _umath_linalg.svd_f if full_matrices else _umath_linalg.svd_s
        out = gufunc(M, signature="D->DdD" if complex_in else "d->ddd")
        sigma = out[1]
    else:
        out = sigma = _umath_linalg.svd(M, signature="D->d" if complex_in else "d->d")
    if sigma.size and (sigma[0] != sigma[0] if sigma.ndim == 1 else np.isnan(sigma[..., 0]).any()):
        raise np.linalg.LinAlgError("SVD did not converge")
    return out


def _qr_factored(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, F) for a float64 or complex128 matrix or stack of them: Q of
    ``np.linalg.qr(M)`` (reduced), C-ordered, and a copy of M, in M's own
    layout, that LAPACK overwrote with R on and above the diagonal (its
    first min(m, n) rows) and the Householder vectors below it.  Each
    gufunc copies its operand into a column-major buffer, so the bits do
    not depend on M's layout, but a column-major M (``stack_columns``
    gives one) is copied column by column: a real 256 x 128 QR took 2267
    -> 1642 us on one x86-64 core and OpenBLAS thread.  numpy's QR
    gufuncs report an error only for arguments LAPACK finds invalid,
    which these are not, so nothing is checked."""
    complex_in = M.dtype.kind == "c"
    F = M.copy(order="K")
    tau = _umath_linalg.qr_r_raw(F, signature="D->D" if complex_in else "d->d")
    return _umath_linalg.qr_reduced(F, tau, signature="DD->D" if complex_in else "dd->d"), F


def _qr(M: np.ndarray, with_r: bool = True):
    """``np.linalg.qr(M)`` (reduced): the tuple (Q, R), or Q alone when not
    ``with_r`` (R's ``np.triu`` costs about as much as a small QR)."""
    Q, F = _qr_factored(M)
    return (Q, np.triu(F[..., : min(M.shape[-2:]), :])) if with_r else Q


def _det(M: np.ndarray):
    """``np.linalg.det(M)`` for a float64 or complex128 square matrix (a
    numpy scalar) or stack of them (an array)."""
    return _umath_linalg.det(M, signature="D->D" if M.dtype.kind == "c" else "d->d")


def _slogdet(M: np.ndarray):
    """``np.linalg.slogdet(M)`` for a float64 or complex128 square matrix
    or stack of them: the tuple (sign, log |det|)."""
    return _umath_linalg.slogdet(M, signature="D->Dd" if M.dtype.kind == "c" else "d->dd")


def _eigvalsh(M: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(M)`` (lower triangle) for a float64 or
    complex128 Hermitian matrix: its eigenvalues, ascending.  A failed
    LAPACK call raises ``np.linalg.LinAlgError``, as in ``_svd``."""
    w = _umath_linalg.eigvalsh_lo(M, signature="D->d" if M.dtype.kind == "c" else "d->d")
    if w.size and w[0] != w[0]:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def _norm(x: np.ndarray, axis: int | None = None):
    """``np.linalg.norm(x)`` (the 2-norm of x flattened) or
    ``np.linalg.norm(x, axis=axis)`` for a float64 or complex128 array,
    by numpy's own formula: the same operations in the same order."""
    if axis is not None:
        return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(x.dot(x))


def _norm_within_compare_tol(M: np.ndarray) -> bool:
    """The one relation test: whether the spectral norm of M, a residual's
    largest principal sine or a cross-Gram's largest cosine, is at most
    COMPARE_TOL.  It is bounded by the Frobenius norm above and the largest
    column norm below; the SVD is taken only when those two disagree."""
    if _norm(M) <= COMPARE_TOL:
        return True
    if _norm(M, axis=0).max() > COMPARE_TOL:
        return False
    return float(_svd(M, compute_uv=False)[0]) <= COMPARE_TOL


def _unit_scaled(x: np.ndarray, keep_within: int = 0) -> np.ndarray:
    """x times 2**-e, e the binary exponent of its largest entry (real and
    imaginary parts apart), which brings that entry into [0.5, 1); x itself
    when |e| <= keep_within (a zero or empty x has e = 0).  ``np.ldexp`` on
    the float64 view of a C-contiguous x is exact unless an entry falls
    below the normal range."""
    flat = x.view(np.float64)
    e = int(np.frexp(np.abs(flat).max(initial=0.0))[1])
    return x if abs(e) <= keep_within else np.ldexp(flat, -e).view(x.dtype)


def _vector_list(vectors) -> list:
    """The spanning vectors as a list; a scalar in place of the list is a
    ValueError."""
    try:
        return list(vectors)
    except TypeError:
        raise ValueError("spanning vectors must be given as a list of vectors") from None


# The exact container types whose np.asarray is the list of their items;
# a subclass (np.matrix, say) or another iterable is made a list first.
_ROW_CONTAINERS = (list, tuple, np.ndarray)


def stack_columns(vectors: Sequence, field: Field, ambient_dim: int | None = None) -> np.ndarray:
    """Stack vectors as matrix columns, checking dimensions and field.

    Empty input is allowed when ``ambient_dim`` is given and yields an
    ``(ambient_dim, 0)`` matrix.

    The vectors are converted by one ``np.asarray``; a matrix with rows,
    of width ``ambient_dim`` when that is given, has passed every shape
    check.  Any other result goes to ``_shape_fault``, which names the
    fault.  The matrix is column-major (F-contiguous) and shares no memory
    with ``vectors``.
    """
    vecs = vectors if type(vectors) in _ROW_CONTAINERS else _vector_list(vectors)
    try:
        rows = np.asarray(vecs)
    except (TypeError, ValueError):  # ragged, or an entry numpy refuses
        rows = None
    if (rows is not None and rows.ndim == 2 and rows.shape[0]
            and (ambient_dim is None or rows.shape[1] == ambient_dim)):
        # The one copy, of the rows as numpy laid them out: its transpose,
        # the column-major (n, k) matrix, reaches each LAPACK gufunc in
        # LAPACK's own layout, with no transposing copy on either side.
        return as_field_array(rows, field).T
    return _shape_fault(vecs, field, ambient_dim)


def _shape_fault(vecs, field: Field, ambient_dim: int | None) -> np.ndarray:
    """The vectors that one ``np.asarray`` did not make a matrix of the
    right width, checked vector by vector: the list, each vector's length,
    an empty list's ``ambient_dim``, equal lengths, ``ambient_dim``, then
    each vector's shape, each check with its own message.  An empty list
    with ``ambient_dim`` is the one input that passes: its
    ``(ambient_dim, 0)`` matrix is returned."""
    vecs = _vector_list(vecs)
    try:
        lengths = [len(v) for v in vecs]
    except TypeError:  # a scalar entry
        raise ValueError("each spanning vector must be one-dimensional") from None
    if not vecs:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty vector list")
        return np.zeros((ambient_dim, 0), dtype=field.dtype)
    n = lengths[0]
    for length in lengths:
        if length != n:
            raise ValueError(f"dimension mismatch: expected vectors of length {n}, got {length}")
    if ambient_dim is not None and n != ambient_dim:
        raise ValueError(f"dimension mismatch: vectors have length {n}, ambient_dim is {ambient_dim}")
    # Equal lengths of ambient_dim, yet no matrix: an entry is itself nested.
    raise ValueError("each spanning vector must be one-dimensional")


def rank_cutoff(top, shape: tuple[int, ...]):
    """The value at or below which a singular value counts as zero, for a
    matrix of ``shape`` whose largest singular value is ``top`` (a float,
    or an array of them for a stack)."""
    return RANK_REL_TOL * top * max(shape)


# Spanning lists of at least this many vectors in at least this many
# dimensions (min(M.shape) >= QR_ROUTE_MIN) are orthonormalized through
# QR.  Timed with one OpenBLAS thread (numpy 2.4, n up to 256, both
# fields), one thin SVD took 1.2-3.5 times as long as QR plus the
# full-rank certificate for min(shape) >= 16, tall, square or wide (1.7-2.7
# for wide lists from 16 x 64 to 64 x 256), and 0.30-1.9 times as long
# below 16: under 1 for min(shape) <= 10 at n <= 64, over 1 for lists of
# 12 to 15 vectors in 32 or more dimensions.  The rule stays at 16: a
# lower one would give every list it moves another basis of its span.
QR_ROUTE_MIN = 16


def _rank(sigma: np.ndarray, shape: tuple[int, ...]) -> int:
    """The number of descending singular values ``sigma`` (at least one)
    of a matrix of ``shape`` above ``rank_cutoff``: the full count less the
    trailing values at or below it, read on plain floats."""
    values = sigma.tolist()
    rank = len(values)
    cutoff = rank_cutoff(values[0], shape)
    while rank and values[rank - 1] <= cutoff:
        rank -= 1
    return rank


def _full_rank_certified(R: np.ndarray, shape: tuple[int, ...]) -> bool:
    """Whether one Cholesky factorization proves full rank k for ``R``,
    the (k, m) triangular factor of a matrix of ``shape``, k = min(shape).

    It factors G = R R* less s = 8 (max(shape) + 2) eps ||R||_F^2 on the
    diagonal.  Rounding in the product moves G by at most
    gamma_m ||R||_F^2, and a Cholesky factorization that succeeds is exact
    for a matrix within gamma_(k+1) ||R||_F^2 of the one factored (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.3; Rump, BIT 46,
    2006), so success proves sigma_min(R)^2 >= s / 2: sigma_min(R) >=
    2 sqrt((max(shape) + 2) eps) sigma_max(R), about 3e-8 sqrt(max(shape))
    sigma_max(R), far above the cut 1e-12 max(shape) sigma_max(R) of
    ``rank_cutoff``, so the singular values of R would rank it full too.
    False, without factoring, when ||R||_F^2 is outside [1e-280, 1e280],
    where G could overflow or its rounding fall below the margin."""
    frobenius_sq = np.vdot(R, R).real
    if not 1e-280 <= frobenius_sq <= 1e280:
        return False
    G = R @ R.conj().T
    G.flat[:: G.shape[0] + 1] -= 8.0 * (max(shape) + 2) * _EPS * frobenius_sq
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


# A list that ranks below full is ranked again with its columns scaled
# apart when their largest moduli spread by more than this factor: the
# cut is relative to the largest singular value, so one long column can
# hide short independent ones ([1e12, 1, 0, 0], [0, 1, 0, 0] and
# [0, 0, 1, 0] rank 1 as given, 3 scaled).
SCALE_SPREAD = 2.0**10


def _columns_scaled_apart(M: np.ndarray) -> np.ndarray | None:
    """M with each nonzero column times the power of two that brings its
    largest modulus into [0.5, 1), exact at any scale, or None when the
    nonzero columns' largest moduli spread by ``SCALE_SPREAD`` or less.
    The moduli are compared as plain floats, so no array is masked."""
    tops = np.abs(M).max(axis=0).tolist()
    nonzero = [top for top in tops if top]
    if not nonzero or max(nonzero) <= SCALE_SPREAD * min(nonzero):
        return None
    shifts = [-math.frexp(top)[1] for top in tops]
    if M.dtype.kind == "c":
        scaled = np.empty_like(M)
        scaled.real, scaled.imag = np.ldexp(M.real, shifts), np.ldexp(M.imag, shifts)
        return scaled
    return np.ldexp(M, shifts)


def orthonormalize_columns(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of a matrix, with the rank cut
    of ``rank_cutoff``: Q of shape (n, rank), its width the rank.

    Below ``QR_ROUTE_MIN`` it is the leading left singular vectors of M
    (the SVD's own U at full rank).  From it on, M = QR by Householder, and
    Q itself is the basis when ``_full_rank_certified`` proves R, and so M,
    of full rank.  Else one SVD of R, whose singular values are those of M,
    gives the rank, and the basis is Q at full rank, else Q times the
    leading left singular vectors of R.  A rank below full is taken again,
    by the same rule, on ``_columns_scaled_apart(M)`` when that scales
    anything: the columns' scales, not only their directions, would
    otherwise decide it.
    """
    size = min(M.shape)
    if size == 0:
        return M[:, :0].copy()
    if size < QR_ROUTE_MIN:
        U, sigma, _ = _svd(M, full_matrices=False)
        rank = _rank(sigma, M.shape)
        if rank == size:
            return U
        basis = np.ascontiguousarray(U[:, :rank])
    else:
        Q, R = _qr(M)
        if _full_rank_certified(R, M.shape):
            return Q
        U_R, sigma, _ = _svd(R, full_matrices=False)
        rank = _rank(sigma, M.shape)
        if rank == size:
            return Q
        basis = Q @ U_R[:, :rank]
    scaled = _columns_scaled_apart(M)
    return basis if scaled is None else orthonormalize_columns(scaled)


def det(M: np.ndarray):
    """Determinant by pivoted LU (LAPACK).  Size 0 gives exactly 1."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"determinant requires a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        return complex(1.0) if np.iscomplexobj(M) else 1.0
    if M.shape[0] == 1:
        return M[0, 0].item()
    return _det(M).item()


def clamped_products(values: np.ndarray):
    """Product of the factors along the last axis, each clamped into
    [0, 1]: a float for a vector, an array for a stack of them.  No
    partial product of such factors is below the final one, so a direct
    product underflows only where the result does."""
    v = np.minimum(np.maximum(np.asarray(values, dtype=np.float64), 0.0), 1.0)
    products = v.prod(axis=-1)
    return float(products) if v.ndim == 1 else products


def principal_phase(z: complex) -> float:
    """Argument of ``z`` in (-pi, pi]; exactly -pi is mapped to +pi."""
    ph = math.atan2(z.imag, z.real) if isinstance(z, complex) else (0.0 if z >= 0 else math.pi)
    if ph == -math.pi:
        ph = math.pi
    return ph
