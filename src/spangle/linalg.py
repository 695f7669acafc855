"""Dense matrix kernel shared by every other module.

Real scalars are float64, complex scalars are complex128; a :class:`Field`
tag travels with every higher-level object so both cases run through one
code path.  Matrices are plain numpy arrays in C (row-major) order with
vectors stored as columns.  All routines are pure functions on immutable
values and are sized for small dense problems (ambient dimension <= 64).
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

import numpy as np

HALF_PI = math.pi / 2


class Field(enum.Enum):
    """Ground field of a subspace: real or complex scalars."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self is Field.COMPLEX else np.float64)


# The numerical policy, one job per tolerance: RANK_REL_TOL ranks a
# spanning list or matrix (singular values at or below RANK_REL_TOL *
# sigma_max * max(shape) count as zero); COMPARE_TOL decides every relation
# between two subspaces, and a principal cosine at or below it is a right angle.
RANK_REL_TOL = 1e-12
COMPARE_TOL = 1e-9

# Cosines above this band are indistinguishable from 1 at SVD backward
# error, so their angles count as exact zeros, with zero sines (else every
# genuinely shared direction would contribute a spurious sqrt(eps) sine).
ZERO_ANGLE_COS_BAND = 1.0 - 256.0 * float(np.finfo(np.float64).eps)


def as_field_array(values: Iterable, field: Field) -> np.ndarray:
    """Convert to the dtype of ``field``, rejecting complex data under REAL
    and non-finite entries (NaN or infinity) under either field."""
    arr = np.asarray(values)
    if field is Field.REAL and np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise ValueError("complex entries are not allowed in a REAL-tagged value")
        arr = arr.real
    arr = np.array(arr, dtype=field.dtype, order="C", ndmin=1)  # a fresh C-ordered copy, at least 1-D
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("entries must be finite (no NaN or infinity)")
    return arr


def clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def arccos_clamped(x: float) -> float:
    """arccos of x clamped into [0, 1] (rounding can push a cosine
    slightly outside)."""
    return math.acos(clamp01(x))


def in_zero_angle_band(c):
    """Whether a cosine (elementwise, for an array) lies in the zero-angle
    band, where it stands for an angle of exactly 0."""
    return c >= ZERO_ANGLE_COS_BAND


def angle_from_cosine(c: float) -> float:
    """The angle of a cosine: exactly 0 inside the zero-angle band, so that
    shared or contained directions give exact angles, else arccos of c
    clamped into [0, 1]."""
    if in_zero_angle_band(c):
        return 0.0
    return arccos_clamped(c)


def stack_columns(vectors: Sequence, field: Field, ambient_dim: int | None = None) -> np.ndarray:
    """Stack vectors as matrix columns, checking dimensions and field.

    Empty input is allowed when ``ambient_dim`` is given and yields an
    ``(ambient_dim, 0)`` matrix.
    """
    vecs = [np.asarray(v) for v in vectors]
    for v in vecs:
        if v.ndim != 1:
            raise ValueError("each spanning vector must be one-dimensional")
    if not vecs:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty vector list")
        return np.zeros((ambient_dim, 0), dtype=field.dtype)
    n = vecs[0].shape[0]
    for v in vecs:
        if v.shape[0] != n:
            raise ValueError(f"dimension mismatch: expected vectors of length {n}, got {v.shape[0]}")
    if ambient_dim is not None and n != ambient_dim:
        raise ValueError(f"dimension mismatch: vectors have length {n}, ambient_dim is {ambient_dim}")
    return as_field_array(np.array(vecs).T, field)


def rank_cutoff(top, shape: tuple[int, ...]):
    """The value at or below which a singular value counts as zero, for a
    matrix of ``shape`` whose largest singular value is ``top`` (a float,
    or an array of them for a stack)."""
    return RANK_REL_TOL * top * max(shape)


def orthonormalize_columns(M: np.ndarray) -> tuple[np.ndarray, int]:
    """SVD-based column orthonormalization of a matrix, with the rank cut
    of ``rank_cutoff``: returns ``(Q, rank)``, Q of shape (n, rank)."""
    if min(M.shape) == 0:
        return M[:, :0].copy(), 0
    U, sigma, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.count_nonzero(sigma > rank_cutoff(float(sigma[0]), M.shape)))
    return np.ascontiguousarray(U[:, :rank]), rank


def det(M: np.ndarray):
    """Determinant by pivoted LU (LAPACK).  Size 0 gives exactly 1."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"determinant requires a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        return complex(1.0) if np.iscomplexobj(M) else 1.0
    if M.shape[0] == 1:
        return M[0, 0].item()
    return np.linalg.det(M).item()


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
