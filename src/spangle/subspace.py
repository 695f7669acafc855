"""Subspaces of a real or complex inner-product space.

A :class:`Subspace` is an ambient dimension, a field tag and an (n, p)
matrix with orthonormal columns; p = 0 is the zero subspace {0}, a
first-class value accepted by every operation.  Set-level operations
(projection, complement, intersection, sum, realification) live here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import COMPARE_TOL, Field, as_field_array, orthonormalize_columns, stack_columns

_ORTHO_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class Subspace:
    """A subspace given by an orthonormal basis matrix (columns)."""

    ambient_dim: int
    field: Field
    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.ascontiguousarray(as_field_array(self.basis, self.field))
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis must be ({self.ambient_dim}, p), got shape {basis.shape}"
            )
        if basis.shape[1] > self.ambient_dim:
            raise ValueError("subspace dimension cannot exceed the ambient dimension")
        gram = basis.conj().T @ basis
        if basis.shape[1] and np.max(np.abs(gram - np.eye(basis.shape[1]))) > _ORTHO_CHECK_TOL:
            raise ValueError("basis columns are not orthonormal")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _trusted(cls, ambient_dim: int, field: Field, basis: np.ndarray) -> Subspace:
        """A subspace from a basis the library has just computed, stored
        without conversion or the orthonormality check: ``basis`` must
        already have the field's dtype, shape (ambient_dim, p) and
        orthonormal columns.  The subspace takes ownership, so no other
        live object may write through ``basis``; a non-contiguous slice
        is copied."""
        basis = np.ascontiguousarray(basis)
        basis.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "basis", basis)
        return self

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0


def zero_subspace(ambient_dim: int, field: Field) -> Subspace:
    return Subspace._trusted(ambient_dim, field, np.zeros((ambient_dim, 0), dtype=field.dtype))


def full_space(ambient_dim: int, field: Field) -> Subspace:
    return Subspace._trusted(ambient_dim, field, np.eye(ambient_dim, dtype=field.dtype))


def from_spanning(vectors, field: Field, ambient_dim: int | None = None) -> Subspace:
    """Subspace spanned by the given vectors (not necessarily independent).

    An empty list needs an explicit ``ambient_dim`` and yields {0}.
    """
    M = stack_columns(vectors, field, ambient_dim=ambient_dim)
    Q, _ = orthonormalize_columns(M)
    return Subspace._trusted(M.shape[0], field, Q)


def from_basis_matrix(M: np.ndarray, field: Field) -> Subspace:
    """Subspace spanned by the columns of a matrix."""
    M = as_field_array(M, field)
    if M.ndim != 2:
        raise ValueError(f"basis matrix must be two-dimensional, got shape {M.shape}")
    Q, _ = orthonormalize_columns(M)
    return Subspace._trusted(M.shape[0], field, Q)


def _check_pair(V: Subspace, W: Subspace) -> None:
    if V.ambient_dim != W.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {V.ambient_dim} vs {W.ambient_dim}"
        )
    if V.field is not W.field:
        raise ValueError(f"field mismatch: {V.field.value} vs {W.field.value}")


def project_vector(W: Subspace, v) -> np.ndarray:
    """Orthogonal projection of a vector onto W."""
    v = as_field_array(v, W.field)
    if v.shape != (W.ambient_dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({W.ambient_dim},)")
    return W.basis @ (W.basis.conj().T @ v)


def project_subspace(W: Subspace, V: Subspace) -> Subspace:
    """The image of V under orthogonal projection onto W.

    The singular values of the projected basis are the principal cosines
    of (V, W); the directions whose cosine is at most COMPARE_TOL are at a
    right angle to W and drop out, so the image dimension is smaller than
    dim V exactly when ``is_partially_orthogonal(V, W)``.
    """
    _check_pair(W, V)
    if V.is_zero or W.is_zero:
        return zero_subspace(V.ambient_dim, V.field)
    projected = W.basis @ (W.basis.conj().T @ V.basis)
    U, cosines, _ = np.linalg.svd(projected, full_matrices=False)
    return Subspace._trusted(V.ambient_dim, V.field, U[:, cosines > COMPARE_TOL])


def complement(V: Subspace) -> Subspace:
    """Orthogonal complement, of dimension n - dim V."""
    n, p = V.ambient_dim, V.dim
    if p == 0:
        return full_space(n, V.field)
    if p == n:
        return zero_subspace(n, V.field)
    # Full SVD of the basis: the trailing left singular vectors span the
    # orthogonal complement exactly.
    U, _, _ = np.linalg.svd(V.basis, full_matrices=True)
    return Subspace._trusted(n, V.field, U[:, p:])


def sum_subspace(V: Subspace, W: Subspace) -> Subspace:
    """V + W, the span of both."""
    _check_pair(V, W)
    stacked = np.hstack([V.basis, W.basis])
    Q, _ = orthonormalize_columns(stacked)
    return Subspace._trusted(V.ambient_dim, V.field, Q)


def _sum_all(parts: Sequence[Subspace]) -> Subspace:
    """parts[0] + parts[1] + ..., summed left to right (nonempty parts)."""
    return functools.reduce(sum_subspace, parts)


def _pairwise_orthogonal(parts: Sequence[Subspace]) -> bool:
    """Whether every two of the parts are orthogonal within COMPARE_TOL."""
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if parts[i].dim == 0 or parts[j].dim == 0:
                continue
            cross = parts[i].basis.conj().T @ parts[j].basis
            if float(np.max(np.abs(cross))) > COMPARE_TOL:
                return False
    return True


def _inside(X: np.ndarray, W: Subspace) -> np.ndarray:
    """The containment rule, per unit column of X: whether its residual
    from W has no entry above COMPARE_TOL in absolute value."""
    residual = X - W.basis @ (W.basis.conj().T @ X)
    return (np.abs(residual) <= COMPARE_TOL).all(axis=0)


def intersect(V: Subspace, W: Subspace) -> Subspace:
    """V intersect W, from the principal directions at a numerically zero angle.

    The candidates are the principal directions of V whose cosine is
    within COMPARE_TOL of 1 (thresholding the angle itself is hopeless in
    double precision because arccos is ill-conditioned at 0); of those,
    only the ones that pass the containment rule of ``is_subspace_of``
    are kept, so the result always lies in both V and W.  Principal
    directions are orthonormal, so the kept ones are the basis as they are.
    """
    _check_pair(V, W)
    if V.is_zero or W.is_zero:
        return zero_subspace(V.ambient_dim, V.field)
    M = W.basis.conj().T @ V.basis
    _, sigma, Vh = np.linalg.svd(M, full_matrices=False)
    common = V.basis @ Vh.conj().T[:, sigma >= 1.0 - COMPARE_TOL]
    return Subspace._trusted(V.ambient_dim, V.field, common[:, _inside(common, W)])


def is_subspace_of(V: Subspace, W: Subspace) -> bool:
    """True when every basis direction of V lies in W: the one containment
    rule, which also decides ``spans_equal`` and ``intersect``."""
    _check_pair(V, W)
    return bool(_inside(V.basis, W).all())


def spans_equal(V: Subspace, W: Subspace) -> bool:
    """Span equality: equal dimensions, and V lies in W."""
    _check_pair(V, W)
    return V.dim == W.dim and is_subspace_of(V, W)


def realify_vector(v: np.ndarray) -> np.ndarray:
    """Complex vector -> real vector of twice the length, interleaved.

    Layout is (re_1, im_1, re_2, im_2, ...), which keeps multiplication
    by i block-diagonal with 2x2 rotation blocks.
    """
    v = np.asarray(v, dtype=np.complex128)
    out = np.empty(2 * v.shape[0], dtype=np.float64)
    out[0::2] = v.real
    out[1::2] = v.imag
    return out


def realification_j(n: int) -> np.ndarray:
    """The matrix of multiplication by i on the realified space R^(2n)."""
    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        J[2 * k, 2 * k + 1] = -1.0
        J[2 * k + 1, 2 * k] = 1.0
    return J


def realify(V: Subspace) -> Subspace:
    """Underlying real subspace of a complex one: ambient 2n, dimension 2p.

    The real basis pairs each complex basis vector b with i*b; the real
    inner product is Re<.,.> so the images stay orthonormal.
    """
    if V.field is not Field.COMPLEX:
        raise ValueError("realify expects a COMPLEX subspace")
    cols = []
    for j in range(V.dim):
        b = V.basis[:, j]
        cols.append(realify_vector(b))
        cols.append(realify_vector(1j * b))
    basis = np.column_stack(cols) if cols else np.zeros((2 * V.ambient_dim, 0))
    return Subspace._trusted(2 * V.ambient_dim, Field.REAL, basis)
