"""Subspaces of a real or complex inner-product space.

A :class:`Subspace` is an ambient dimension, a field tag and an (n, p)
matrix with orthonormal columns; p = 0 is the zero subspace {0}, a
first-class value accepted by every operation.  Set-level operations
(projection, complement, sum, realification) and the relations, each
decided on a 2-norm, live here; ``intersect`` lives in ``principal``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    COMPARE_TOL,
    Field,
    _norm_within_compare_tol,
    _svd,
    as_field_array,
    orthonormalize_columns,
    stack_columns,
)

_ORTHO_CHECK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace given by an orthonormal basis matrix (columns).

    ``dim``, the basis width p, is stored beside the three fields when the
    subspace is built (a plain attribute, read on every pair, not a
    dataclass field), and like them cannot be assigned.  ``==`` and
    ``hash`` are by identity, since one subspace has many bases:
    :func:`spans_equal` tests whether two subspaces are equal."""

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
        if basis.shape[1]:
            # One SVD B = U S Vh: the 2-norm of B*B - I is max |s_i^2 - 1|,
            # decided on the s_i themselves, so no square can overflow.
            U, s, Vh = _svd(basis, full_matrices=False)
            if not (1.0 - _ORTHO_CHECK_TOL) ** 0.5 <= s[-1] <= s[0] <= (1.0 + _ORTHO_CHECK_TOL) ** 0.5:
                raise ValueError("basis columns are not orthonormal")
            # The nearest orthonormal basis, B's polar factor, so that no
            # result inherits an error the check let through.
            basis = U @ Vh
        basis.setflags(write=False)
        self.__dict__.update(basis=basis, dim=basis.shape[1])

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
        self.__dict__.update(ambient_dim=ambient_dim, field=field, basis=basis, dim=basis.shape[1])
        return self

    @property
    def is_zero(self) -> bool:
        return self.dim == 0


def zero_subspace(ambient_dim: int, field: Field) -> Subspace:
    return Subspace._trusted(ambient_dim, field, np.zeros((ambient_dim, 0), dtype=field.dtype))


def full_space(ambient_dim: int, field: Field) -> Subspace:
    return Subspace._trusted(ambient_dim, field, np.eye(ambient_dim, dtype=field.dtype))


def _span(M: np.ndarray, field: Field) -> Subspace:
    """The column span of a matrix the library has built or checked: it
    must already be two-dimensional with the field's dtype and finite
    entries, and is orthonormalized and stored without further checks."""
    return Subspace._trusted(M.shape[0], field, orthonormalize_columns(M))


def from_spanning(vectors, field: Field, ambient_dim: int | None = None) -> Subspace:
    """Subspace spanned by the given vectors (not necessarily independent).

    An empty list needs an explicit ``ambient_dim`` and yields {0}.
    """
    return _span(stack_columns(vectors, field, ambient_dim=ambient_dim), field)


def from_basis_matrix(M: np.ndarray, field: Field) -> Subspace:
    """Subspace spanned by the columns of a matrix."""
    M = as_field_array(M, field)
    if M.ndim != 2:
        raise ValueError(f"basis matrix must be two-dimensional, got shape {M.shape}")
    return _span(M, field)


def _check_pair(V: Subspace, W: Subspace) -> None:
    """Both operands live in one ambient space over one field (it reads only
    ``ambient_dim`` and ``field``, so it checks exterior multivectors too)."""
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
    # Its own SVD, not W.basis @ U of the pair's principal frame: that route
    # raised default verify's direct_sum_product and partition_product
    # residuals from 6.66e-15 to 5.78e-14 and spherical_pythagorean's from
    # 7.8e-16 to 1.3e-15, and took 187.3 SVDs per verify-all op, not 177.4.
    projected = W.basis @ (W.basis.conj().T @ V.basis)
    U, cosines, _ = _svd(projected, full_matrices=False)
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
    U, _, _ = _svd(V.basis, full_matrices=True)
    return Subspace._trusted(n, V.field, U[:, p:])


def sum_subspace(V: Subspace, W: Subspace) -> Subspace:
    """V + W, the span of both."""
    _check_pair(V, W)
    return _span(np.hstack([V.basis, W.basis]), V.field)


def _sum_all(parts: Sequence[Subspace]) -> Subspace:
    """parts[0] + parts[1] + ..., summed left to right (nonempty parts)."""
    return functools.reduce(sum_subspace, parts)


def _check_partition(V: Subspace, parts: Sequence[Subspace]) -> None:
    """The parts, at least one, have dimensions summing to dim V and span V
    (so they are disjoint)."""
    if not parts or sum(p.dim for p in parts) != V.dim or not spans_equal(_sum_all(parts), V):
        raise ValueError("partition parts do not sum to V (need at least one part, spanning V, of total dim V)")


def _pairwise_orthogonal(parts: Sequence[Subspace]) -> bool:
    """Whether every two of the parts are orthogonal: the 2-norm of their
    cross-Gram, their largest principal cosine, is at most COMPARE_TOL."""
    return all(_norm_within_compare_tol(a.basis.conj().T @ b.basis) for a, b in itertools.combinations(parts, 2))


def _residual(X: np.ndarray, W: Subspace) -> np.ndarray:
    """The columns of X minus their orthogonal projections onto W."""
    return X - W.basis @ (W.basis.conj().T @ X)


def is_subspace_of(V: Subspace, W: Subspace) -> bool:
    """True when V lies in W: the 2-norm of V's residual from W, its
    largest principal sine, is at most COMPARE_TOL.  The same test decides
    ``spans_equal`` and, direction by direction, ``intersect``."""
    _check_pair(V, W)
    return _norm_within_compare_tol(_residual(V.basis, W))


def spans_equal(V: Subspace, W: Subspace) -> bool:
    """Span equality: equal dimensions, and V lies in W."""
    _check_pair(V, W)
    return V.dim == W.dim and is_subspace_of(V, W)


def realify(V: Subspace) -> Subspace:
    """Underlying real subspace of a complex one: ambient 2n, dimension 2p.

    Vectors are interleaved, (re_1, im_1, re_2, im_2, ...), which keeps
    multiplication by i block-diagonal with 2x2 rotation blocks.  The real
    basis pairs each complex basis vector b with i*b; the real inner
    product is Re<.,.> so the images stay orthonormal.
    """
    if V.field is not Field.COMPLEX:
        raise ValueError("realify expects a COMPLEX subspace")
    B = V.basis
    basis = np.empty((2 * V.ambient_dim, 2 * V.dim))
    basis[0::2, 0::2] = B.real
    basis[1::2, 0::2] = B.imag
    basis[0::2, 1::2] = -B.imag
    basis[1::2, 1::2] = B.real
    return Subspace._trusted(2 * V.ambient_dim, Field.REAL, basis)
