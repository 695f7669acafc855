"""Angles from arbitrary (non-orthonormal) bases via Gram determinants.

With A the Gram matrix of W's basis, D the Gram matrix of V's basis and
B the cross-Gram <w_i, v_j>, the squared cosine of the directed angle is
det(B* A^-1 B) / det D, and the squared cosine of the complementary
angle is det(A - B D^-1 B*) / det A.  A^-1 B and D^-1 B* are computed by
linear solves; badly conditioned Gram matrices are rejected instead of
silently producing garbage.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .linalg import (
    Field,
    _svd,
    _unit_scaled,
    _vector_list,
    angle_from_cosine,
    as_field_array,
    clamp01,
    det,
    rank_cutoff,
    stack_columns,
)

GRAM_CONDITION_LIMIT = 1e12


class ProjectionAngleMode(enum.Enum):
    THETA = "theta"
    PERP = "perp"


def _gram_matrices(basis_v, basis_w, field: Field, ambient_dim: int | None):
    # Empty lists denote the zero subspace; the ambient size then comes from
    # an explicit ambient_dim or, through stack_columns, the other list.
    basis_v, basis_w = _vector_list(basis_v), _vector_list(basis_w)
    if ambient_dim is None and not basis_v:
        if not basis_w:
            raise ValueError("cannot infer the ambient dimension from two empty lists")
        Wm = stack_columns(basis_w, field)
        Vm = stack_columns(basis_v, field, ambient_dim=Wm.shape[0])
    else:
        Vm = stack_columns(basis_v, field, ambient_dim=ambient_dim)
        Wm = stack_columns(basis_w, field, ambient_dim=Vm.shape[0])
    # Every ratio below, and the condition test, is unchanged when one list
    # is multiplied by a scalar.  The Gram determinants have degree 2p in a
    # list of p vectors, and one route multiplies two of them, so a list
    # whose largest entry is 2**e with |e| p > 128 is brought into [0.5, 1)
    # by an exact power of two; the rest keep their bits.
    Vm = _unit_scaled(Vm, 128 // max(Vm.shape[1], 1))
    Wm = _unit_scaled(Wm, 128 // max(Wm.shape[1], 1))
    A = Wm.conj().T @ Wm
    B = Wm.conj().T @ Vm
    D = Vm.conj().T @ Vm
    return A, B, D, _check_conditioning(A, "second"), _check_conditioning(D, "first")


def _check_conditioning(G: np.ndarray, which: str) -> float:
    """The largest singular value of G (0.0 if empty), once G is known to be well conditioned."""
    if G.shape[0] == 0:
        return 0.0
    sigma = _svd(G, compute_uv=False)
    if sigma[-1] == 0.0 or sigma[0] / sigma[-1] > GRAM_CONDITION_LIMIT:
        raise ValueError(
            f"the {which} basis list is numerically dependent "
            f"(Gram condition above {GRAM_CONDITION_LIMIT:.0e})"
        )
    return float(sigma[0])


def _psd_det_rank_floored(M: np.ndarray, top: float) -> float:
    """Determinant of a Hermitian PSD matrix with noise eigenvalues
    zeroed.

    The matrices landing here (projected Gram products, Schur
    complements) are often *structurally* singular: eigenvalues that are
    mathematically zero come back as determinant residue of order eps
    that a naive det would turn into sqrt(eps)-sized cosines.  Both are
    dominated (in the PSD order) by a reference matrix whose largest
    eigenvalue, positive, is ``top``, so eigenvalues below the rank
    threshold relative to that scale are exact zeros.
    """
    if M.shape[0] == 0:
        return 1.0
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    floor = rank_cutoff(top, M.shape)
    eigs = np.where(eigs > floor, eigs, 0.0)
    return float(np.prod(eigs))


def _angle_from_cos_sq(cos_sq: float) -> float:
    """The angle of a squared cosine, clamped into [0, 1] first."""
    return angle_from_cosine(math.sqrt(clamp01(cos_sq)))


def angle_from_gram(basis_v, basis_w, field: Field, ambient_dim: int | None = None) -> float:
    """Directed angle of span(basis_v) with span(basis_w) from raw bases.

    When p > q the product matrix is rank deficient and its floored
    determinant vanishes, giving pi/2 as it must.
    """
    A, B, D, _, top_d = _gram_matrices(basis_v, basis_w, field, ambient_dim)
    numerator = _psd_det_rank_floored(B.conj().T @ np.linalg.solve(A, B), top_d)
    return _angle_from_cos_sq(numerator / float(np.real(det(D))))


def angle_from_gram_equal_dim(basis_v, basis_w, field: Field, ambient_dim: int | None = None) -> float:
    """Equal-dimension shortcut: cos^2 = |det B|^2 / (det A det D)."""
    A, B, D, _, _ = _gram_matrices(basis_v, basis_w, field, ambient_dim)
    if B.shape[0] != B.shape[1]:
        raise ValueError(
            f"the equal-dimension shortcut needs equally many vectors, got {B.shape[1]} and {B.shape[0]}"
        )
    return _angle_from_cos_sq(abs(det(B)) ** 2 / (float(np.real(det(A))) * float(np.real(det(D)))))


def complementary_from_gram(basis_v, basis_w, field: Field, ambient_dim: int | None = None) -> float:
    """Complementary angle from raw bases via the Schur complement."""
    A, B, D, top_a, _ = _gram_matrices(basis_v, basis_w, field, ambient_dim)
    schur = A - B @ np.linalg.solve(D, B.conj().T)
    return _angle_from_cos_sq(_psd_det_rank_floored(schur, top_a) / float(np.real(det(A))))


def angle_from_projection_matrix(P: np.ndarray, mode: ProjectionAngleMode) -> float:
    """Angles from a (q, p) matrix representing the orthogonal projection
    V -> W in orthonormal bases.

    THETA: arccos sqrt(det(P* P));  PERP: arccos sqrt(det(I_q - P P*)),
    each exactly 0 inside the zero-angle band like every other route.
    Both matrices lie between 0 and the identity, so their determinants
    are floored against it as the other Gram routes floor theirs.
    """
    P = as_field_array(P, Field.COMPLEX if np.iscomplexobj(P) else Field.REAL)
    if P.ndim != 2:
        raise ValueError(f"projection matrix must be 2-dimensional, got shape {P.shape}")
    if mode is ProjectionAngleMode.THETA:
        M = P.conj().T @ P
    elif mode is ProjectionAngleMode.PERP:
        M = np.eye(P.shape[0], dtype=P.dtype) - P @ P.conj().T
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return _angle_from_cos_sq(_psd_det_rank_floored(M, 1.0))
