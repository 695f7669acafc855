"""Principal angles and bases, partial orthogonality, principal partitions.

Principal angles come from the SVD of the cross-Gram of orthonormal
bases: its singular values are the cosines (clamped into [0, 1] before
arccos) and the rotated bases satisfy <e_i, f_j> = delta_ij cos(theta_i).
Principal vectors are not unique; only angles and spans are comparable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import COMPARE_TOL, HALF_PI, Field
from .subspace import Subspace, _check_pair, _pairwise_orthogonal, _sum_all, project_subspace, spans_equal

# Cosines above this band are indistinguishable from 1 at SVD backward
# error, so their angles count as exact zeros, with zero sines (else every
# genuinely shared direction would contribute a spurious sqrt(eps) sine).
_ZERO_ANGLE_COS_BAND = 1.0 - 256.0 * np.finfo(np.float64).eps


def _angles_from_cosines(cosines: np.ndarray) -> np.ndarray:
    """arccos of cosines in [0, 1], exactly 0 inside the zero-angle band:
    a shared direction gets 0, not an arccos of roundoff that would depend
    on how the cross-Gram was oriented and decomposed."""
    angles = np.arccos(cosines)
    angles[cosines >= _ZERO_ANGLE_COS_BAND] = 0.0
    return angles


@dataclass(frozen=True)
class PairSpectrum:
    """Principal cosines (descending, clamped into [0, 1]), sines and
    angles of an ordered pair of subspaces of dimensions p and q over
    ``field``; all three arrays are read-only and have length min(p, q).
    Built only by :func:`pair_spectrum`."""

    cosines: np.ndarray
    p: int
    q: int
    field: Field

    @cached_property
    def sines(self) -> np.ndarray:
        """Taken on first use, since the directed angle needs none.
        (1 - c)(1 + c) is never negative, so only the upper clamp acts."""
        c = self.cosines
        sines = np.sqrt(np.minimum((1.0 - c) * (1.0 + c), 1.0))
        sines[c >= _ZERO_ANGLE_COS_BAND] = 0.0
        sines.setflags(write=False)
        return sines

    @cached_property
    def angles(self) -> np.ndarray:
        """Ascending principal angles, with the same zero band as the
        sines."""
        angles = _angles_from_cosines(self.cosines)
        angles.setflags(write=False)
        return angles


# (weakref(V), weakref(W), spectrum of (V, W)), read and replaced whole, so
# threads sharing it see one consistent slot; it keeps no pair alive.
_last_pair: tuple | None = None


def pair_spectrum(V: Subspace, W: Subspace) -> PairSpectrum:
    """Spectrum of (V, W) from one SVD of the tall cross-Gram, with the
    higher-dimensional side (W on a tie) conjugate-transposed.  Repeat
    calls on the same two objects, in either order, reuse it."""
    global _last_pair
    memo = _last_pair
    if memo is not None:
        a, b = memo[0](), memo[1]()
        if a is V and b is W:
            return memo[2]
        if a is W and b is V:
            return PairSpectrum(memo[2].cosines, V.dim, W.dim, V.field)
    _check_pair(V, W)
    if V.is_zero or W.is_zero:
        cosines = np.zeros(0)
    else:
        M = W.basis.conj().T @ V.basis if V.dim <= W.dim else V.basis.conj().T @ W.basis
        # Singular values are never negative: only the upper clamp acts.
        cosines = np.minimum(np.linalg.svd(M, compute_uv=False), 1.0)
    cosines.setflags(write=False)
    spectrum = PairSpectrum(cosines, V.dim, W.dim, V.field)
    _last_pair = (weakref.ref(V), weakref.ref(W), spectrum)
    return spectrum


@dataclass(frozen=True)
class PrincipalDecomposition:
    """Sorted principal angles plus associated principal bases.

    angles       ascending, length min(p, q)
    left_basis   (n, p) orthonormal basis of the first subspace
    right_basis  (n, q) orthonormal basis of the second subspace

    Columns past index min(p, q) complete the bases arbitrarily.
    """

    angles: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray


@dataclass(frozen=True)
class Partition:
    """A list of pairwise-disjoint subspaces whose direct sum is a subspace."""

    parts: tuple[Subspace, ...]

    def __init__(self, parts: Sequence[Subspace]):
        object.__setattr__(self, "parts", tuple(parts))


def principal_decomposition(V: Subspace, W: Subspace) -> PrincipalDecomposition:
    """Principal angles and bases of a pair of nonzero subspaces."""
    _check_pair(V, W)
    if V.is_zero or W.is_zero:
        raise ValueError("principal bases are undefined for the zero subspace")
    M = W.basis.conj().T @ V.basis  # (q, p) cross-Gram
    U, sigma, Vh = np.linalg.svd(M, full_matrices=True)
    angles = _angles_from_cosines(np.minimum(sigma, 1.0))  # descending sigma -> ascending angles
    left = V.basis @ Vh.conj().T
    right = W.basis @ U
    return PrincipalDecomposition(angles=angles, left_basis=left, right_basis=right)


def principal_cosines(V: Subspace, W: Subspace) -> np.ndarray:
    """Descending principal cosines, clamped into [0, 1] (read-only)."""
    return pair_spectrum(V, W).cosines


def principal_angles(V: Subspace, W: Subspace) -> np.ndarray:
    """Just the ascending principal angles (empty when either space is {0};
    read-only)."""
    return pair_spectrum(V, W).angles


def is_partially_orthogonal(V: Subspace, W: Subspace) -> bool:
    """True when V contains a nonzero vector orthogonal to all of W.

    Equivalent to dim V > dim W or some principal angle being pi/2.
    {0} is never partially orthogonal to anything.
    """
    _check_pair(V, W)
    if V.is_zero:
        return False
    if V.dim > W.dim:
        return True
    return bool(principal_angles(V, W)[-1] >= HALF_PI - COMPARE_TOL)


def is_principal_partition(V: Subspace, partition: Partition, W: Subspace) -> bool:
    """Whether a partition of V is principal with respect to W.

    A partition assembled from coordinate subspaces of one principal basis
    is characterized by its projections onto W being pairwise orthogonal.
    Non-orthogonal partitions are never principal.
    """
    _check_pair(V, W)
    if W.is_zero:
        raise ValueError("principal partitions are undefined against the zero subspace")
    parts = partition.parts
    if sum(p.dim for p in parts) != V.dim or (parts and not spans_equal(_sum_all(parts), V)):
        raise ValueError("partition parts do not sum to the given subspace")
    if not _pairwise_orthogonal(parts):
        return False
    projected = [project_subspace(W, p) for p in parts]
    return _pairwise_orthogonal(projected)
