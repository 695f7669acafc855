"""Principal angles and bases, partial orthogonality, principal partitions.

Principal angles come from the SVD of the cross-Gram of orthonormal
bases: its singular values are the cosines (clamped into [0, 1]) and the
rotated bases satisfy <e_i, f_j> = delta_ij cos(theta_i).
Principal vectors are not unique; only angles and spans are comparable.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    COMPARE_TOL,
    HALF_PI,
    ZERO_ANGLE_COS_BAND,
    _COMPLEX,
    _norm_within_compare_tol,
    _svd,
    angle_from_cosine,
)
from .subspace import (
    Subspace,
    _check_pair,
    _check_partition,
    _pairwise_orthogonal,
    _residual,
    project_subspace,
    zero_subspace,
)


@dataclass(frozen=True, init=False, eq=False)
class PairSpectrum:
    """Principal cosines (descending, clamped into [0, 1]), sines and
    angles (ascending) of an ordered pair of subspaces of dimensions p and
    q, each read-only and of length min(p, q), and the pair's angle family,
    all reduced from the cosines at once when :func:`_fresh_spectrum`,
    which alone builds spectra from an SVD, takes it:

    cos_theta, theta            the directed angle of V with W (cos_theta
                                is 1.0 when V = {0}): a right angle when
                                p > q, else the angle of the product of
                                the cosines
    theta_back                  the directed angle of W with V, by the
                                same rule with p and q exchanged
    cos_theta_perp, theta_perp  the complementary angle

    Every angle is ``angle_from_cosine`` of its cosine, so a shared
    direction gets exactly 0 and, for a line, ``angles[-1]`` is ``theta``
    bit for bit.  ``theta_max``, ``cos_spread`` and ``shared`` are read off
    the cosines and sines when asked for.  It has no constructor, and no
    field can be assigned or deleted."""

    cosines: np.ndarray
    p: int
    q: int
    sines: np.ndarray
    angles: np.ndarray
    cos_theta: float
    theta: float
    theta_back: float
    cos_theta_perp: float
    theta_perp: float

    def _reversed(self) -> PairSpectrum:
        """The spectrum of (W, V): this one's state with p and q and the
        two directed angles exchanged, without this order's frame."""
        state = dict(self.__dict__)
        state.pop("_uvh", None)
        state.update(
            p=self.q, q=self.p, cos_theta=0.0 if self.q > self.p else self._cos_product,
            theta=self.theta_back, theta_back=self.theta,
        )
        reverse = object.__new__(PairSpectrum)
        reverse.__dict__.update(state)
        return reverse

    def _frame(self, V: Subspace, W: Subspace) -> tuple[np.ndarray, np.ndarray]:
        """(U, Vh) of the full SVD of W* V for the nonzero pair (V, W) this
        spectrum is of, built on first use and kept (the reverse order's
        spectrum builds its own): only the factors, so the memo keeps no
        pair alive."""
        if "_uvh" not in self.__dict__:
            U, _, Vh = _svd(W.basis.conj().T @ V.basis, full_matrices=True)
            self.__dict__["_uvh"] = (U, Vh)
        return self.__dict__["_uvh"]

    @property
    def shared(self) -> int:
        """The candidates for shared directions: the cosines within
        COMPARE_TOL of 1.  A sine at most COMPARE_TOL, which ``intersect``
        tests, forces its cosine above that, so none is missed."""
        return sum(c >= 1.0 - COMPARE_TOL for c in self._cos)

    @property
    def theta_max(self) -> float:
        """Largest angle between a direction of V (nonzero) and W."""
        return HALF_PI if self.p > self.q else float(self.angles[-1])

    @property
    def cos_spread(self) -> float:
        """cos(theta_max - smallest angle) for nonzero V and W, expanded on
        the cosines and sines of the two (differencing two arccos values
        would lose sqrt(eps) near zero angles)."""
        c, s = self._cos, self._sin
        cos_max, sin_max = (0.0, 1.0) if self.p > self.q else (c[-1], s[-1])
        return min(cos_max * c[0] + sin_max * s[0], 1.0)


# (weakref(V), weakref(W), spectrum of (V, W), spectrum of (W, V) or None
# until pair_spectrum is asked for the reverse order), read and replaced
# whole, so threads sharing it see one consistent slot; it keeps no pair
# alive.  grassmann_angle and complementary_angle read a reverse hit off
# the held spectrum, and build no reverse one.
_last_pair: tuple | None = None


def _probe(V: Subspace, W: Subspace) -> tuple[PairSpectrum, bool, tuple] | None:
    """(held spectrum, whether it is of (W, V), the memo slot) when the slot
    holds V and W in either order, else None.  Each reader probes once, so
    a miss goes straight to :func:`_fresh_spectrum`."""
    memo = _last_pair
    if memo is not None:
        a, b = memo[0](), memo[1]()
        if a is V and b is W:
            return memo[2], False, memo
        if a is W and b is V:
            return memo[2], True, memo
    return None


def pair_spectrum(V: Subspace, W: Subspace) -> PairSpectrum:
    """Spectrum of (V, W) from one SVD of the tall cross-Gram, with the
    higher-dimensional side (W on a tie) conjugate-transposed, reduced at
    once to the pair's angle family on plain floats.  Repeat calls on the
    same two objects, in either order, reuse it: the reverse order's
    spectrum is built on its first hit and kept in the slot."""
    global _last_pair
    held = _probe(V, W)
    if held is None:
        return _fresh_spectrum(V, W)
    spectrum, reverse, memo = held
    if not reverse:
        return spectrum
    if memo[3] is None:
        _last_pair = memo = (*memo[:3], spectrum._reversed())
    return memo[3]


def _fresh_spectrum(V: Subspace, W: Subspace) -> PairSpectrum:
    """:func:`pair_spectrum` on a memo miss: check the pair, take the SVD
    and put the spectrum in the memo slot.

    The products keep numpy's bits (sequential, started at 1.0 so that an
    empty one is a float), as do the sines (sqrt is correctly rounded), and
    both directed angles come from the one angle of the cosine product."""
    global _last_pair
    _check_pair(V, W)
    p, q = V.dim, W.dim
    if p and q:
        A, B = (W.basis, V.basis) if p > q else (V.basis, W.basis)
        # A real B needs no conjugate, which would copy it.
        cosines = _svd((B.conj().T if V.field is _COMPLEX else B.T) @ A, compute_uv=False)
        cos = cosines.tolist()
        # Singular values are never negative, and they descend: only the
        # upper clamp can act, and only when the first is above 1.
        if cos[0] > 1.0:
            cosines = np.minimum(cosines, 1.0)
            cos = cosines.tolist()
    else:
        cosines = np.zeros(0)
        cos = []
    # The zero-angle band, as in angle_from_cosine; (1 - c)(1 + c) is never
    # negative, so only the upper clamp acts.
    sin = [0.0 if c >= ZERO_ANGLE_COS_BAND else math.sqrt(min((1.0 - c) * (1.0 + c), 1.0)) for c in cos]
    cos_product = math.prod(cos, start=1.0)
    cos_theta_perp = math.prod(sin, start=1.0)
    theta = angle_from_cosine(cos_product)
    sines = np.array(sin)
    angles = np.array([angle_from_cosine(c) for c in cos])
    cosines.setflags(write=False)
    sines.setflags(write=False)
    angles.setflags(write=False)
    spectrum = object.__new__(PairSpectrum)
    spectrum.__dict__.update(
        cosines=cosines, p=p, q=q, sines=sines, angles=angles, cos_theta=0.0 if p > q else cos_product,
        theta=HALF_PI if p > q else theta, theta_back=HALF_PI if q > p else theta,
        cos_theta_perp=cos_theta_perp, theta_perp=angle_from_cosine(cos_theta_perp),
        _cos=cos, _sin=sin, _cos_product=cos_product,
    )
    _last_pair = (weakref.ref(V), weakref.ref(W), spectrum, None)
    return spectrum


@dataclass(frozen=True, eq=False)
class PrincipalDecomposition:
    """Sorted principal angles plus associated principal bases.

    angles       ascending, length min(p, q) (read-only)
    left_basis   (n, p) orthonormal basis of the first subspace
    right_basis  (n, q) orthonormal basis of the second subspace

    Columns past index min(p, q) complete the bases arbitrarily.
    """

    angles: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray


def principal_decomposition(V: Subspace, W: Subspace) -> PrincipalDecomposition:
    """Principal angles and bases of a pair of nonzero subspaces, read off
    the pair's spectrum and its principal frame."""
    s = pair_spectrum(V, W)  # checks the pair
    if V.is_zero or W.is_zero:
        raise ValueError("principal bases are undefined for the zero subspace")
    U, Vh = s._frame(V, W)
    return PrincipalDecomposition(angles=s.angles, left_basis=V.basis @ Vh.conj().T, right_basis=W.basis @ U)


def intersect(V: Subspace, W: Subspace) -> Subspace:
    """V intersect W: the pair's ``shared`` principal directions of V (no
    frame is built when there are none) whose own residual from W, their
    sine, passes ``is_subspace_of``'s test, so the result lies in both.
    Principal directions are orthonormal: the kept ones are the basis."""
    s = pair_spectrum(V, W)
    shared = s.shared
    if not shared:
        return zero_subspace(V.ambient_dim, V.field)
    common = V.basis @ s._frame(V, W)[1].conj().T[:, :shared]
    keep = [_norm_within_compare_tol(r[:, None]) for r in _residual(common, W).T]
    return Subspace._trusted(V.ambient_dim, V.field, common[:, keep])


def principal_angles(V: Subspace, W: Subspace) -> np.ndarray:
    """Just the ascending principal angles (empty when either space is {0};
    read-only)."""
    return pair_spectrum(V, W).angles


def is_partially_orthogonal(V: Subspace, W: Subspace) -> bool:
    """True when V contains a nonzero vector orthogonal to all of W.

    Equivalent to dim V > dim W or a principal cosine at most COMPARE_TOL
    (a right angle): exactly when ``project_subspace(W, V)`` loses a
    dimension.  {0} is never partially orthogonal to anything.
    """
    _check_pair(V, W)
    return not V.is_zero and (V.dim > W.dim or float(pair_spectrum(V, W).cosines[-1]) <= COMPARE_TOL)


def is_principal_partition(V: Subspace, parts: Sequence[Subspace], W: Subspace) -> bool:
    """Whether a partition of V, a list of subspaces, is principal with
    respect to W.

    A partition assembled from coordinate subspaces of one principal basis
    is characterized by its projections onto W being pairwise orthogonal.
    Non-orthogonal partitions are never principal.
    """
    _check_pair(V, W)
    if W.is_zero:
        raise ValueError("principal partitions are undefined against the zero subspace")
    parts = list(parts)
    _check_partition(V, parts)
    if not _pairwise_orthogonal(parts):
        return False
    projected = [project_subspace(W, p) for p in parts]
    return _pairwise_orthogonal(projected)
