"""The production angle family, computed from principal angles.

The Grassmann angle of V with W is arccos of the product of principal
cosines when dim V <= dim W and pi/2 otherwise; the deliberate asymmetry
carries dimensional information and is what makes the triangle
inequality and the contraction/wedge norm formulas hold without side
conditions.  The complementary angle (against the orthogonal complement)
has the product of principal sines as its cosine.

Everything here is O(n^3) linear algebra; the exterior module provides
the independent exponential-cost oracle for the same quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    COMPARE_TOL,
    HALF_PI,
    _COMPLEX,
    Field,
    _det,
    _norm,
    _slogdet,
    _unit_scaled,
    angle_from_cosine,
    arccos_clamped,
    as_field_array,
    clamped_products,
    principal_phase,
    stack_columns,
)
from .principal import _fresh_spectrum, _probe, intersect, pair_spectrum
from .subspace import Subspace, _check_pair, _span, realify


@dataclass(frozen=True)
class VectorAngles:
    """The angles between two vectors.

    theta     Euclidean angle in [0, pi] (real part of the inner product)
    gamma     Hermitian angle in [0, pi/2] (modulus of the inner product)
    zeta_cos  cosine of the complex angle: <v, w> / (|v| |w|)
    phase     phase difference in (-pi, pi], the argument of zeta_cos, or
              None for orthogonal vectors (|zeta_cos| at most COMPARE_TOL)
    """

    theta: float
    gamma: float
    zeta_cos: complex
    phase: float | None


@dataclass(frozen=True)
class OrientedAngle:
    """Angle between equal-dimension oriented subspaces.

    cos_value = exp(i phase) * cos(magnitude) is the inner product of the
    unit orientation blades; phase is None when the subspaces are
    partially orthogonal (cos_value numerically zero).  In the real case
    the phase is 0 or pi.
    """

    magnitude: float
    phase: float | None
    cos_value: complex


@dataclass(frozen=True)
class AngleReport:
    """Directed angle, complementary angle, symmetrizations and the
    volume-projection factor for one ordered pair of subspaces."""

    theta: float
    theta_perp: float
    theta_min_sym: float
    theta_max_sym: float
    projection_factor: float


def vector_angles(v, w, field: Field) -> VectorAngles:
    """All vector angles at once, with the zero-vector conventions
    theta(0, w) = 0 and theta(v, 0) = pi/2."""
    v = as_field_array(v, field)
    w = as_field_array(w, field)
    if v.ndim != 1 or w.ndim != 1:
        raise ValueError(f"vectors must be one-dimensional, got shapes {v.shape} and {w.shape}")
    if v.shape != w.shape:
        raise ValueError(f"vector shape mismatch: {v.shape} vs {w.shape}")
    v, w = _unit_scaled(v), _unit_scaled(w)  # exact, so no norm overflows or underflows
    nv = float(_norm(v))
    nw = float(_norm(w))
    if nv == 0.0:
        return VectorAngles(theta=0.0, gamma=0.0, zeta_cos=1.0 + 0j if field is Field.COMPLEX else 1.0, phase=None)
    if nw == 0.0:
        return VectorAngles(theta=HALF_PI, gamma=HALF_PI, zeta_cos=0j if field is Field.COMPLEX else 0.0, phase=None)
    ip = np.vdot(v, w)
    zeta_cos = complex(ip) / (nv * nw) if field is Field.COMPLEX else float(ip) / (nv * nw)
    cos_theta = (zeta_cos.real if field is Field.COMPLEX else zeta_cos)
    theta = math.acos(min(1.0, max(-1.0, cos_theta)))
    gamma = arccos_clamped(abs(zeta_cos))
    phase = principal_phase(complex(zeta_cos)) if abs(zeta_cos) > COMPARE_TOL else None
    return VectorAngles(theta=theta, gamma=gamma, zeta_cos=zeta_cos, phase=phase)


def grassmann_angle(V: Subspace, W: Subspace) -> float:
    """Directed angle of V with W, in [0, pi/2].

    arccos of the product of principal cosines when dim V <= dim W;
    pi/2 when dim V > dim W (including W = {0} with V nonzero); 0 when
    V = {0}.
    """
    if V.dim > W.dim:  # the rule of PairSpectrum.theta, without an SVD
        _check_pair(V, W)
        return HALF_PI
    held = _probe(V, W)
    if held is None:
        return _fresh_spectrum(V, W).theta  # checks the pair
    spectrum, reverse, _ = held
    # A spectrum of (W, V) holds this angle as its theta_back.
    return spectrum.theta_back if reverse else spectrum.theta


def complementary_angle(V: Subspace, W: Subspace) -> float:
    """Angle of V with the orthogonal complement of W, in [0, pi/2].

    Computed as arccos of the product of principal sines of (V, W); this
    equals the directed angle against complement(W) and is symmetric in
    V and W.  Zero when either subspace is {0}.
    """
    held = _probe(V, W)
    # Symmetric, so a spectrum of either order holds it.
    return _fresh_spectrum(V, W).theta_perp if held is None else held[0].theta_perp


def angle_from_complement(V: Subspace, W: Subspace) -> float:
    """Directed angle of complement(V) with W, without forming the complement.

    With k = dim intersect(V, W), V + W has dimension dim V + dim W - k:
    pi/2 when that is less than the ambient dimension, else arccos of the
    product of the sines of the principal angles past the k shared ones.
    Symmetric under swapping V and W.
    """
    _check_pair(V, W)
    if V.is_zero or W.is_zero:
        raise ValueError("both subspaces must be nonzero")
    shared = intersect(V, W).dim
    if V.dim + W.dim - shared < V.ambient_dim:
        return HALF_PI
    return angle_from_cosine(clamped_products(pair_spectrum(V, W).sines[shared:]))


def min_symmetrized_angle(V: Subspace, W: Subspace) -> float:
    s = pair_spectrum(V, W)
    return min(s.theta, s.theta_back)


def projection_factor(V: Subspace, W: Subspace) -> float:
    """Factor by which top-dimensional volumes of V contract when
    orthogonally projected on W: cos(angle) over the reals, cos^2 over
    the complexes (each principal cosine contracts two real axes)."""
    return angle_report(V, W).projection_factor


def real_complex_relation(V: Subspace, W: Subspace) -> tuple[float, float]:
    """(cos of the complex angle, cos of the realified angle).

    The realified cosine is the square of the complex one; both values
    are returned so callers can check the relation at their tolerance.
    """
    if V.field is not Field.COMPLEX:
        raise ValueError("real_complex_relation expects COMPLEX subspaces")
    cos_complex = math.cos(grassmann_angle(V, W))
    cos_real = math.cos(grassmann_angle(realify(V), realify(W)))
    return cos_complex, cos_real


@dataclass(frozen=True)
class OrientedSubspace:
    """A subspace together with an orientation.

    The orienting unit blade is ``coefficient`` times the wedge of the
    basis columns in order; ``coefficient`` has unit modulus (a sign in
    the real case, a phase in the complex one).
    """

    space: Subspace
    coefficient: complex = 1.0

    def __post_init__(self) -> None:
        c = complex(self.coefficient)
        if not abs(abs(c) - 1.0) <= COMPARE_TOL:  # so a NaN part fails too
            raise ValueError("orientation coefficient must have unit modulus")
        if self.space.field is Field.REAL and abs(c.imag) > 1e-12:
            raise ValueError("a real subspace admits only +1/-1 orientation coefficients")
        object.__setattr__(self, "coefficient", c)


def oriented_from_spanning(vectors, field: Field, ambient_dim: int | None = None) -> OrientedSubspace:
    """Oriented subspace whose orientation is the wedge of the given
    ordered vectors M (which must be independent): the basis Q that
    ``from_spanning`` builds, with the phase of det(Q* M) (1 for no vectors)."""
    M = stack_columns(vectors, field, ambient_dim=ambient_dim)
    return _oriented(_span(M, field), M)


def _oriented(space: Subspace, M: np.ndarray) -> OrientedSubspace:
    """``space``, the span of the columns of M, oriented by their wedge in
    order: the phase of det(Q* M) on its basis Q."""
    if space.dim < M.shape[1]:
        raise ValueError("orientation requires linearly independent vectors")
    return OrientedSubspace(space, _slogdet(space.basis.conj().T @ M)[0])


def oriented_angle(V: OrientedSubspace, W: OrientedSubspace) -> OrientedAngle:
    """Oriented angle between equal-dimension oriented subspaces.

    cos_value is the inner product of the unit orientation blades, a
    determinant of the cross-Gram of the oriented bases; its modulus is
    the cosine of the (unoriented) directed angle and its argument the
    phase difference.
    """
    A, B = V.space, W.space
    _check_pair(A, B)
    if A.dim != B.dim:
        raise ValueError(f"oriented angles require equal dimensions, got {A.dim} and {B.dim}")
    gram = A.basis.conj().T @ B.basis
    det = _det(gram).item() if A.dim else 1.0
    cos_value = np.conj(V.coefficient) * W.coefficient * det
    if A.field is Field.REAL:
        cos_value = complex(cos_value).real
    magnitude = angle_from_cosine(abs(cos_value))
    phase = principal_phase(complex(cos_value)) if abs(cos_value) > COMPARE_TOL else None
    return OrientedAngle(magnitude=magnitude, phase=phase, cos_value=cos_value)


def angle_report(V: Subspace, W: Subspace) -> AngleReport:
    """The pair's report, filled in one step from its spectrum without
    running the constructor (equal, with an equal hash and repr, to the
    one the constructor would build)."""
    s = pair_spectrum(V, W)
    forward, backward = s.theta, s.theta_back
    c = math.cos(forward)
    report = object.__new__(AngleReport)
    report.__dict__.update(
        theta=forward,
        theta_perp=s.theta_perp,
        theta_min_sym=min(forward, backward),
        theta_max_sym=max(forward, backward),
        projection_factor=c * c if V.field is _COMPLEX else c,
    )
    return report
