"""Metric structure induced by the directed subspace angle.

On subspaces of one fixed dimension the angle is the Fubini-Study
distance; across dimensions it is an asymmetric metric (triangle
inequality plus two-way identity of indiscernibles) and gives directed
Hausdorff distances between full sub-Grassmannians in closed form.
Triangle equality splits into three geometric cases, and codimension-1
pairs are joined by explicit geodesics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .angles import grassmann_angle, vector_angles
from .linalg import _NOT_FINITE, COMPARE_TOL, HALF_PI, Field, _norm, _qr, _svd, angle_from_cosine, clamped_products
from .principal import intersect, is_partially_orthogonal
from .subspace import (
    Subspace,
    _check_pair,
    _span,
    complement,
    is_subspace_of,
    project_subspace,
    project_vector,
    sum_subspace,
)


def fubini_study(V: Subspace, W: Subspace) -> float:
    """Fubini-Study distance on the full Grassmannian.

    Equal dimensions: the directed angle (symmetric there).  Different
    dimensions: pi/2, because distinct-grade components of the algebra
    are orthogonal.
    """
    if V.dim != W.dim:
        _check_pair(V, W)
        return HALF_PI
    return grassmann_angle(V, W)  # checks the pair


# The paper's closed form: the directed angle is an asymmetric metric on
# all subspaces, and it is the directed Hausdorff distance, in the
# Fubini-Study distance, from the full sub-Grassmannian of V (all its
# subspaces) to that of W; so the two-sided one is the max-symmetrized
# angle.  That is the Fubini-Study distance itself: across dimensions the
# larger directed angle is pi/2, and on equal dimensions the two directed
# angles are one value.
asymmetric_distance = directed_hausdorff = grassmann_angle
hausdorff = max_symmetrized_angle = fubini_study


def sampled_directed_hausdorff(V: Subspace, W: Subspace, rng: np.random.Generator, samples: int = 200) -> float:
    """Monte-Carlo estimate of the directed Hausdorff distance.

    Samples subspaces of V, measures each one's Fubini-Study distance to
    its projection onto W, which is its nearest subspace of W when
    defined, and takes the max.  One-sided check: never exceeds the
    closed form.

    Computed in the coordinates of V and W.  A k-dimensional sample is
    V A for an orthonormal p x k coordinate frame A (Haar: an
    orthonormalized Gaussian).  With M = W* V formed once, its
    projection's cosine is the product of the singular values of M A,
    kept only when none is at most COMPARE_TOL (``project_subspace``'s
    right-angle rule); no other subspace of W comes closer, since
    |det(B* M A)| is at most that product for every orthonormal q x k
    frame B.  Random numbers come from two generator calls: one draws
    every sample's k, then, unless no sample needs one, one normal draw
    holds a p x p Gaussian matrix per sample (for a complex field, all
    real parts, then all imaginary parts), whose first k columns are that
    sample's frame.  That stream is not the one the sampler read when it
    also scored four random frames B per sample, so a seeded call's value
    moved in its last digits with it.  Samples are batched by k: one
    stacked QR orthonormalizes each group's frames and one stacked
    values-only SVD gives its cosines.  A sample of dimension 0 is at
    distance 0; one above dim W has no candidate and is at pi/2.
    ``samples`` that is not an integer >= 0 (a bool included) raises
    ValueError.
    """
    _check_pair(V, W)
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 0:
        raise ValueError(f"samples must be an integer >= 0, got {samples!r}")
    p, q = V.dim, W.dim
    ks = rng.integers(0, p + 1, size=samples)
    top = int(ks.max(initial=0))
    if top == 0:
        return 0.0
    if top > q:
        return HALF_PI
    if V.field is Field.COMPLEX:
        re, im = rng.standard_normal((2, samples, p, p))
        Z = re + 1j * im
    else:
        Z = rng.standard_normal((samples, p, p))
    order = ks.argsort()
    Z, counts = Z[order], np.bincount(ks).tolist()
    M = W.basis.conj().T @ V.basis
    worst, stop = 1.0, counts[0]  # the smallest projection cosine; the k = 0 samples come first
    for k in range(1, top + 1):
        start, stop = stop, stop + counts[k]
        if start == stop:
            continue
        sigma = _svd(M @ _qr(Z[start:stop, :, :k], with_r=False), compute_uv=False)
        projection = np.where(sigma[:, -1] > COMPARE_TOL, clamped_products(sigma), 0.0)
        worst = min(worst, float(projection.min()))
    return angle_from_cosine(worst)


class TriangleTag(enum.Enum):
    STRICT = "strict"
    CASE_I = "case_i"
    CASE_II = "case_ii"
    CASE_III = "case_iii"


@dataclass(frozen=True, eq=False)
class TriangleWitness:
    """The geometric data realizing triangle equality in the generic case:
    unit vectors u, v, w with v a positive combination of u and w, and
    pairwise-orthogonal paddings A, B, C orthogonal to span(u, w)."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    padding_a: Subspace
    padding_b: Subspace
    padding_c: Subspace


@dataclass(frozen=True)
class TriangleCase:
    tag: TriangleTag
    witness: TriangleWitness | None = None


def classify_triangle_equality(U: Subspace, V: Subspace, W: Subspace) -> TriangleCase:
    """Classify how the triangle inequality closes for (U, V, W).

    Returns STRICT when angle(U, W) < angle(U, V) + angle(V, W) by more
    than the comparison tolerance; otherwise reports the first matching
    equality case: U inside V with the rest of V inside W (or U partially
    orthogonal to W); V inside W with the projection of U inside V; or a
    common-plane configuration with an explicit witness.
    """
    t_uv = grassmann_angle(U, V)
    t_vw = grassmann_angle(V, W)
    t_uw = grassmann_angle(U, W)
    if t_uv + t_vw - t_uw > COMPARE_TOL:
        return TriangleCase(TriangleTag.STRICT)

    u_pperp_w = is_partially_orthogonal(U, W)
    if is_subspace_of(U, V):
        rest = intersect(complement(U), V)
        if u_pperp_w or is_subspace_of(rest, W):
            return TriangleCase(TriangleTag.CASE_I)
    if is_subspace_of(V, W):
        if u_pperp_w or is_subspace_of(project_subspace(W, U), V):
            return TriangleCase(TriangleTag.CASE_II)

    witness = _triangle_witness(U, V, W, t_uv, t_vw, t_uw)
    if witness is not None:
        return TriangleCase(TriangleTag.CASE_III, witness)
    # Equality holds but no case could be validated numerically; report
    # the generic case without a witness rather than mislabel it strict.
    return TriangleCase(TriangleTag.CASE_III)


def _unit_complement_direction(V: Subspace, A: Subspace) -> np.ndarray:
    """The unit direction of V widest from A (for dim V = dim A + 1 with
    A inside V, the one orthogonal to A): V's basis times the last right
    singular vector of A* V.  It makes no rank decision.  Its own SVD, not
    a principal frame: the pair (V, A) never needs a spectrum, which the
    frame would cost (8.2 more values-only SVDs per verify-all op)."""
    _, _, Vh = _svd(A.basis.conj().T @ V.basis, full_matrices=True)
    return V.basis @ Vh[-1].conj()


def _triangle_witness(
    U: Subspace, V: Subspace, W: Subspace, t_uv: float, t_vw: float, t_uw: float
) -> TriangleWitness | None:
    """The CASE_III witness, checked against the pairs' directed angles."""
    A = intersect(intersect(U, V), W)
    if U.dim != A.dim + 1:
        return None
    u = _unit_complement_direction(U, A)
    v_dir = project_vector(V, u)
    v_norm = _norm(v_dir)
    if v_norm <= COMPARE_TOL:
        return None
    v = v_dir / v_norm
    w_dir = project_vector(W, v)
    w_norm = _norm(w_dir)
    if w_norm <= COMPARE_TOL:
        return None
    w = w_dir / w_norm

    witness_tol = math.sqrt(COMPARE_TOL)
    ip_uw = complex(np.vdot(u, w))
    if abs(ip_uw.imag) > witness_tol or ip_uw.real < -witness_tol:
        return None
    # v must be a nonnegative combination of u and w.
    plane = np.column_stack([u, w])
    coeffs, residual, *_ = np.linalg.lstsq(plane, v, rcond=None)
    recon = plane @ coeffs
    if _norm(recon - v) > witness_tol:
        return None
    a, b = complex(coeffs[0]), complex(coeffs[1])
    if abs(a.imag) > witness_tol or abs(b.imag) > witness_tol or a.real < -witness_tol or b.real < -witness_tol:
        return None

    # Paddings: A completes U; B completes V past span(v) + A; C completes W.
    span_va = _span(np.column_stack([v, A.basis]), V.field)
    B = intersect(complement(span_va), V)
    span_wab = sum_subspace(sum_subspace(_span(w[:, None], V.field), A), B)
    C = intersect(complement(span_wab), W)

    # Validate the advertised angle equalities on the witness vectors.
    g_uv = vector_angles(u, v, U.field).gamma
    g_vw = vector_angles(v, w, U.field).gamma
    g_uw = vector_angles(u, w, U.field).gamma
    if max(abs(g_uv - t_uv), abs(g_vw - t_vw), abs(g_uw - t_uw)) > witness_tol:
        return None
    return TriangleWitness(u=u, v=v, w=w, padding_a=A, padding_b=B, padding_c=C)


def geodesic_point(U: Subspace, W: Subspace, t: float, phase: float | None = None) -> Subspace:
    """Point at arc length t on the geodesic from U towards W.

    Defined for distinct nonzero equal-dimension subspaces whose
    intersection K has codimension 1 in each (otherwise the geodesic
    leaves the space of p-dimensional subspaces); K is the one decision
    made, within COMPARE_TOL.  The moving direction rotates from the unit
    vector u of U widest from K towards the one of W at unit angular
    speed, so V(0) = U and V(angle(U, W)) = W.  In the complex
    case an optional phase selects one of the circle of geodesics through
    U; phase 0 passes through W.  A NaN or infinite t or phase raises
    ValueError.
    """
    if not math.isfinite(t) or (phase is not None and not math.isfinite(phase)):
        raise ValueError(_NOT_FINITE)
    return _geodesic(U, W, phase)(t)


def _geodesic(U: Subspace, W: Subspace, phase: float | None):
    """The map t -> ``geodesic_point(U, W, t, phase)`` for a finite (or
    None) phase and finite t: K, u and the tangent are taken once, with
    every check, and each point then costs one span."""
    _check_pair(U, W)
    if U.is_zero or W.is_zero:
        raise ValueError("geodesics need nonzero subspaces")
    p = U.dim
    if p != W.dim:
        raise ValueError(f"geodesics require equal dimensions, got {U.dim} and {W.dim}")
    K = intersect(U, W)
    if K.dim != p - 1:
        raise ValueError(
            "the intersection must have codimension 1 in each subspace for the "
            f"geodesic to stay in the Grassmannian (got dim {K.dim}, need {p - 1})"
        )
    u = _unit_complement_direction(U, K)
    w = _unit_complement_direction(W, K)
    # w aligned so that <u, w> = c is real and nonnegative; the angle is atan2
    # of |r| and c, r = w - c u, which keeps what acos(c) rounds away near 1.
    ip = np.vdot(u, w)
    c = float(abs(ip))
    if c:
        w = w * (np.conj(ip) / c)
    r = w - c * u
    sine = float(_norm(r))
    if math.atan2(sine, c) <= COMPARE_TOL:
        raise ValueError("subspaces coincide; the geodesic is degenerate")
    tangent = r / sine
    if phase is not None:
        if U.field is Field.REAL:
            factor = math.cos(phase)
            if abs(abs(factor) - 1.0) > COMPARE_TOL:
                raise ValueError("a real geodesic admits only phase 0 or pi")
            tangent = tangent * (1.0 if factor > 0 else -1.0)
        else:
            tangent = tangent * np.exp(1j * phase)

    def point(t: float) -> Subspace:
        moving = u * math.cos(t) + tangent * math.sin(t)
        return _span(np.column_stack([K.basis, moving]), U.field)

    return point
