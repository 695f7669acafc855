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
from .linalg import COMPARE_TOL, HALF_PI, Field, _svd, angle_from_cosine, clamped_products
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
    a candidate set of subspaces of W (four random ones plus its own
    projection, which is the true nearest point when defined), and takes
    the max.  One-sided check: never exceeds the closed form.

    Computed in the coordinates of V and W.  A k-dimensional sample is
    V A and a random candidate is W B, for orthonormal p x k and q x k
    coordinate frames A and B (Haar: orthonormalized Gaussians).  With
    M = W* V formed once, the candidate's cosine is |det(B* M A)|, and the
    projection's is the product of the singular values of M A, kept only
    when none is at most COMPARE_TOL (``project_subspace``'s right-angle
    rule).  Samples are batched by k: one stacked
    SVD orthonormalizes each group's frames, one stacked SVD and one
    stacked determinant give its cosines.  Random numbers are drawn sample
    by sample: k, then one normal draw holding A and, only when q >= k,
    the four B (each matrix's real part, then its imaginary part); none
    when k = 0.  A sample of dimension 0 is at distance 0; one above
    dim W has no candidate and is at pi/2.  Negative ``samples`` raise
    ValueError.
    """
    _check_pair(V, W)
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    p, q, field = V.dim, W.dim, V.field
    parts = 2 if field is Field.COMPLEX else 1
    groups: dict[int, list] = {}  # k -> each sample's draw
    for _ in range(samples):
        k = int(rng.integers(0, p + 1))
        if k:
            groups.setdefault(k, []).append(rng.standard_normal(parts * k * (p + 4 * q if q >= k else p)))
    if not groups:
        return 0.0
    if max(groups) > q:
        return HALF_PI
    M = W.basis.conj().T @ V.basis
    worst = 1.0  # the smallest best-candidate cosine over the samples
    for k, draws in groups.items():
        z = np.stack(draws)
        m, split = len(draws), parts * p * k
        inner = _field_matrices(z[:, :split].reshape(m, parts, p, k), field)
        outer = _field_matrices(z[:, split:].reshape(m, 4, parts, q, k), field)
        A = _svd(inner, full_matrices=False)[0]  # (m, p, k)
        B = _svd(outer, full_matrices=False)[0]  # (m, 4, q, k)
        MA = M @ A
        sigma = _svd(MA, compute_uv=False)
        full_rank = sigma[:, -1] > COMPARE_TOL
        projection = np.where(full_rank, clamped_products(sigma), 0.0)
        frames = np.abs(np.linalg.det(B.conj().swapaxes(-1, -2) @ MA[:, None]))
        best = np.maximum(projection, np.minimum(frames, 1.0).max(axis=1))
        worst = min(worst, float(best.min()))
    return angle_from_cosine(worst)


def _field_matrices(draws: np.ndarray, field: Field) -> np.ndarray:
    """The matrices of a (..., parts, rows, cols) stack of normal draws:
    real part plus i times imaginary part, as ``sampling.gaussian_matrix`` forms them."""
    if field is Field.COMPLEX:
        return draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    return draws[..., 0, :, :]


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
    if np.linalg.norm(v_dir) <= COMPARE_TOL:
        return None
    v = v_dir / np.linalg.norm(v_dir)
    w_dir = project_vector(W, v)
    if np.linalg.norm(w_dir) <= COMPARE_TOL:
        return None
    w = w_dir / np.linalg.norm(w_dir)

    witness_tol = math.sqrt(COMPARE_TOL)
    ip_uw = complex(np.vdot(u, w))
    if abs(ip_uw.imag) > witness_tol or ip_uw.real < -witness_tol:
        return None
    # v must be a nonnegative combination of u and w.
    plane = np.column_stack([u, w])
    coeffs, residual, *_ = np.linalg.lstsq(plane, v, rcond=None)
    recon = plane @ coeffs
    if np.linalg.norm(recon - v) > witness_tol:
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
        raise ValueError("entries must be finite (no NaN or infinity)")
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
    sine = float(np.linalg.norm(r))
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
