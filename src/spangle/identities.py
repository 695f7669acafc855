"""Executable checks for the summation/product identities and bounds.

Each check computes both sides of one identity and reports them with the
residual; the randomized harnesses in the verification suites drive
these over seeded configurations.  Binomial targets are integer-exact.

The residual tolerances are fixed here, for these checks and for the
suites alike: RESIDUAL_TOL for identities, SLACK_TOL for the joint
bounds, ANGLE_TOL for raw angle sums near the ends of the arccos range
(where double precision cannot do better).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angles import (
    OrientedSubspace,
    complementary_angle,
    grassmann_angle,
    oriented_angle,
)
from .linalg import (
    COMPARE_TOL,
    HALF_PI,
    ZERO_ANGLE_COS_BAND,
    Field,
    _det,
    _norm,
    _norm_within_compare_tol,
    _svd,
    as_field_array,
    clamped_products,
)
from .principal import (
    intersect,
    is_partially_orthogonal,
    pair_spectrum,
    principal_decomposition,
)
from .subspace import (
    Subspace,
    _check_pair,
    _check_partition,
    _pairwise_orthogonal,
    _sum_all,
    is_subspace_of,
    project_subspace,
    sum_subspace,
)

RESIDUAL_TOL = 1e-9
SLACK_TOL = 1e-12
ANGLE_TOL = 1e-7


@dataclass(frozen=True)
class IdentityResult:
    """Both sides of one identity instance.  lhs/rhs may be complex for
    oriented identities; the residual is always |lhs - rhs|."""

    lhs: complex
    rhs: complex
    residual: float
    passed: bool


def _result(lhs, rhs) -> IdentityResult:
    residual = abs(lhs - rhs)
    return IdentityResult(lhs=lhs, rhs=rhs, residual=float(residual), passed=bool(residual <= RESIDUAL_TOL))


@dataclass(frozen=True)
class AngularRange:
    """Smallest and largest achievable angle between a direction of the
    first subspace and the second, plus their spread."""

    theta_min: float
    theta_max: float
    delta: float


def angular_range(V: Subspace, W: Subspace) -> AngularRange:
    """theta_min is the smallest principal angle; theta_max is the largest
    when dim V <= dim W and pi/2 otherwise."""
    _check_pair(V, W)
    if V.is_zero or W.is_zero:
        raise ValueError("the angular range requires nonzero subspaces")
    s = pair_spectrum(V, W)
    theta_min = float(s.angles[0])
    return AngularRange(theta_min=theta_min, theta_max=s.theta_max, delta=s.theta_max - theta_min)


def check_line_partition(L: Subspace, parts) -> IdentityResult:
    """Squared cosines of a line against an orthogonal partition of the
    ambient space sum to 1."""
    if L.dim != 1:
        raise ValueError(f"expected a line, got dimension {L.dim}")
    parts = list(parts)
    for p in parts:
        _check_pair(L, p)
    dims = sum(p.dim for p in parts)
    if dims != L.ambient_dim:
        raise ValueError(f"partition does not span the ambient space: dimensions sum to {dims}, need {L.ambient_dim}")
    if not _pairwise_orthogonal(parts):
        raise ValueError("partition of the ambient space is not orthogonal")
    lhs = sum(math.cos(grassmann_angle(L, Wi)) ** 2 for Wi in parts)
    return _result(lhs, 1.0)


def _unit_orthogonal_columns(basis: np.ndarray) -> np.ndarray:
    """The columns of an orthogonal basis (already through
    ``as_field_array``), checked and scaled to unit length."""
    if basis.ndim != 2:
        raise ValueError(f"basis must be a matrix, got shape {basis.shape}")
    norms = _norm(basis, axis=0)
    if np.any(norms == 0):
        raise ValueError("basis contains a zero vector")
    unit = basis / norms
    if not _norm_within_compare_tol(unit.conj().T @ unit - np.eye(basis.shape[1])):
        raise ValueError("basis is not orthogonal")
    return unit


@lru_cache(maxsize=64)
def _index_sets(n: int, q: int) -> np.ndarray:
    """The q-subsets of range(n) in lexicographic order, one per row
    (shape (C(n, q), q)), read-only: one table per (n, q), built on first
    use and shared (the suites, at n <= 8, use at most 45)."""
    sets = np.array(list(itertools.combinations(range(n), q)), dtype=np.intp).reshape(math.comb(n, q), q)
    sets.setflags(write=False)
    return sets


def _stacked_cosines(stack: np.ndarray) -> np.ndarray:
    """cos of the Grassmann angle of V with W for each cross-Gram W* V in
    a (B, q, p) stack with p <= q: the clamped product of its singular
    values, exactly 1 inside the zero-angle band, as in grassmann_angle."""
    products = clamped_products(_svd(stack, compute_uv=False))
    return np.where(products >= ZERO_ANGLE_COS_BAND, 1.0, products)


def _sum_in_order(terms: np.ndarray):
    """Left-to-right sum over the index sets, in lexicographic order.
    numpy's pairwise sum rounds differently, which moves a residual against
    a target of up to C(8, 4) = 70 by a few of its ulps."""
    return np.cumsum(terms)[-1] if terms.size else terms.dtype.type(0)


def check_coordinate_identity(V: Subspace, basis: np.ndarray, q: int) -> IdentityResult:
    """Sum of squared cosines against all coordinate q-subspaces of an
    orthogonal ambient basis, for an integer q in 0..n.

    For p = dim V <= q the sum over angle(V, W_I) equals C(n-p, n-q);
    for p > q the sum over angle(W_I, V) equals C(p, q).  One cross-Gram
    G = unit* V serves every index set I: W_I* V is rows I of G, and one
    stacked SVD gives all the cosines.
    """
    basis = as_field_array(basis, V.field)
    if basis.shape != (V.ambient_dim, V.ambient_dim):
        raise ValueError(f"basis must be square of size {V.ambient_dim}, got {basis.shape}")
    n, p = V.ambient_dim, V.dim
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or not 0 <= q <= n:
        raise ValueError(f"q must be an integer in 0..{n}, got {q!r}")
    unit = _unit_orthogonal_columns(basis)
    stack = (unit.conj().T @ V.basis)[_index_sets(n, q)]  # (C(n, q), q, p)
    if p <= q:
        cosines = _stacked_cosines(stack)
        target = float(math.comb(n - p, n - q))
    else:
        cosines = _stacked_cosines(stack.conj().swapaxes(-1, -2))  # V* W_I
        target = float(math.comb(p, q))
    return _result(float(_sum_in_order(cosines * cosines)), target)


@dataclass(frozen=True)
class OrientedSumCheck:
    """Oriented reconstruction identity plus the unoriented upper bound."""

    identity: IdentityResult
    bound_slack: float  # sum of |cos| products minus cos(angle); must be >= 0


def check_oriented_sum(V: OrientedSubspace, W: OrientedSubspace, basis: np.ndarray) -> OrientedSumCheck:
    """The oriented angle cosine equals the sum, over the coordinate
    p-subspaces of an orthogonal basis, of cos(V, X_I) * cos(X_I, W)
    (oriented cosines, order matters in the complex case).  Also reports
    the slack of the unoriented inequality with both cosines towards X_I.

    X_I is oriented by its columns in order, so cos(V, X_I) is conj(c_V)
    det(V* X_I) and cos(X_I, W) is c_W det(X_I* W): columns I of V* unit
    and rows I of unit* W, one stacked determinant each.
    """
    p = V.space.dim
    if p != W.space.dim:
        raise ValueError("oriented identity requires equal dimensions")
    lhs = oriented_angle(V, W).cos_value
    field = V.space.field
    unit = _unit_orthogonal_columns(as_field_array(basis, field))
    if unit.shape[0] != V.space.ambient_dim:
        raise ValueError(f"ambient dimension mismatch: {V.space.ambient_dim} vs {unit.shape[0]}")
    if unit.shape[1] != unit.shape[0]:
        raise ValueError(f"basis must be square of size {unit.shape[0]}, got {unit.shape}")
    rows = _index_sets(unit.shape[1], p)
    left = np.conj(V.coefficient) * _det((V.space.basis.conj().T @ unit)[:, rows].swapaxes(0, 1))
    right = W.coefficient * _det((unit.conj().T @ W.space.basis)[rows])
    if field is Field.REAL:
        left, right = left.real, right.real
    total = _sum_in_order(left * right)
    identity = _result(lhs, float(total) if field is Field.REAL else complex(total))
    slack = float(_sum_in_order(np.abs(left) * np.abs(right))) - abs(lhs)
    return OrientedSumCheck(identity=identity, bound_slack=float(slack))


def check_principal_coordinate(U: Subspace, V: Subspace, W: Subspace) -> IdentityResult:
    """For U inside V, the squared cosine towards W decomposes over the
    coordinate r-subspaces of a principal basis of V with respect to W as
    a weighted average: sum of cos^2(U, V_I) * cos^2(V_I, W).

    With L the principal basis, V_I is columns I of L: W* V_I is columns
    I of W* L and V_I* U is rows I of L* U, one stacked SVD each.
    """
    _check_pair(U, V)
    _check_pair(V, W)
    if V.is_zero or W.is_zero:
        raise ValueError("the decomposition requires nonzero V and W")
    if not is_subspace_of(U, V):
        raise ValueError("U must be contained in V")
    r = U.dim
    L = principal_decomposition(V, W).left_basis
    lhs = math.cos(grassmann_angle(U, W)) ** 2
    if r > W.dim:
        return _result(lhs, 0.0)  # every V_I is at a right angle to W
    rows = _index_sets(V.dim, r)
    w_cos = _stacked_cosines((W.basis.conj().T @ L)[:, rows].swapaxes(0, 1))  # (C, q, r)
    u_cos = _stacked_cosines((L.conj().T @ U.basis)[rows])  # (C, r, r)
    return _result(lhs, float(_sum_in_order((u_cos * u_cos) * (w_cos * w_cos))))


def _partition_sides(V: Subspace, parts: list[Subspace], W: Subspace) -> IdentityResult:
    """Both sides of the partition identity for disjoint parts, at least
    one, that sum to V: cos(V, W), and the product of the parts' cosines
    times, for each part but the last, the complementary cosine of its and
    its tail's projections on W over that of the part and its tail (the
    sum of the parts after it).  The right side is exactly 0 when a part's
    projection loses a dimension: V is then partially orthogonal to W, and
    both sides vanish."""
    tails = [_sum_all(parts[i + 1:]) for i in range(len(parts) - 1)]  # the last is the last part
    # The denominators first: with two parts, the caller's disjointness
    # test has just taken their spectrum, before other pairs evict it.
    denominators = [math.cos(complementary_angle(part, tail)) for part, tail in zip(parts, tails)]
    lhs = math.cos(grassmann_angle(V, W))
    rhs = math.prod(math.cos(grassmann_angle(part, W)) for part in parts)
    projected = [project_subspace(W, part) for part in parts]
    if any(P.dim < part.dim for P, part in zip(projected, parts)):
        return _result(lhs, 0.0)
    for i, denominator in enumerate(denominators):
        P_tail = projected[-1] if i == len(tails) - 1 else project_subspace(W, tails[i])
        rhs = rhs * math.cos(complementary_angle(projected[i], P_tail)) / denominator
    return _result(lhs, rhs)


def direct_sum_angle(V1: Subspace, V2: Subspace, W: Subspace) -> IdentityResult:
    """cos(V1 + V2, W) as the product of the individual cosines times the
    ratio of complementary cosines of the projections and the summands:
    ``partition_angle_product`` on the parts V1 and V2 of their sum."""
    _check_pair(V1, W)
    if not intersect(V1, V2).is_zero:
        raise ValueError("summands must be disjoint")
    return _partition_sides(sum_subspace(V1, V2), [V1, V2], W)


def partition_angle_product(V: Subspace, parts, W: Subspace) -> IdentityResult:
    """Partition form of the direct-sum identity: the cosine towards W is
    the product over parts, corrected by the telescoping ratio of
    complementary cosines of projected and original tails."""
    _check_pair(V, W)
    parts = list(parts)
    for i in range(1, len(parts)):
        if not intersect(_sum_all(parts[:i]), parts[i]).is_zero:
            raise ValueError("partition parts are not disjoint")
    _check_partition(V, parts)
    return _partition_sides(V, parts, W)


def characterize_principal_partition(V: Subspace, parts, W: Subspace) -> bool:
    """A partition of V (orthogonal, V not partially orthogonal to W) is
    principal with respect to W exactly when the cosine towards W is the
    plain product of the parts' cosines."""
    if is_partially_orthogonal(V, W):
        raise ValueError("V must not be partially orthogonal to W")
    parts = list(parts)
    _check_partition(V, parts)
    if not _pairwise_orthogonal(parts):
        raise ValueError("partition of V is not orthogonal")
    lhs = math.cos(grassmann_angle(V, W))
    return abs(lhs - math.prod(math.cos(grassmann_angle(part, W)) for part in parts)) <= RESIDUAL_TOL


@dataclass(frozen=True)
class FeasibilityReport:
    """Evaluation of the joint bounds on the angle and its complementary
    angle, with the equality-case attribution when one is within
    tolerance.

    cos_theta / cos_theta_perp / cos_delta carry the singular-value-level
    cosines (sharper than re-taking cos of the reported angles near the
    ends of the range)."""

    dim: int
    theta: float
    theta_perp: float
    delta: float | None
    cos_theta: float
    cos_theta_perp: float
    cos_delta: float | None
    cos_sq_sum: float
    angle_sum: float
    violations: tuple[str, ...]
    equality_cases: frozenset[str]
    equal_angle_curve_residual: float | None


def theta_pair_feasibility(V: Subspace, W: Subspace) -> FeasibilityReport:
    """Check every applicable bound tying the directed and complementary
    angles together, flagging violations beyond ``SLACK_TOL``.

    dim 1: the cosines sum to at least 1 (the two angles are exact
    complements by construction: the one principal sine is the
    complementary cosine).  dim 2: the cosine sum equals cos of the
    angular spread.
    dim > 2: the cosine sum is at most cos of the spread, with equality
    attributed to the boundary configurations A (all but one principal
    angle right), B (all but one zero) or C (full spread).
    """
    _check_pair(V, W)
    if V.is_zero:
        raise ValueError("feasibility bounds require a nonzero first subspace")
    s = pair_spectrum(V, W)
    p = V.dim
    violations: list[str] = []
    cases: set[str] = set()

    cos_sq_sum = math.cos(s.theta) ** 2 + math.cos(s.theta_perp) ** 2
    angle_sum = s.theta + s.theta_perp
    if cos_sq_sum > 1.0 + SLACK_TOL:
        violations.append("cos_sq_sum_above_1")
    if cos_sq_sum < -SLACK_TOL:
        violations.append("cos_sq_sum_below_0")
    # Angle sums inherit the arccos conditioning near degenerate inputs,
    # so they get a looser threshold than the well-conditioned cosine sums.
    if angle_sum < HALF_PI - ANGLE_TOL:
        violations.append("angle_sum_below_half_pi")
    if angle_sum > math.pi + ANGLE_TOL:
        violations.append("angle_sum_above_pi")

    delta = cos_delta = curve_residual = None
    if not W.is_zero:
        delta = s.theta_max - float(s.angles[0])
        cos_delta = s.cos_spread
        cos_sum = s.cos_theta + s.cos_theta_perp
        if p == 1:
            if cos_sum < 1.0 - SLACK_TOL:
                violations.append("dim1_cos_sum_below_1")
        elif p == 2:
            if abs(cos_sum - cos_delta) > SLACK_TOL:
                violations.append("dim2_cos_sum_not_equal_spread")
            if angle_sum < HALF_PI + delta - ANGLE_TOL:
                violations.append("dim2_angle_sum_below_bound")
        else:
            if cos_sum > cos_delta + SLACK_TOL:
                violations.append("cos_sum_above_spread")
            if angle_sum < HALF_PI + delta - ANGLE_TOL:
                violations.append("angle_sum_below_bound")
            if abs(cos_sum - cos_delta) <= COMPARE_TOL:
                near_right = s.cosines <= COMPARE_TOL
                if np.count_nonzero(near_right) >= near_right.size - 1:
                    cases.add("A")
                if s.shared >= p - 1:
                    cases.add("B")
                # Full spread: the widest angle is right (exactly pi/2 when p > q).
                if s.shared and (s.theta_max == HALF_PI or near_right[-1]):
                    cases.add("C")
        if delta <= COMPARE_TOL:
            # Exploratory: with all principal angles equal the pair sits on
            # the curve cos(theta)^(2/p) + cos(theta_perp)^(2/p) = 1.
            curve_residual = abs(
                s.cos_theta ** (2.0 / p) + s.cos_theta_perp ** (2.0 / p) - 1.0
            )

    return FeasibilityReport(
        dim=p,
        theta=s.theta,
        theta_perp=s.theta_perp,
        delta=delta,
        cos_theta=s.cos_theta,
        cos_theta_perp=s.cos_theta_perp,
        cos_delta=cos_delta,
        cos_sq_sum=cos_sq_sum,
        angle_sum=angle_sum,
        violations=tuple(violations),
        equality_cases=frozenset(cases),
        equal_angle_curve_residual=curve_residual,
    )


class ComplexifiabilityVerdict(enum.Enum):
    OBSTRUCTED = "obstructed"
    INCONCLUSIVE = "inconclusive"


def complexifiability_obstruction(V: Subspace, W: Subspace) -> ComplexifiabilityVerdict:
    """Necessary condition for two even-dimensional real subspaces to be
    made simultaneously complex by one compatible complex structure.

    dim V = 4: obstructed unless sqrt(cos) + sqrt(cos_perp) equals
    cos(spread).  dim V > 4: obstructed when the sum strictly exceeds it.
    The criterion is necessary, never sufficient, so the other outcome is
    INCONCLUSIVE.  Pairs realified from genuinely complex subspaces are
    complexifiable by construction and must come out INCONCLUSIVE.
    """
    _check_pair(V, W)
    if V.field is not Field.REAL:
        raise ValueError("the obstruction applies to REAL subspaces")
    if V.is_zero:
        raise ValueError("V must be nonzero")
    if V.dim % 2 or W.dim % 2 or V.ambient_dim % 2:
        raise ValueError("all dimensions must be even")
    if V.dim <= 2 or W.is_zero:
        return ComplexifiabilityVerdict.INCONCLUSIVE
    s = pair_spectrum(V, W)
    lhs = math.sqrt(s.cos_theta) + math.sqrt(s.cos_theta_perp)
    obstructed = abs(lhs - s.cos_spread) > RESIDUAL_TOL if V.dim == 4 else lhs > s.cos_spread + RESIDUAL_TOL
    return ComplexifiabilityVerdict.OBSTRUCTED if obstructed else ComplexifiabilityVerdict.INCONCLUSIVE
