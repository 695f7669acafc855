"""Randomized verification suites driven by the CLI and the test suite.

Each suite runs a family of identity checks over seeded random
configurations and reports, per identity, the number of trials, the
worst residual and a pass flag.  Every check of every suite is declared
once, with its tolerance, in :data:`CHECKS`; reports list the checks in
that order, and a check that no trial reached passes vacuously with 0
trials at its declared tolerance.  The tolerances come from
:mod:`spangle.identities`: RESIDUAL_TOL (1e-9) for identities, SLACK_TOL
(1e-12) for the joint-bound and oriented-inequality slack, ANGLE_TOL
(1e-7) for comparisons of angles near the ends of the arccos range
(where double precision cannot do better), plus DEGENERATE_ANGLE_TOL
below and exact (0) pass/fail checks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from . import exterior
from ._suites import DIM_MAX_LIMIT, HAUSDORFF_DIM_CAP, ORACLE_DIM_CAP, ORIENTED_DIM_CAP, REALIFIED_DIM_CAP, SUITE_NAMES
from .angles import (
    complementary_angle,
    grassmann_angle,
    oriented_angle,
    oriented_from_spanning,
    real_complex_relation,
)
from .gram import (
    ProjectionAngleMode,
    angle_from_gram,
    angle_from_gram_equal_dim,
    angle_from_projection_matrix,
    complementary_from_gram,
)
from .identities import (
    ANGLE_TOL,
    RESIDUAL_TOL,
    SLACK_TOL,
    check_coordinate_identity,
    check_line_partition,
    check_oriented_sum,
    check_principal_coordinate,
    characterize_principal_partition,
    complexifiability_obstruction,
    ComplexifiabilityVerdict,
    direct_sum_angle,
    partition_angle_product,
    theta_pair_feasibility,
)
from .linalg import Field
from .metrics import _geodesic, fubini_study, sampled_directed_hausdorff
from .principal import (
    intersect,
    is_partially_orthogonal,
    is_principal_partition,
    principal_angles,
    principal_decomposition,
)
from .sampling import gaussian_matrix, haar_subspace, random_unitary, random_vector
from .subspace import (
    Subspace,
    _span,
    complement,
    from_spanning,
    project_subspace,
    realify,
    spans_equal,
    sum_subspace,
    zero_subspace,
)

# Cosine agreement within RESIDUAL_TOL only pins the angles down to
# sqrt(2 * RESIDUAL_TOL) at the ends of [0, pi/2], where arccos is
# infinitely steep.  Blanket angle comparisons over schedules that
# include degenerate pairs assert exactly that implied bound; the sharp
# checks are the cosine-level ones plus the generic-regime angle check.
DEGENERATE_ANGLE_TOL = math.sqrt(2 * RESIDUAL_TOL)

# Each suite's checks, in report order, with the tolerance each is held to.
CHECKS: dict[str, dict[str, float]] = {
    "pythagorean": {
        "line_partition_sum": RESIDUAL_TOL,
        "coordinate_sum_small_dim": RESIDUAL_TOL,
        "coordinate_sum_large_dim": RESIDUAL_TOL,
        "principal_coordinate_sum": RESIDUAL_TOL,
        "spherical_pythagorean": RESIDUAL_TOL,
        "sines_vs_complement": RESIDUAL_TOL,
        "complementary_symmetry": RESIDUAL_TOL,
        "complement_pair_swap": RESIDUAL_TOL,
        "direct_sum_product": RESIDUAL_TOL,
        "partition_product": RESIDUAL_TOL,
        "principal_partition_characterization": RESIDUAL_TOL,
    },
    "oriented": {
        "oriented_coordinate_sum": RESIDUAL_TOL,
        "oriented_cosine_bound_slack": SLACK_TOL,
        "oriented_modulus_consistency": RESIDUAL_TOL,
        "oriented_phase_factorization": RESIDUAL_TOL,
    },
    "metric-axioms": {
        "triangle_inequality": RESIDUAL_TOL,
        "reverse_bound": RESIDUAL_TOL,
        "indiscernibles_zero": RESIDUAL_TOL,
        "indiscernibles_nonzero": RESIDUAL_TOL,
        "fubini_cross_dimension": RESIDUAL_TOL,
        "equal_dim_reverse_bound": RESIDUAL_TOL,
        "geodesic_start": ANGLE_TOL,
        "geodesic_endpoint": ANGLE_TOL,
        "geodesic_midpoint_left": ANGLE_TOL,
        "geodesic_midpoint_right": ANGLE_TOL,
        "hausdorff_sampled_bound": ANGLE_TOL,
    },
    "oracle-equivalence": {
        "theta_cosine_agreement": RESIDUAL_TOL,
        "theta_angle_agreement": DEGENERATE_ANGLE_TOL,
        "theta_perp_cosine_agreement": RESIDUAL_TOL,
        "theta_perp_angle_agreement": DEGENERATE_ANGLE_TOL,
        "contraction_vs_projection_oracle": 1e-10,
        "theta_angle_agreement_generic": RESIDUAL_TOL,
        "theta_perp_angle_agreement_generic": RESIDUAL_TOL,
        "projection_matrix_theta_cosine": RESIDUAL_TOL,
        "projection_matrix_perp_cosine": RESIDUAL_TOL,
        "gram_equal_dim_cosine": RESIDUAL_TOL,
        "realified_theta_cosine": RESIDUAL_TOL,
        "realified_perp_cosine": RESIDUAL_TOL,
        "realified_principal_cosines": RESIDUAL_TOL,
    },
    "bounds": {
        "cos_sq_sum_upper": SLACK_TOL,
        "cos_sq_sum_lower": SLACK_TOL,
        "angle_sum_lower": ANGLE_TOL,
        "angle_sum_upper": ANGLE_TOL,
        "dim2_cos_sum_equality": SLACK_TOL,
        "feasibility_violations": 0.0,
        "wedge_norm_identity": RESIDUAL_TOL,
        "wedge_ratio_bound": SLACK_TOL,
        "cos_sum_spread_bound": SLACK_TOL,
        "dim1_cos_sum_lower": SLACK_TOL,
        "dim1_exact_complementarity": SLACK_TOL,
        "realified_pair_inconclusive": 0.0,
    },
}


@dataclass
class CheckReport:
    name: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        out = asdict(self)
        if not self.note:
            del out["note"]
        return out


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckReport] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


class _Collector:
    """Worst residual and trial count of each declared check of a suite."""

    def __init__(self, suite: str):
        self.suite = suite
        self._worst = dict.fromkeys(CHECKS[suite], 0.0)
        self._counts = dict.fromkeys(CHECKS[suite], 0)

    def add(self, name: str, residual: float) -> None:
        self._worst[name] = max(self._worst[name], float(residual))
        self._counts[name] += 1

    def finish(self) -> SuiteReport:
        return SuiteReport(
            suite=self.suite,
            checks=[
                CheckReport(
                    name=name,
                    trials=self._counts[name],
                    max_residual=self._worst[name],
                    tolerance=tolerance,
                    passed=self._worst[name] <= tolerance,
                    note="" if self._counts[name] else "0 trials: vacuous pass",
                )
                for name, tolerance in CHECKS[self.suite].items()
            ],
        )


def _draws(rng, trials: int, dim_cap: int, fields: tuple[Field, ...] = (Field.REAL, Field.COMPLEX)):
    """The draw order of every suite's trial loop: for each trial and then
    each field, yield ``(field, n)``, the ambient dimension n drawn from
    2..max(2, dim_cap) as that turn starts."""
    for _ in range(trials):
        for field in fields:
            yield field, int(rng.integers(2, max(2, dim_cap) + 1))


def _random_orthogonal_partition(rng, n: int, field: Field) -> list[Subspace]:
    """Split the ambient space into 2 to 4 parts along the columns of a random unitary."""
    T = random_unitary(rng, n, field)
    k = int(rng.integers(2, min(4, n) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
    bounds = [0] + cuts + [n]
    return [
        Subspace._trusted(n, field, T[:, bounds[i]:bounds[i + 1]])
        for i in range(len(bounds) - 1)
    ]


def _sub_subspace(rng, V: Subspace, k: int) -> Subspace:
    inner = haar_subspace(rng, V.dim, k, V.field)
    if k == 0:
        return zero_subspace(V.ambient_dim, V.field)
    return _span(V.basis @ inner.basis, V.field)


# ---------------------------------------------------------------------------
# pythagorean suite
# ---------------------------------------------------------------------------


def run_pythagorean(seed: int, trials: int, dim_max: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    col = _Collector("pythagorean")
    for field, n in _draws(rng, trials, min(dim_max, DIM_MAX_LIMIT)):
        # Squared cosines of a line against an orthogonal partition sum to 1.
        parts = _random_orthogonal_partition(rng, n, field)
        L = haar_subspace(rng, n, 1, field)
        col.add("line_partition_sum", check_line_partition(L, parts).residual)

        # Coordinate q-subspace sums hit exact binomial targets.
        basis = random_unitary(rng, n, field)
        p = int(rng.integers(1, n + 1))
        V = haar_subspace(rng, n, p, field)
        q_hi = int(rng.integers(p, n + 1))
        col.add(
            "coordinate_sum_small_dim",
            check_coordinate_identity(V, basis, q_hi).residual,
        )
        if p > 1:
            q_lo = int(rng.integers(1, p))
            col.add(
                "coordinate_sum_large_dim",
                check_coordinate_identity(V, basis, q_lo).residual,
            )

        # Principal coordinate decomposition of cos^2 for U inside V.  The
        # principal partition below reads the same spectrum and frame of
        # (V, W), so both are taken here, before other pairs evict them.
        W = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
        r = int(rng.integers(1, p + 1))
        U = _sub_subspace(rng, V, r)
        decomp = principal_decomposition(V, W) if p >= 2 and not is_partially_orthogonal(V, W) else None
        col.add("principal_coordinate_sum", check_principal_coordinate(U, V, W).residual)

        # Direct sums and partitions.
        if n >= 3:
            d1 = int(rng.integers(1, n - 1))
            d2 = int(rng.integers(1, n - d1))
            V1 = haar_subspace(rng, n, d1, field)
            V2 = haar_subspace(rng, n, d2, field)
            if intersect(V1, V2).is_zero:
                col.add("direct_sum_product", direct_sum_angle(V1, V2, W).residual)
                both = sum_subspace(V1, V2)
                col.add(
                    "partition_product",
                    partition_angle_product(both, [V1, V2], W).residual,
                )

        # Spherical Pythagorean relation through the projection.
        Wbig = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
        U2 = _sub_subspace(rng, Wbig, int(rng.integers(0, Wbig.dim + 1)))
        V2b = haar_subspace(rng, n, int(rng.integers(0, n + 1)), field)
        PV = project_subspace(Wbig, V2b)
        lhs = math.cos(grassmann_angle(V2b, U2))
        rhs = math.cos(grassmann_angle(V2b, PV)) * math.cos(grassmann_angle(PV, U2))
        col.add("spherical_pythagorean", abs(lhs - rhs))

        # Product of sines equals the angle with the complement, and the
        # symmetries of the complementary angle (cosine level, where the
        # identity is sharp).  The three angles of (A, B) and (B, A) read
        # one spectrum; on equal dimensions a fresh (B, A) would decompose
        # the other cross-Gram and could differ in the last bits.
        A = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
        B = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
        cos_perp_ab = math.cos(complementary_angle(A, B))
        cos_perp_ba = math.cos(complementary_angle(B, A))
        cos_ab = math.cos(grassmann_angle(A, B))
        B_perp = complement(B)
        col.add("sines_vs_complement", abs(cos_perp_ab - math.cos(grassmann_angle(A, B_perp))))
        col.add("complementary_symmetry", abs(cos_perp_ab - cos_perp_ba))
        col.add("complement_pair_swap", abs(cos_ab - math.cos(grassmann_angle(B_perp, complement(A)))))

        # Principal partitions: product rule characterization agrees
        # with the projected-orthogonality predicate.
        if decomp is not None:
            split = int(rng.integers(1, p))
            # Column slices of the (n >= 2)-row principal basis are not
            # contiguous, so each part gets its own copy.
            P1 = Subspace._trusted(n, field, decomp.left_basis[:, :split])
            P2 = Subspace._trusted(n, field, decomp.left_basis[:, split:])
            agrees = characterize_principal_partition(V, [P1, P2], W)
            predicate = is_principal_partition(V, [P1, P2], W)
            col.add("principal_partition_characterization", 0.0 if agrees == predicate else 1.0)

    return col.finish()


# ---------------------------------------------------------------------------
# oriented suite
# ---------------------------------------------------------------------------


def run_oriented(seed: int, trials: int, dim_max: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    col = _Collector("oriented")
    for field, n in _draws(rng, trials, min(dim_max, ORIENTED_DIM_CAP)):
        p = int(rng.integers(1, n + 1))
        V = oriented_from_spanning(
            [random_vector(rng, n, field) for _ in range(p)], field
        )
        W = oriented_from_spanning(
            [random_vector(rng, n, field) for _ in range(p)], field
        )
        basis = random_unitary(rng, n, field)
        check = check_oriented_sum(V, W, basis)
        col.add("oriented_coordinate_sum", check.identity.residual)
        col.add("oriented_cosine_bound_slack", max(0.0, -check.bound_slack))

        # The modulus of the oriented cosine is the unoriented cosine,
        # and its real part factors through the phase.
        osame = oriented_angle(V, W)
        col.add(
            "oriented_modulus_consistency",
            abs(abs(osame.cos_value) - math.cos(grassmann_angle(V.space, W.space))),
        )
        if osame.phase is not None:
            col.add(
                "oriented_phase_factorization",
                abs(
                    complex(osame.cos_value).real
                    - math.cos(osame.phase) * math.cos(osame.magnitude)
                ),
            )
    return col.finish()


# ---------------------------------------------------------------------------
# metric-axioms suite
# ---------------------------------------------------------------------------


def run_metric_axioms(seed: int, trials: int, dim_max: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    col = _Collector("metric-axioms")
    for field, n in _draws(rng, trials, min(dim_max, DIM_MAX_LIMIT)):
        dims = rng.integers(0, n + 1, size=3)
        U = haar_subspace(rng, n, int(dims[0]), field)
        V = haar_subspace(rng, n, int(dims[1]), field)
        W = haar_subspace(rng, n, int(dims[2]), field)
        t_uv = grassmann_angle(U, V)
        t_vw = grassmann_angle(V, W)
        t_uw = grassmann_angle(U, W)
        t_wv = grassmann_angle(W, V)
        t_vu = grassmann_angle(V, U)
        col.add("triangle_inequality", max(0.0, t_uw - t_uv - t_vw))
        col.add("reverse_bound", max(0.0, max(t_uv - t_wv, t_vw - t_vu) - t_uw))
        if dims[0] == dims[1] == dims[2]:
            col.add("equal_dim_reverse_bound", max(0.0, abs(t_uv - t_vw) - t_uw))

        # Identity of indiscernibles: same span iff both directed
        # distances vanish.  The re-spanning mix is kept well
        # conditioned; an ill-conditioned mix genuinely perturbs the
        # computed span beyond the zero band.
        if V.dim:
            mix = np.eye(V.dim, dtype=field.dtype) + 0.5 * gaussian_matrix(
                rng, V.dim, V.dim, field
            )
            same = (
                _span(V.basis @ mix, field)
                if np.linalg.cond(mix) < 1e3
                else V
            )
            col.add(
                "indiscernibles_zero",
                max(grassmann_angle(V, same), grassmann_angle(same, V)),
            )
        if not spans_equal(U, V) and not (U.is_zero and V.is_zero):
            col.add("indiscernibles_nonzero", 0.0 if max(t_uv, t_vu) > 1e-8 else 1.0)

        # Cross-dimension Fubini-Study distance is exactly pi/2.
        if U.dim != V.dim:
            col.add("fubini_cross_dimension", abs(fubini_study(U, V) - math.pi / 2))

    # Geodesics on constructed codimension-1 pairs.
    for field, n in _draws(rng, min(trials, 100), min(dim_max, DIM_MAX_LIMIT)):
        p = int(rng.integers(1, n))
        K = haar_subspace(rng, n, p - 1, field)
        u = random_vector(rng, n, field)
        w = random_vector(rng, n, field)
        U = _span(np.column_stack([K.basis, u]), field)
        W = _span(np.column_stack([K.basis, w]), field)
        if U.dim != p or W.dim != p or intersect(U, W).dim != p - 1:
            continue
        total = grassmann_angle(U, W)
        if total < 1e-3:
            continue
        point = _geodesic(U, W, None)
        start, end, mid = [point(t) for t in (0.0, total, total / 2)]
        col.add("geodesic_start", fubini_study(start, U))
        col.add("geodesic_endpoint", fubini_study(end, W))
        col.add("geodesic_midpoint_left", abs(grassmann_angle(U, mid) - total / 2))
        col.add("geodesic_midpoint_right", abs(grassmann_angle(mid, W) - total / 2))

    # Sampled directed Hausdorff never exceeds the closed form.
    for field, n in _draws(rng, min(trials, 20), min(dim_max, HAUSDORFF_DIM_CAP)):
        V = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
        W = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
        sampled = sampled_directed_hausdorff(V, W, rng, samples=40)
        col.add("hausdorff_sampled_bound", max(0.0, sampled - grassmann_angle(V, W)))

    return col.finish()


# ---------------------------------------------------------------------------
# oracle-equivalence suite
# ---------------------------------------------------------------------------


def _dimension_schedule(rng, trials: int, dim_max: int, field: Field):
    """``trials`` (n, p, q): every combination for small n first, listed
    only until there are ``trials``, then random draws."""
    out = []
    for n in range(2, max(2, min(dim_max, ORACLE_DIM_CAP)) + 1):
        for p in range(0, n + 1):
            for q in range(0, n + 1):
                if len(out) >= trials:
                    return out
                out.append((n, p, q))
    for _, n in _draws(rng, trials - len(out), min(dim_max, DIM_MAX_LIMIT), (field,)):
        out.append((n, int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))))
    return out


def run_oracle_equivalence(seed: int, trials: int, dim_max: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    col = _Collector("oracle-equivalence")
    # Field-major, unlike the trial loops: each field draws and runs its whole schedule in turn.
    for field in (Field.REAL, Field.COMPLEX):
        for n, p, q in _dimension_schedule(rng, trials, dim_max, field):
            V = haar_subspace(rng, n, p, field)
            W = haar_subspace(rng, n, q, field)
            basis_v = _skewed_list(rng, V, field)
            basis_w = _skewed_list(rng, W, field)
            theta_routes = {
                "fast": grassmann_angle(V, W),
                "projection_oracle": exterior.oracle_grassmann_angle(V, W),
                "contraction_oracle": exterior.oracle_contraction_angle(V, W),
                "gram": angle_from_gram(basis_v, basis_w, field, ambient_dim=n),
            }
            perp_routes = {
                "fast": complementary_angle(V, W),
                "wedge_oracle": exterior.oracle_complementary_angle(V, W),
                "gram": complementary_from_gram(basis_v, basis_w, field, ambient_dim=n),
            }
            _add_route_agreement(col, "theta", theta_routes)
            _add_route_agreement(col, "theta_perp", perp_routes)
            col.add(
                "contraction_vs_projection_oracle",
                abs(
                    math.cos(theta_routes["contraction_oracle"])
                    - math.cos(theta_routes["projection_oracle"])
                ),
            )
            # Routes checked against the fast angles at the cosine level,
            # after both route dicts so that complementary_angle above
            # reuses the spectrum grassmann_angle took.
            cos_theta = math.cos(theta_routes["fast"])
            cos_perp = math.cos(perp_routes["fast"])
            P = W.basis.conj().T @ V.basis
            col.add(
                "projection_matrix_theta_cosine",
                abs(math.cos(angle_from_projection_matrix(P, ProjectionAngleMode.THETA)) - cos_theta),
            )
            col.add(
                "projection_matrix_perp_cosine",
                abs(math.cos(angle_from_projection_matrix(P, ProjectionAngleMode.PERP)) - cos_perp),
            )
            if p == q:
                col.add(
                    "gram_equal_dim_cosine",
                    abs(math.cos(angle_from_gram_equal_dim(basis_v, basis_w, field, ambient_dim=n)) - cos_theta),
                )
            if field is Field.COMPLEX:
                _add_realification(col, V, W, cos_perp)
    return col.finish()


def _add_realification(col: _Collector, V: Subspace, W: Subspace, cos_perp: float) -> None:
    """The realification squares each cosine of a complex pair: the
    directed and complementary cosines, and each principal cosine, which
    the realified pair has twice."""
    cosines = np.cos(principal_angles(V, W))  # still the pair's memoized spectrum
    cos_complex, cos_real = real_complex_relation(V, W)
    col.add("realified_theta_cosine", abs(cos_real - cos_complex**2))
    Vr, Wr = realify(V), realify(W)
    col.add("realified_perp_cosine", abs(math.cos(complementary_angle(Vr, Wr)) - cos_perp**2))
    if V.ambient_dim <= REALIFIED_DIM_CAP:
        realified = np.cos(principal_angles(Vr, Wr))
        col.add("realified_principal_cosines", float(np.max(np.abs(realified - np.repeat(cosines, 2)), initial=0.0)))


def _add_route_agreement(col: _Collector, label: str, routes: dict[str, float]) -> None:
    """Cross-route agreement: cosines at the identity tolerance (sharp
    everywhere), raw angles at the arccos-conditioning tolerance, and raw
    angles at the identity tolerance away from the ends of [0, pi/2],
    where arccos in double precision resolves them."""
    values = list(routes.values())
    angle_spread = max(values) - min(values)
    cos_spread = max(math.cos(v) for v in values) - min(math.cos(v) for v in values)
    col.add(f"{label}_cosine_agreement", cos_spread)
    col.add(f"{label}_angle_agreement", angle_spread)
    if 1e-4 < min(values) and max(values) < math.pi / 2 - 1e-4:
        col.add(f"{label}_angle_agreement_generic", angle_spread)


def _skewed_list(rng, V: Subspace, field: Field) -> list[np.ndarray]:
    """Spanning list of V mixed by a well-conditioned random matrix."""
    if V.is_zero:
        return []
    mix = np.eye(V.dim, dtype=field.dtype) + 0.4 * gaussian_matrix(rng, V.dim, V.dim, field)
    if np.linalg.cond(mix) > 1e3:
        mix = np.eye(V.dim, dtype=field.dtype)
    skewed = V.basis @ mix
    return [skewed[:, j] for j in range(skewed.shape[1])]


# ---------------------------------------------------------------------------
# bounds suite
# ---------------------------------------------------------------------------


def run_bounds(seed: int, trials: int, dim_max: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    col = _Collector("bounds")
    for field, n in _draws(rng, trials, min(dim_max, DIM_MAX_LIMIT)):
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(0, n + 1))
        V = haar_subspace(rng, n, p, field)
        W = haar_subspace(rng, n, q, field)
        report = theta_pair_feasibility(V, W)
        col.add("cos_sq_sum_upper", max(0.0, report.cos_sq_sum - 1.0))
        col.add("cos_sq_sum_lower", max(0.0, -report.cos_sq_sum))
        # The angle-sum bounds are equivalent to the squared-cosine
        # bound (cos is decreasing on [0, pi]); the literal sums are
        # checked at the arccos-conditioning tolerance.
        col.add("angle_sum_lower", max(0.0, math.pi / 2 - report.angle_sum))
        col.add("angle_sum_upper", max(0.0, report.angle_sum - math.pi))
        if report.delta is not None:
            cos_sum = report.cos_theta + report.cos_theta_perp
            if p == 1:
                col.add("dim1_cos_sum_lower", max(0.0, 1.0 - cos_sum))
                # Exact complementarity, cross-checked against the
                # independent definitional route through the complement.
                col.add(
                    "dim1_exact_complementarity",
                    abs(
                        math.cos(report.theta_perp)
                        - math.cos(grassmann_angle(V, complement(W)))
                    ),
                )
            elif p == 2:
                col.add("dim2_cos_sum_equality", abs(cos_sum - report.cos_delta))
            else:
                col.add("cos_sum_spread_bound", max(0.0, cos_sum - report.cos_delta))
        col.add("feasibility_violations", float(len(report.violations)))

        # Norm identity tying the wedge of two blades to the
        # complementary/ordinary angle ratio (equal-dim disjoint pairs).
        r = int(rng.integers(1, n // 2 + 1))
        lists = [[random_vector(rng, n, field) for _ in range(r)] for _ in range(2)]
        V1 = from_spanning(lists[0], field, ambient_dim=n)
        V2 = from_spanning(lists[1], field, ambient_dim=n)
        if V1.dim == r and V2.dim == r and intersect(V1, V2).is_zero:
            theta = grassmann_angle(V1, V2)
            theta_perp = complementary_angle(V1, V2)
            col.add("wedge_norm_identity", _miao_ben_israel_residual(lists, n, field, theta, theta_perp))
            if math.sin(theta) > 1e-6:
                ratio = math.cos(theta_perp) ** 2 / math.sin(theta) ** 2
                col.add("wedge_ratio_bound", max(0.0, ratio - 1.0))

    # Realifications of genuinely complex pairs are never obstructed.
    for field, n in _draws(rng, min(trials, 100), min(dim_max, REALIFIED_DIM_CAP), (Field.COMPLEX,)):
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(1, n + 1))
        Vc = haar_subspace(rng, n, p, field)
        Wc = haar_subspace(rng, n, q, field)
        verdict = complexifiability_obstruction(realify(Vc), realify(Wc))
        col.add("realified_pair_inconclusive", 0.0 if verdict is ComplexifiabilityVerdict.INCONCLUSIVE else 1.0)

    return col.finish()


def _miao_ben_israel_residual(lists, n: int, field: Field, theta: float, theta_perp: float) -> float:
    """Relative residual of |nu1 ^ nu2|^2 = det Gram(nu1, nu2) cos^2(theta_perp)
    / sin^2(theta) for the blades nu1, nu2 of two spanning lists."""
    if math.sin(theta) < 1e-9:
        return 0.0
    nu1, nu2 = (exterior._wedge_all(vectors, n, field) for vectors in lists)
    lhs = exterior.wedge(nu1, nu2).norm ** 2
    g11 = exterior.inner(nu1, nu1)
    g12 = exterior.inner(nu1, nu2)
    g22 = exterior.inner(nu2, nu2)
    gram_det = float(np.real(g11 * g22 - g12 * np.conj(g12)))
    rhs = gram_det * math.cos(theta_perp) ** 2 / math.sin(theta) ** 2
    scale = max(1.0, abs(lhs))
    return abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "pythagorean": run_pythagorean,
    "oriented": run_oriented,
    "metric-axioms": run_metric_axioms,
    "oracle-equivalence": run_oracle_equivalence,
    "bounds": run_bounds,
}


def run_suites(suite: str, seed: int, trials: int, dim_max: int) -> list[SuiteReport]:
    """Run one named suite, or all of them."""
    if suite == "all":
        return [run(seed, trials, dim_max) for run in _RUNNERS.values()]
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    return [_RUNNERS[suite](seed, trials, dim_max)]
