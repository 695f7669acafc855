"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Angle values are asserted at 1e-7 rad and cosines at 1e-9 unless a
criterion states otherwise.
"""

import itertools
import math

import numpy as np

from spangle import Field
from spangle.angles import (
    angle_from_complement,
    complementary_angle,
    grassmann_angle,
    oriented_angle,
    oriented_from_spanning,
    real_complex_relation,
    vector_angles,
)
from spangle.exterior import contract, inner, scalar_multivector, wedge
from spangle.gram import angle_from_gram, complementary_from_gram
from spangle.identities import check_oriented_sum
from spangle.principal import principal_angles
from spangle.subspace import complement, from_spanning
from spangle.verify import (
    run_bounds,
    run_metric_axioms,
    run_oracle_equivalence,
    run_oriented,
    run_pythagorean,
)

from exterior_oracles import (
    basis_blade,
    contract_via_adjoint,
    contract_via_coordinate_expansion,
    coordinate_blade,
    epsilon_sign,
    multi_index_complement,
    wedge_vector,
)

ANGLE_TOL = 1e-7
COS_TOL = 1e-9
XI = np.exp(2j * np.pi / 3)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def deg(x):
    return math.radians(x)


class TestCriterion1GoldenExamples:
    def test_r4_tilted_plane(self):
        V = from_spanning(
            [np.array([1, 0, 1, 0]) / np.sqrt(2), np.array([0, 1, 0, 1]) / np.sqrt(2)],
            Field.REAL,
        )
        W = from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], Field.REAL)
        ok = (
            np.allclose(principal_angles(V, W), [deg(45), deg(45)], atol=ANGLE_TOL)
            and abs(grassmann_angle(V, W) - deg(60)) <= ANGLE_TOL
            and abs(complementary_angle(V, W) - deg(60)) <= ANGLE_TOL
        )
        report("1a (R4 pair)", ok)

    def test_c4_pair_and_realification(self):
        e1 = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
        e2 = np.array([0, 0, 1j, np.sqrt(3)], dtype=complex) / 2
        f1 = np.array([1 + 1j, 1 - 1j, 0, 0], dtype=complex) / 2
        f2 = np.array([0, 0, 1j, 0], dtype=complex)
        V = from_spanning([e1, e2], Field.COMPLEX)
        W = from_spanning([f1, f2], Field.COMPLEX)
        cos_c, cos_r = real_complex_relation(V, W)
        ok = (
            np.allclose(principal_angles(V, W), [deg(45), deg(60)], atol=ANGLE_TOL)
            and abs(grassmann_angle(V, W) - math.acos(math.sqrt(2) / 4)) <= ANGLE_TOL
            and abs(cos_r - 1.0 / 8.0) <= COS_TOL
            and abs(cos_r - cos_c**2) <= COS_TOL
        )
        report("1b (C4 pair + realified)", ok)

    def test_r5_example(self):
        V = from_spanning([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]], Field.REAL)
        W = from_spanning([[1, 0, 0, 0, 0], [0, np.sqrt(3) / 2, 0.5, 0, 0]], Field.REAL)
        U = from_spanning(
            [
                [1, 0, 0, 0, 0],
                [0, np.sqrt(3) / 2, 0.5, 0, 0],
                [0, 0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2)],
            ],
            Field.REAL,
        )
        comp_angles = principal_angles(V, complement(W))
        ok = (
            abs(grassmann_angle(V, W) - math.pi / 2) <= ANGLE_TOL
            and abs(grassmann_angle(W, V) - deg(30)) <= ANGLE_TOL
            and abs(complementary_angle(V, W) - math.pi / 2) <= ANGLE_TOL
            and np.allclose(comp_angles, [0.0, deg(60), deg(90)], atol=ANGLE_TOL)
            and abs(grassmann_angle(V, U) - math.acos(math.sqrt(6) / 4)) <= ANGLE_TOL
            and abs(complementary_angle(V, U) - math.pi / 2) <= ANGLE_TOL
            and abs(angle_from_complement(V, U) - math.acos(math.sqrt(2) / 4)) <= ANGLE_TOL
        )
        report("1c (R5 example)", ok)

    def test_gram_formula_examples(self):
        v1 = np.array([1, -XI, 0])
        v2 = np.array([0, XI, -(XI**2)])
        w1 = np.array([1, 0, 0], dtype=complex)
        w2 = np.array([0, XI, 0])
        c3 = angle_from_gram([v1, v2], [w1, w2], Field.COMPLEX)

        v = np.array([1.0, 0, 1, 0])
        u1 = np.array([0.0, 1, 1, 0])
        u2 = np.array([1.0, 2, 2, -1])
        r4_forward = angle_from_gram([v], [u1, u2], Field.REAL)
        r4_backward = angle_from_gram([u1, u2], [v], Field.REAL)
        r4_perp_f = complementary_from_gram([v], [u1, u2], Field.REAL)
        r4_perp_b = complementary_from_gram([u1, u2], [v], Field.REAL)

        line = np.array([1, 0, 1j])
        p1 = np.array([1, 0, 0], dtype=complex)
        p2 = np.array([1j, 1, 0])
        Vl = from_spanning([line], Field.COMPLEX)
        Wl = from_spanning([p1, p2], Field.COMPLEX)
        cos_c, cos_r = real_complex_relation(Vl, Wl)
        ok = (
            abs(c3 - math.acos(math.sqrt(3) / 3)) <= ANGLE_TOL
            and abs(r4_forward - deg(45)) <= ANGLE_TOL
            and abs(r4_backward - deg(90)) <= ANGLE_TOL
            and abs(r4_perp_f - deg(45)) <= ANGLE_TOL
            and abs(r4_perp_b - deg(45)) <= ANGLE_TOL
            and abs(math.acos(cos_c) - deg(45)) <= ANGLE_TOL
            and abs(math.acos(cos_r) - deg(60)) <= ANGLE_TOL
        )
        report("1d (Gram formulas)", ok)

    def test_oriented_examples(self):
        v1 = np.array([1, 1j, 0], dtype=complex)
        v2 = np.array([1j, -1, -1], dtype=complex)
        V = oriented_from_spanning([v1, v2], Field.COMPLEX)
        e = np.eye(3, dtype=complex)

        def coord(i, j):
            return oriented_from_spanning([e[:, i], e[:, j]], Field.COMPLEX)

        oa12 = oriented_angle(V, coord(0, 1))
        oa13 = oriented_angle(V, coord(0, 2))
        oa23 = oriented_angle(V, coord(1, 2))
        ok = (
            abs(oa12.cos_value) <= COS_TOL
            and abs(oa13.cos_value - (-math.sqrt(2) / 2)) <= COS_TOL
            and abs(oa13.magnitude - math.pi / 4) <= COS_TOL
            and abs(oa13.phase - math.pi) <= COS_TOL
            and abs(oa23.cos_value - 1j * math.sqrt(2) / 2) <= COS_TOL
            and abs(oa23.magnitude - math.pi / 4) <= COS_TOL
            and abs(oa23.phase - math.pi / 2) <= COS_TOL
        )
        report("1e (oriented angles)", ok)

    def test_oriented_sum_reconstruction(self):
        v1 = np.array([1, 1j, 0], dtype=complex)
        v2 = np.array([1j, -1, -1], dtype=complex)
        V = oriented_from_spanning([v1, v2], Field.COMPLEX)
        a = np.exp(-1j * 5 * np.pi / 6)
        w1 = np.array([a, 0, -np.sqrt(2) / 2], dtype=complex)
        w2 = np.array([0, np.sqrt(2) / 2, 0.5], dtype=complex)
        W = oriented_from_spanning([w1, w2], Field.COMPLEX)
        res = check_oriented_sum(V, W, np.eye(3, dtype=complex))
        expected = (math.sqrt(6) / 4) * np.exp(1j * math.pi / 3)
        ok = (
            abs(res.identity.lhs - expected) <= COS_TOL
            and abs(res.identity.rhs - expected) <= COS_TOL
            and res.identity.residual <= COS_TOL
        )
        report("1f (oriented sum value)", ok)

    def test_vector_angles_example(self):
        va = vector_angles(
            np.array([1, 1], dtype=complex),
            np.array([1j - 1, 0], dtype=complex),
            Field.COMPLEX,
        )
        ok = (
            abs(va.theta - deg(120)) <= ANGLE_TOL
            and abs(va.gamma - deg(45)) <= ANGLE_TOL
            and abs(va.phase - deg(135)) <= ANGLE_TOL
        )
        report("1g (vector angles)", ok)


class TestCriterion2OracleEquivalence:
    def test_three_route_agreement(self):
        rep = run_oracle_equivalence(seed=42, trials=1000, dim_max=8)
        by_name = {c.name: c for c in rep.checks}
        needed = [
            "theta_cosine_agreement",
            "theta_perp_cosine_agreement",
            "theta_angle_agreement",
            "theta_perp_angle_agreement",
            "theta_angle_agreement_generic",
            "theta_perp_angle_agreement_generic",
            "contraction_vs_projection_oracle",
        ]
        ok = rep.passed and all(by_name[n].trials >= 1000 for n in needed[:4])
        detail = ", ".join(f"{n}={by_name[n].max_residual:.2e}" for n in needed[:2])
        report("2 (oracle equivalence, 1000 pairs/field, dims incl. 0)", ok, detail)


class TestCriterion3IdentitySuites:
    def test_identity_residuals(self):
        pyth = run_pythagorean(seed=42, trials=500, dim_max=8)
        orie = run_oriented(seed=42, trials=500, dim_max=6)
        by_name = {c.name: c for c in pyth.checks + orie.checks}
        required = [
            "line_partition_sum",          # line vs orthogonal partition
            "coordinate_sum_small_dim",    # binomial target, first branch
            "coordinate_sum_large_dim",    # binomial target, second branch
            "oriented_coordinate_sum",     # oriented reconstruction
            "oriented_cosine_bound_slack",
            "principal_coordinate_sum",
            "direct_sum_product",
            "partition_product",
            "sines_vs_complement",
            "complementary_symmetry",
            "complement_pair_swap",
            "spherical_pythagorean",
        ]
        ok = pyth.passed and orie.passed
        worst = max(by_name[n].max_residual for n in required)
        ok = ok and all(by_name[n].trials >= 500 for n in required if "coordinate_sum_large" not in n)
        report("3 (identity suites, >=500 trials each)", ok, f"worst residual {worst:.2e}")


class TestCriterion4MetricAxioms:
    def test_metric_axioms(self):
        rep = run_metric_axioms(seed=42, trials=5000, dim_max=6)
        by_name = {c.name: c for c in rep.checks}
        triangle = by_name["triangle_inequality"]
        geo = by_name["geodesic_endpoint"]
        ok = (
            rep.passed
            and triangle.trials >= 10000
            and triangle.max_residual <= 1e-9
            and by_name["indiscernibles_zero"].passed
            and by_name["indiscernibles_nonzero"].passed
            and by_name["fubini_cross_dimension"].max_residual <= 1e-9
            and geo.trials >= 100
        )
        report(
            "4 (metric axioms, 10000 triples + geodesics)",
            ok,
            f"triangle worst violation {triangle.max_residual:.2e}",
        )


class TestCriterion5BoundSuites:
    def test_bounds(self):
        rep = run_bounds(seed=42, trials=2500, dim_max=8)
        by_name = {c.name: c for c in rep.checks}
        pair_count = by_name["cos_sq_sum_upper"].trials
        ok = (
            rep.passed
            and pair_count >= 5000
            and by_name["cos_sq_sum_upper"].max_residual <= 1e-12
            and by_name["cos_sum_spread_bound"].max_residual <= 1e-12
            and by_name["dim1_cos_sum_lower"].max_residual <= 1e-12
            and by_name["dim1_exact_complementarity"].max_residual <= 1e-12
            and by_name["dim2_cos_sum_equality"].max_residual <= 1e-12
            and by_name["realified_pair_inconclusive"].trials >= 100
            and by_name["realified_pair_inconclusive"].max_residual == 0.0
        )
        report("5 (joint bounds on 5000 pairs + realified INCONCLUSIVE)", ok)


class TestCriterion6ExhaustiveSmallCases:
    def test_exhaustive_contraction_and_decomposition(self):
        worst = 0.0
        for field in (Field.REAL, Field.COMPLEX):
            for n in range(1, 6):
                blades = [basis_blade(n, field, m) for m in range(1 << n)]
                # adjointness of the contraction against every triple
                for nu in blades:
                    contracted = [contract(nu, om) for om in blades]
                    for om_mask in range(1 << n):
                        for mu in blades:
                            lhs = inner(mu, contracted[om_mask])
                            rhs = inner(wedge(nu, mu), blades[om_mask])
                            worst = max(worst, abs(lhs - rhs))
                # coordinate decompositions of every coordinate blade
                vecs = [np.eye(n, dtype=field.dtype)[:, j] for j in range(n)]
                for q in range(1, n + 1):
                    omega = scalar_multivector(n, field)
                    for vct in vecs[:q]:
                        omega = wedge_vector(omega, vct)
                    for p in range(0, q + 1):
                        for combo in itertools.combinations(range(1, q + 1), p):
                            oi = coordinate_blade(vecs[:q], combo, field, ambient_dim=n)
                            oic = coordinate_blade(
                                vecs[:q],
                                multi_index_complement(combo, q),
                                field,
                                ambient_dim=n,
                            )
                            recon = wedge(oi, oic).scale(epsilon_sign(combo))
                            worst = max(
                                worst, float(np.max(np.abs(recon.coeffs - omega.coeffs)))
                            )
                            nu_c = basis_blade(n, field, sum(1 << (i - 1) for i in combo))
                            expansion = contract_via_coordinate_expansion(nu_c, vecs[:q])
                            direct = contract(nu_c, omega)
                            adjoint_route = contract_via_adjoint(nu_c, omega)
                            worst = max(
                                worst,
                                float(np.max(np.abs(expansion.coeffs - direct.coeffs))),
                                float(np.max(np.abs(adjoint_route.coeffs - direct.coeffs))),
                            )
        ok = worst == 0.0
        report("6 (exhaustive adjointness/decompositions, n<=5, no sampling)", ok, f"worst {worst:.1e}")
