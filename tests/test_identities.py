import math

import numpy as np
import pytest

from spangle import Field
from spangle.angles import (
    complementary_angle,
    grassmann_angle,
    oriented_from_spanning,
)
from spangle.identities import (
    ComplexifiabilityVerdict,
    angular_range,
    characterize_principal_partition,
    check_coordinate_identity,
    check_line_partition,
    check_oriented_sum,
    check_principal_coordinate,
    complexifiability_obstruction,
    direct_sum_angle,
    partition_angle_product,
    theta_pair_feasibility,
)
from spangle.principal import Partition, intersect, is_principal_partition, principal_decomposition
from spangle.sampling import haar_subspace, random_unitary, random_vector
from spangle.subspace import (
    Subspace,
    from_basis_matrix,
    from_spanning,
    full_space,
    realify,
    zero_subspace,
)

HALF_PI = math.pi / 2
XI = np.exp(2j * np.pi / 3)


class TestAngularRange:
    def test_identical_subspaces(self, rng):
        V = haar_subspace(rng, 5, 2, Field.REAL)
        r = angular_range(V, V)
        assert r.theta_min == pytest.approx(0.0, abs=1e-7)
        assert r.delta == pytest.approx(0.0, abs=1e-7)

    def test_known_real_pair(self):
        V = from_spanning(
            [np.array([1, 0, 1, 0]) / np.sqrt(2), np.array([0, 1, 0, 1]) / np.sqrt(2)],
            Field.REAL,
        )
        W = from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], Field.REAL)
        r = angular_range(V, W)
        assert math.degrees(r.theta_min) == pytest.approx(45.0, abs=1e-7)
        assert math.degrees(r.theta_max) == pytest.approx(45.0, abs=1e-7)

    def test_dimension_excess_forces_right_max(self):
        plane = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        line = from_spanning([[1, 0, 0]], Field.REAL)
        assert angular_range(plane, line).theta_max == HALF_PI

    def test_zero_rejected(self, rng):
        V = haar_subspace(rng, 3, 1, Field.REAL)
        with pytest.raises(ValueError):
            angular_range(V, zero_subspace(3, Field.REAL))


class TestLinePartition:
    def test_axis_aligned(self):
        L = from_spanning([[1, 0, 0]], Field.REAL)
        parts = [
            from_spanning([[1, 0, 0]], Field.REAL),
            from_spanning([[0, 1, 0], [0, 0, 1]], Field.REAL),
        ]
        res = check_line_partition(L, parts)
        assert res.passed and res.lhs == pytest.approx(1.0)

    def test_direction_cosines(self, rng):
        v = random_vector(rng, 3, Field.REAL)
        L = from_spanning([v], Field.REAL)
        axes = [from_spanning([np.eye(3)[:, i]], Field.REAL) for i in range(3)]
        res = check_line_partition(L, axes)
        assert res.residual <= 1e-10

    def test_random_complex_blocks(self, rng):
        T = random_unitary(rng, 6, Field.COMPLEX)
        parts = [
            Subspace(6, Field.COMPLEX, np.ascontiguousarray(T[:, :2])),
            Subspace(6, Field.COMPLEX, np.ascontiguousarray(T[:, 2:5])),
            Subspace(6, Field.COMPLEX, np.ascontiguousarray(T[:, 5:])),
        ]
        L = haar_subspace(rng, 6, 1, Field.COMPLEX)
        assert check_line_partition(L, parts).residual <= 1e-10

    def test_non_spanning_partition_rejected(self, rng):
        L = haar_subspace(rng, 4, 1, Field.REAL)
        parts = [from_spanning([[1, 0, 0, 0]], Field.REAL)]
        with pytest.raises(ValueError, match="span"):
            check_line_partition(L, parts)

    def test_non_line_rejected(self, rng):
        V = haar_subspace(rng, 3, 2, Field.REAL)
        with pytest.raises(ValueError, match="line"):
            check_line_partition(V, [from_basis_matrix(np.eye(3), Field.REAL)])


class TestCoordinateIdentity:
    def test_plane_against_coordinate_planes(self, rng):
        V = haar_subspace(rng, 3, 2, Field.REAL)
        res = check_coordinate_identity(V, np.eye(3), 2)
        assert res.rhs == 1.0 and res.residual <= 1e-10

    def test_line_against_coordinate_planes(self, rng):
        L = haar_subspace(rng, 3, 1, Field.REAL)
        res = check_coordinate_identity(L, np.eye(3), 2)
        assert res.rhs == 2.0 and res.residual <= 1e-10

    def test_symmetric_complex_pair_equal_cosines(self):
        v1 = np.array([1, -XI, 0])
        v2 = np.array([0, XI, -(XI**2)])
        V = from_spanning([v1, v2], Field.COMPLEX)
        basis = np.diag([1.0 + 0j, XI, XI**2])  # orthogonal, unnormalized phases
        for combo in ((0, 1), (0, 2), (1, 2)):
            cols = basis[:, list(combo)]
            W = from_basis_matrix(cols, Field.COMPLEX)
            assert math.cos(grassmann_angle(V, W)) == pytest.approx(
                math.sqrt(3) / 3, abs=1e-9
            )
        assert check_coordinate_identity(V, basis, 2).residual <= 1e-10

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_random_configurations_both_branches(self, field, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n + 1))
            V = haar_subspace(rng, n, p, field)
            basis = random_unitary(rng, n, field)
            q = int(rng.integers(p, n + 1))
            assert check_coordinate_identity(V, basis, q).residual <= 1e-9
            if p > 1:
                q2 = int(rng.integers(1, p))
                assert check_coordinate_identity(V, basis, q2).residual <= 1e-9

    def test_non_orthogonal_basis_rejected(self, rng):
        V = haar_subspace(rng, 3, 1, Field.REAL)
        skew = np.array([[1.0, 1.0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        with pytest.raises(ValueError, match="orthogonal"):
            check_coordinate_identity(V, skew, 2)


class TestOrientedSum:
    def test_coordinate_subspace_self(self):
        e = np.eye(3)
        X12 = oriented_from_spanning([e[:, 0], e[:, 1]], Field.REAL)
        res = check_oriented_sum(X12, X12, np.eye(3))
        assert res.identity.lhs == pytest.approx(1.0)
        assert res.identity.residual <= 1e-12

    def test_published_complex_example(self):
        v1 = np.array([1, 1j, 0], dtype=complex)
        v2 = np.array([1j, -1, -1], dtype=complex)
        V = oriented_from_spanning([v1, v2], Field.COMPLEX)
        a = np.exp(-1j * 5 * np.pi / 6)
        w1 = np.array([a, 0, -np.sqrt(2) / 2], dtype=complex)
        w2 = np.array([0, np.sqrt(2) / 2, 0.5], dtype=complex)
        W = oriented_from_spanning([w1, w2], Field.COMPLEX)
        res = check_oriented_sum(V, W, np.eye(3, dtype=complex))
        expected = (math.sqrt(6) / 4) * np.exp(1j * math.pi / 3)
        assert res.identity.lhs == pytest.approx(expected, abs=1e-9)
        assert res.identity.residual <= 1e-9
        assert res.bound_slack >= -1e-12

    def test_oriented_lines_direction_cosines(self, rng):
        u = random_vector(rng, 3, Field.REAL)
        w = random_vector(rng, 3, Field.REAL)
        A = oriented_from_spanning([u], Field.REAL)
        B = oriented_from_spanning([w], Field.REAL)
        res = check_oriented_sum(A, B, np.eye(3))
        manual = sum(
            (u[i] / np.linalg.norm(u)) * (w[i] / np.linalg.norm(w)) for i in range(3)
        )
        assert res.identity.lhs == pytest.approx(manual, abs=1e-12)
        assert res.identity.residual <= 1e-12

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_random_oriented_pairs(self, field, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, n + 1))
            A = oriented_from_spanning([random_vector(rng, n, field) for _ in range(p)], field)
            B = oriented_from_spanning([random_vector(rng, n, field) for _ in range(p)], field)
            res = check_oriented_sum(A, B, random_unitary(rng, n, field))
            assert res.identity.residual <= 1e-9
            assert res.bound_slack >= -1e-12


class TestPrincipalCoordinate:
    def test_principal_line_single_term(self, rng):
        V = haar_subspace(rng, 5, 3, Field.REAL)
        W = haar_subspace(rng, 5, 3, Field.REAL)
        d = principal_decomposition(V, W)
        U = from_basis_matrix(d.left_basis[:, :1], Field.REAL)
        res = check_principal_coordinate(U, V, W)
        assert res.residual <= 1e-9

    def test_planes_and_line_formula(self):
        # line in a plane: cos^2(beta) = cos^2(alpha) + sin^2(alpha) cos^2(theta)
        t = 0.7
        V = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        W = from_spanning([[1, 0, 0], [0, math.cos(t), math.sin(t)]], Field.REAL)
        alpha = 0.5
        U = from_spanning([[math.cos(alpha), math.sin(alpha), 0]], Field.REAL)
        res = check_principal_coordinate(U, V, W)
        assert res.residual <= 1e-9
        expected = math.cos(alpha) ** 2 + math.sin(alpha) ** 2 * math.cos(t) ** 2
        assert res.lhs == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_random_configurations(self, field, rng):
        for _ in range(10):
            n = 6
            p = int(rng.integers(1, n))
            V = haar_subspace(rng, n, p, field)
            W = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
            r = int(rng.integers(1, p + 1))
            inner_coords = haar_subspace(rng, p, r, field)
            U = from_basis_matrix(V.basis @ inner_coords.basis, field)
            assert check_principal_coordinate(U, V, W).residual <= 1e-9

    def test_u_outside_v_rejected(self, rng):
        V = haar_subspace(rng, 5, 2, Field.REAL)
        W = haar_subspace(rng, 5, 2, Field.REAL)
        U = haar_subspace(rng, 5, 1, Field.REAL)
        with pytest.raises(ValueError, match="contained"):
            check_principal_coordinate(U, V, W)


class TestDirectSum:
    def test_summands_inside_w(self, rng):
        W = haar_subspace(rng, 6, 4, Field.REAL)
        V1 = from_basis_matrix(W.basis[:, :2], Field.REAL)
        V2 = from_basis_matrix(W.basis[:, 2:3], Field.REAL)
        res = direct_sum_angle(V1, V2, W)
        assert res.lhs == pytest.approx(1.0) and res.residual <= 1e-12

    def test_partially_orthogonal_summand_vanishes_both_sides(self):
        V1 = from_spanning([[1, 0, 0, 0]], Field.REAL)
        V2 = from_spanning([[0, 1, 0, 0]], Field.REAL)
        W = from_spanning([[0, 0, 1, 0]], Field.REAL)
        res = direct_sum_angle(V1, V2, W)
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.rhs == 0.0
        assert res.passed

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_random_disjoint_pairs(self, field, rng):
        done = 0
        while done < 10:
            n = 7
            V1 = haar_subspace(rng, n, int(rng.integers(1, 3)), field)
            V2 = haar_subspace(rng, n, int(rng.integers(1, 3)), field)
            if intersect(V1, V2).dim:
                continue
            W = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
            assert direct_sum_angle(V1, V2, W).residual <= 1e-9
            done += 1

    def test_overlapping_summands_rejected(self, rng):
        V = haar_subspace(rng, 5, 2, Field.REAL)
        with pytest.raises(ValueError, match="disjoint"):
            direct_sum_angle(V, V, haar_subspace(rng, 5, 2, Field.REAL))

    def test_partition_form(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            n = 7
            V = haar_subspace(rng, n, 4, field)
            parts = [
                from_basis_matrix(V.basis[:, :2], field),
                from_basis_matrix(V.basis[:, 2:3], field),
                from_basis_matrix(V.basis[:, 3:], field),
            ]
            W = haar_subspace(rng, n, 5, field)
            assert partition_angle_product(V, parts, W).residual <= 1e-9


class TestPrincipalPartitionCharacterization:
    def test_principal_split_true(self, rng):
        V = haar_subspace(rng, 6, 3, Field.REAL)
        W = haar_subspace(rng, 6, 4, Field.REAL)
        d = principal_decomposition(V, W)
        parts = [
            Subspace(6, Field.REAL, d.left_basis[:, :1]),
            Subspace(6, Field.REAL, d.left_basis[:, 1:]),
        ]
        assert characterize_principal_partition(V, parts, W)

    def test_singleton_true(self, rng):
        V = haar_subspace(rng, 6, 3, Field.COMPLEX)
        W = haar_subspace(rng, 6, 4, Field.COMPLEX)
        assert characterize_principal_partition(V, [V], W)

    def test_generic_split_false_and_agrees_with_predicate(self, rng):
        for _ in range(6):
            V = haar_subspace(rng, 6, 2, Field.REAL)
            W = haar_subspace(rng, 6, 3, Field.REAL)
            parts = [
                Subspace(6, Field.REAL, V.basis[:, :1]),
                Subspace(6, Field.REAL, V.basis[:, 1:]),
            ]
            got = characterize_principal_partition(V, parts, W)
            assert got == is_principal_partition(V, Partition(parts), W)
            assert not got

    def test_partially_orthogonal_rejected(self):
        V = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        L = from_spanning([[1, 0, 0]], Field.REAL)
        with pytest.raises(ValueError):
            characterize_principal_partition(V, [V], L)

    @pytest.mark.parametrize("check", [characterize_principal_partition, partition_angle_product])
    def test_empty_partition_rejected(self, check):
        V = zero_subspace(3, Field.REAL)
        with pytest.raises(ValueError, match="at least one part"):
            check(V, [], full_space(3, Field.REAL))


class TestFeasibility:
    def test_dim1_exact_complement(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            V = haar_subspace(rng, n, 1, Field.REAL)
            W = haar_subspace(rng, n, int(rng.integers(1, n)), Field.REAL)
            rep = theta_pair_feasibility(V, W)
            assert not rep.violations
            assert rep.cos_theta_perp == pytest.approx(math.sin(rep.theta), abs=1e-9)

    def test_dim2_equality_branch(self, rng):
        for _ in range(5):
            V = haar_subspace(rng, 6, 2, Field.COMPLEX)
            W = haar_subspace(rng, 6, 3, Field.COMPLEX)
            rep = theta_pair_feasibility(V, W)
            assert not rep.violations
            assert rep.cos_theta + rep.cos_theta_perp == pytest.approx(
                rep.cos_delta, abs=1e-12
            )

    def test_planes_in_r3_have_right_complementary(self, rng):
        for t in (0.3, 0.9, 1.4):
            V = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
            W = from_spanning([[1, 0, 0], [0, math.cos(t), math.sin(t)]], Field.REAL)
            rep = theta_pair_feasibility(V, W)
            assert rep.theta == pytest.approx(t, abs=1e-9)
            assert rep.theta_perp == pytest.approx(HALF_PI)
            assert not rep.violations

    def test_zero_subspace_rejected_and_documented_exception(self, rng):
        Z = zero_subspace(4, Field.REAL)
        W = haar_subspace(rng, 4, 2, Field.REAL)
        with pytest.raises(ValueError):
            theta_pair_feasibility(Z, W)
        # documented exception: with V = {0} both angles are 0, summing to 2
        total = math.cos(grassmann_angle(Z, W)) ** 2 + math.cos(complementary_angle(Z, W)) ** 2
        assert total == pytest.approx(2.0)

    def test_equality_attribution_cases(self):
        # case B: all but one principal angle zero (U shares a plane with W)
        t = 0.8
        V = from_spanning([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], Field.REAL)
        W = from_spanning(
            [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, math.cos(t), math.sin(t), 0]],
            Field.REAL,
        )
        rep = theta_pair_feasibility(V, W)
        assert "B" in rep.equality_cases
        # case A: all but one principal angle right
        V2 = from_spanning([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], Field.REAL)
        W2 = from_spanning([[math.cos(t), 0, 0, math.sin(t), 0]], Field.REAL)
        rep2 = theta_pair_feasibility(V2, W2)
        assert "A" in rep2.equality_cases

    def test_equal_angle_curve_exploratory(self):
        # all principal angles equal: the pair sits on the power curve
        t = 0.6
        c, s = math.cos(t), math.sin(t)
        V = from_spanning(
            [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], Field.REAL
        )
        W = from_spanning(
            [
                [c, 0, 0, s, 0, 0],
                [0, c, 0, 0, s, 0],
                [0, 0, c, 0, 0, s],
            ],
            Field.REAL,
        )
        rep = theta_pair_feasibility(V, W)
        assert rep.delta == pytest.approx(0.0, abs=1e-7)
        assert rep.equal_angle_curve_residual is not None
        assert rep.equal_angle_curve_residual <= 1e-9

    def test_bounds_on_random_pairs(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            for _ in range(50):
                n = int(rng.integers(2, 8))
                V = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
                W = haar_subspace(rng, n, int(rng.integers(0, n + 1)), field)
                rep = theta_pair_feasibility(V, W)
                assert not rep.violations
                assert rep.cos_sq_sum <= 1.0 + 1e-12
                assert rep.angle_sum >= HALF_PI - 1e-7


class TestComplexifiability:
    def test_realified_pairs_inconclusive(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            V = haar_subspace(rng, n, int(rng.integers(1, n + 1)), Field.COMPLEX)
            W = haar_subspace(rng, n, int(rng.integers(1, n + 1)), Field.COMPLEX)
            verdict = complexifiability_obstruction(realify(V), realify(W))
            assert verdict is ComplexifiabilityVerdict.INCONCLUSIVE

    def test_uneven_angles_obstructed(self):
        # principal angles (30, 30, 60, 75): not pairwise equal
        angles = [math.radians(a) for a in (30, 30, 60, 75)]
        n = 8
        cols_v, cols_w = [], []
        for i, t in enumerate(angles):
            v = np.zeros(n)
            v[i] = 1.0
            cols_v.append(v)
            w = np.zeros(n)
            w[i] = math.cos(t)
            w[4 + i] = math.sin(t)
            cols_w.append(w)
        V = from_spanning(cols_v, Field.REAL)
        W = from_spanning(cols_w, Field.REAL)
        verdict = complexifiability_obstruction(V, W)
        assert verdict is ComplexifiabilityVerdict.OBSTRUCTED

    def test_dim2_inconclusive_by_precondition(self, rng):
        V = haar_subspace(rng, 4, 2, Field.REAL)
        W = haar_subspace(rng, 4, 2, Field.REAL)
        assert (
            complexifiability_obstruction(V, W)
            is ComplexifiabilityVerdict.INCONCLUSIVE
        )

    def test_odd_dimensions_rejected(self, rng):
        V = haar_subspace(rng, 6, 3, Field.REAL)
        W = haar_subspace(rng, 6, 2, Field.REAL)
        with pytest.raises(ValueError, match="even"):
            complexifiability_obstruction(V, W)

    def test_complex_field_rejected(self, rng):
        V = haar_subspace(rng, 4, 2, Field.COMPLEX)
        with pytest.raises(ValueError, match="REAL"):
            complexifiability_obstruction(V, V)
