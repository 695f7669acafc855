import math

import numpy as np
import pytest

from spangle import Field
from spangle.angles import (
    OrientedSubspace,
    angle_from_complement,
    angle_report,
    complementary_angle,
    grassmann_angle,
    min_symmetrized_angle,
    oriented_angle,
    oriented_from_spanning,
    projection_factor,
    real_complex_relation,
    vector_angles,
)
from spangle.exterior import blade_of, inner
from spangle.identities import ANGLE_TOL
from spangle.metrics import max_symmetrized_angle
from spangle.principal import intersect, is_partially_orthogonal
from spangle.sampling import haar_subspace, random_unitary, random_vector
from spangle.subspace import (
    complement,
    from_basis_matrix,
    from_spanning,
    project_subspace,
    sum_subspace,
    zero_subspace,
)

HALF_PI = math.pi / 2


def pair_22_real():
    V = from_spanning(
        [np.array([1, 0, 1, 0]) / np.sqrt(2), np.array([0, 1, 0, 1]) / np.sqrt(2)],
        Field.REAL,
    )
    W = from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], Field.REAL)
    return V, W


def pair_22_complex():
    e1 = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
    e2 = np.array([0, 0, 1j, np.sqrt(3)], dtype=complex) / 2
    f1 = np.array([1 + 1j, 1 - 1j, 0, 0], dtype=complex) / 2
    f2 = np.array([0, 0, 1j, 0], dtype=complex)
    return (
        from_spanning([e1, e2], Field.COMPLEX),
        from_spanning([f1, f2], Field.COMPLEX),
    )


def r5_example():
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
    return V, W, U


class TestVectorAngles:
    def test_complex_plane_example(self):
        va = vector_angles(
            np.array([1, 1], dtype=complex),
            np.array([1j - 1, 0], dtype=complex),
            Field.COMPLEX,
        )
        assert math.degrees(va.theta) == pytest.approx(120.0, abs=1e-9)
        assert math.degrees(va.gamma) == pytest.approx(45.0, abs=1e-9)
        assert math.degrees(va.phase) == pytest.approx(135.0, abs=1e-9)

    def test_identical_vectors(self):
        v = np.array([2.0, -1.0])
        va = vector_angles(v, v, Field.REAL)
        assert va.theta == pytest.approx(0.0, abs=1e-7)
        assert va.gamma == pytest.approx(0.0, abs=1e-7)
        assert va.phase == 0.0

    def test_zero_vector_conventions(self):
        z = np.zeros(3)
        w = np.array([1.0, 0, 0])
        assert vector_angles(z, w, Field.REAL).theta == 0.0
        assert vector_angles(z, z, Field.REAL).theta == 0.0
        assert vector_angles(w, z, Field.REAL).theta == HALF_PI
        assert vector_angles(w, z, Field.REAL).phase is None

    def test_phase_absent_for_orthogonal(self):
        va = vector_angles([1, 0], [0, 1], Field.REAL)
        assert va.phase is None

    def test_real_case_phase_is_zero_or_pi(self):
        assert vector_angles([1, 0], [-2, 0], Field.REAL).phase == math.pi
        assert vector_angles([1, 0], [3, 0], Field.REAL).phase == 0.0

    @pytest.mark.parametrize(
        "v, w, field, phase",
        [
            ([1e-6, 0], [1e-6, 0], Field.REAL, 0.0),
            ([-1e-6, 0], [1e-6, 0], Field.REAL, math.pi),
            ([1e-6j, 0], [1e-6, 0], Field.COMPLEX, -HALF_PI),
            ([1e6, 0], [1e-8, 1e6], Field.REAL, None),
            ([1e6, 0], [1e-8j, 1e6], Field.COMPLEX, None),
        ],
    )
    def test_phase_is_decided_on_the_cosine_not_the_scale(self, v, w, field, phase):
        """Tiny parallel vectors have a phase, and large vectors at a cosine
        of 1e-14 have none: the rule reads |zeta_cos|, as oriented_angle
        does, not the raw inner product."""
        assert vector_angles(v, w, field).phase == phase

    def test_spherical_relation_for_vectors(self, rng):
        # cos(theta) = cos(phase) * cos(gamma) whenever the phase exists
        for _ in range(25):
            v = random_vector(rng, 4, Field.COMPLEX)
            w = random_vector(rng, 4, Field.COMPLEX)
            va = vector_angles(v, w, Field.COMPLEX)
            if va.phase is not None:
                assert math.cos(va.theta) == pytest.approx(
                    math.cos(va.phase) * math.cos(va.gamma), abs=1e-9
                )


class TestGrassmannAngle:
    def test_real_pair_is_60(self):
        V, W = pair_22_real()
        assert math.degrees(grassmann_angle(V, W)) == pytest.approx(60.0, abs=1e-7)

    def test_complex_pair(self):
        V, W = pair_22_complex()
        assert grassmann_angle(V, W) == pytest.approx(math.acos(math.sqrt(2) / 4), abs=1e-9)

    def test_r5_direction_dependence(self):
        V, W, _ = r5_example()
        assert grassmann_angle(V, W) == pytest.approx(HALF_PI)
        assert math.degrees(grassmann_angle(W, V)) == pytest.approx(30.0, abs=1e-7)

    def test_zero_subspace_conventions(self, rng):
        Z = zero_subspace(4, Field.REAL)
        V = haar_subspace(rng, 4, 2, Field.REAL)
        assert grassmann_angle(Z, V) == 0.0
        assert grassmann_angle(Z, Z) == 0.0
        assert grassmann_angle(V, Z) == HALF_PI

    def test_zero_iff_contained(self, rng):
        W = haar_subspace(rng, 6, 4, Field.COMPLEX)
        inside = from_basis_matrix(W.basis[:, :2], Field.COMPLEX)
        assert grassmann_angle(inside, W) == 0.0
        outside = haar_subspace(rng, 6, 2, Field.COMPLEX)
        assert grassmann_angle(outside, W) > 1e-3

    def test_right_angle_iff_partially_orthogonal(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            V = haar_subspace(rng, n, int(rng.integers(1, n + 1)), Field.REAL)
            W = haar_subspace(rng, n, int(rng.integers(1, n + 1)), Field.REAL)
            hit = grassmann_angle(V, W) >= HALF_PI - 1e-9
            assert hit == is_partially_orthogonal(V, W)

    def test_symmetry_for_equal_dims(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            V = haar_subspace(rng, 7, 3, field)
            W = haar_subspace(rng, 7, 3, field)
            assert abs(grassmann_angle(V, W) - grassmann_angle(W, V)) <= 1e-10

    def test_monotonicity_in_both_arguments(self, rng):
        for _ in range(10):
            n = 7
            W = haar_subspace(rng, n, 5, Field.REAL)
            W_small = from_basis_matrix(W.basis[:, :3], Field.REAL)
            V = haar_subspace(rng, n, 2, Field.REAL)
            assert grassmann_angle(V, W) <= grassmann_angle(V, W_small) + 1e-9
            V_small = from_basis_matrix(V.basis[:, :1], Field.REAL)
            assert grassmann_angle(V, W) >= grassmann_angle(V_small, W) - 1e-9

    def test_spherical_factorization_through_projection(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            for _ in range(10):
                n = 7
                W = haar_subspace(rng, n, 5, field)
                U = from_basis_matrix(W.basis[:, : int(rng.integers(1, 5))], field)
                V = haar_subspace(rng, n, int(rng.integers(1, 5)), field)
                PV = project_subspace(W, V)
                lhs = math.cos(grassmann_angle(V, U))
                rhs = math.cos(grassmann_angle(V, PV)) * math.cos(grassmann_angle(PV, U))
                assert abs(lhs - rhs) <= 1e-9

    def test_unitary_invariance(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            V = haar_subspace(rng, 6, 2, field)
            W = haar_subspace(rng, 6, 4, field)
            T = random_unitary(rng, 6, field)
            TV = from_basis_matrix(T @ V.basis, field)
            TW = from_basis_matrix(T @ W.basis, field)
            assert abs(grassmann_angle(V, W) - grassmann_angle(TV, TW)) <= 1e-8

    def test_dimension_swap_identity(self, rng):
        # with dim V < dim W, the angle equals the angle of W with the
        # direct sum of V and the part of W orthogonal to V
        for _ in range(10):
            n = 7
            V = haar_subspace(rng, n, 2, Field.REAL)
            W = haar_subspace(rng, n, 4, Field.REAL)
            W_perp_part = intersect(W, complement(V))
            target = sum_subspace(V, W_perp_part)
            assert abs(
                grassmann_angle(V, W) - grassmann_angle(W, target)
            ) <= 1e-8


class TestComplementaryAngle:
    def test_line_complement_relation(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            L = haar_subspace(rng, n, 1, Field.COMPLEX)
            W = haar_subspace(rng, n, int(rng.integers(1, n)), Field.COMPLEX)
            assert grassmann_angle(L, W) + complementary_angle(L, W) == pytest.approx(
                HALF_PI, abs=1e-7
            )

    def test_real_pair_is_60(self):
        V, W = pair_22_real()
        assert math.degrees(complementary_angle(V, W)) == pytest.approx(60.0, abs=1e-7)

    def test_r5_intersecting_pair_is_right(self):
        V, _, U = r5_example()
        assert complementary_angle(V, U) == pytest.approx(HALF_PI)

    def test_equals_angle_with_complement(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            for _ in range(10):
                n = int(rng.integers(2, 8))
                V = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
                W = haar_subspace(rng, n, int(rng.integers(1, n)), field)
                assert abs(
                    math.cos(complementary_angle(V, W))
                    - math.cos(grassmann_angle(V, complement(W)))
                ) <= 1e-9

    def test_symmetry(self, rng):
        V = haar_subspace(rng, 6, 2, Field.COMPLEX)
        W = haar_subspace(rng, 6, 4, Field.COMPLEX)
        assert abs(
            math.cos(complementary_angle(V, W)) - math.cos(complementary_angle(W, V))
        ) <= 1e-9

    def test_complement_pair_swap(self, rng):
        V = haar_subspace(rng, 6, 2, Field.REAL)
        W = haar_subspace(rng, 6, 4, Field.REAL)
        assert abs(
            math.cos(grassmann_angle(V, W))
            - math.cos(grassmann_angle(complement(W), complement(V)))
        ) <= 1e-9

    def test_zero_subspace_convention(self, rng):
        Z = zero_subspace(4, Field.REAL)
        V = haar_subspace(rng, 4, 2, Field.REAL)
        assert complementary_angle(Z, V) == 0.0
        assert complementary_angle(V, Z) == 0.0


class TestAngleFromComplement:
    def test_r5_with_spanning_sum(self):
        V, _, U = r5_example()
        assert angle_from_complement(V, U) == pytest.approx(
            math.acos(math.sqrt(2) / 4), abs=1e-9
        )

    def test_r5_without_spanning_sum(self):
        V, W, _ = r5_example()
        assert angle_from_complement(W, V) == pytest.approx(HALF_PI)

    def test_complementary_pair_reduces_to_complementary_angle(self, rng):
        # V + W = ambient with V disjoint from W: matches the angle of V
        # with the complement of W
        for _ in range(10):
            n = 6
            V = haar_subspace(rng, n, 2, Field.REAL)
            W = haar_subspace(rng, n, 4, Field.REAL)
            if sum_subspace(V, W).dim < n or intersect(V, W).dim > 0:
                continue
            assert abs(
                math.cos(angle_from_complement(V, W))
                - math.cos(grassmann_angle(complement(V), W))
            ) <= 1e-9

    def test_zero_rejected(self, rng):
        V = haar_subspace(rng, 4, 2, Field.REAL)
        with pytest.raises(ValueError):
            angle_from_complement(V, zero_subspace(4, Field.REAL))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("t", [1e-3, 3e-5, 1e-6, 1e-9, 0.0])
    def test_small_angle_past_the_intersection(self, field, t):
        # V = span(e1, e2), W = span(e1, cos t e2 + sin t e3): they share
        # only e1 for t > 0, and complement(V) = span(e3) is at pi/2 - t
        # from W, which a cosine within COMPARE_TOL of 1 must not hide.
        phase = 1j if field is Field.COMPLEX else 1.0
        V = from_spanning([[1, 0, 0], [0, 1, 0]], field)
        W = from_spanning([np.array([1, 0, 0]), np.array([0, math.cos(t), phase * math.sin(t)])], field)
        for A, B in ((V, W), (W, V)):
            assert abs(angle_from_complement(A, B) - grassmann_angle(complement(A), B)) <= ANGLE_TOL


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("coefficient", [math.nan, complex(1.0, math.nan), complex(math.nan, 0.0), math.inf])
def test_oriented_subspace_rejects_a_non_finite_coefficient(field, coefficient):
    """A NaN fails every comparison, so it must not slip past the
    unit-modulus check into an angle of magnitude NaN."""
    with pytest.raises(ValueError, match="unit modulus"):
        OrientedSubspace(from_spanning([[1.0, 0.0]], field), coefficient)


class TestOrientedAngle:
    def orient_coordinate_pair(self, i, j):
        e = np.eye(3, dtype=complex)
        return oriented_from_spanning([e[:, i], e[:, j]], Field.COMPLEX)

    def setup_method(self, method):
        v1 = np.array([1, 1j, 0], dtype=complex)
        v2 = np.array([1j, -1, -1], dtype=complex)
        self.V = oriented_from_spanning([v1, v2], Field.COMPLEX)

    def test_against_x12_right_angle(self):
        oa = oriented_angle(self.V, self.orient_coordinate_pair(0, 1))
        assert abs(oa.cos_value) < 1e-12
        assert oa.magnitude == pytest.approx(HALF_PI)
        assert oa.phase is None

    def test_against_x13_three_quarters(self):
        oa = oriented_angle(self.V, self.orient_coordinate_pair(0, 2))
        assert oa.cos_value == pytest.approx(-math.sqrt(2) / 2, abs=1e-9)
        assert oa.magnitude == pytest.approx(math.pi / 4, abs=1e-9)
        assert oa.phase == pytest.approx(math.pi, abs=1e-9)

    def test_against_x23_imaginary_cosine(self):
        oa = oriented_angle(self.V, self.orient_coordinate_pair(1, 2))
        assert oa.cos_value == pytest.approx(1j * math.sqrt(2) / 2, abs=1e-9)
        assert oa.magnitude == pytest.approx(math.pi / 4, abs=1e-9)
        assert oa.phase == pytest.approx(HALF_PI, abs=1e-9)

    def test_conjugate_under_swap(self):
        X = self.orient_coordinate_pair(1, 2)
        assert oriented_angle(X, self.V).cos_value == pytest.approx(
            np.conj(oriented_angle(self.V, X).cos_value), abs=1e-12
        )

    def test_unequal_dims_rejected(self, rng):
        a = oriented_from_spanning([random_vector(rng, 3, Field.REAL)], Field.REAL)
        b = oriented_from_spanning(
            [random_vector(rng, 3, Field.REAL) for _ in range(2)], Field.REAL
        )
        with pytest.raises(ValueError, match="equal dimensions"):
            oriented_angle(a, b)

    def test_matches_blade_inner_product(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            vs = [random_vector(rng, 4, field) for _ in range(2)]
            ws = [random_vector(rng, 4, field) for _ in range(2)]
            A = oriented_from_spanning(vs, field)
            B = oriented_from_spanning(ws, field)
            oa = oriented_angle(A, B)
            nu = blade_of(A.space).scale(A.coefficient)
            om = blade_of(B.space).scale(B.coefficient)
            assert oa.cos_value == pytest.approx(inner(nu, om), abs=1e-10)

    def test_modulus_is_unoriented_cosine(self, rng):
        vs = [random_vector(rng, 5, Field.COMPLEX) for _ in range(3)]
        ws = [random_vector(rng, 5, Field.COMPLEX) for _ in range(3)]
        A = oriented_from_spanning(vs, Field.COMPLEX)
        B = oriented_from_spanning(ws, Field.COMPLEX)
        assert abs(oriented_angle(A, B).cos_value) == pytest.approx(
            math.cos(grassmann_angle(A.space, B.space)), abs=1e-10
        )

    def test_respanned_subspace_gives_exact_zero(self):
        """B = A U spans the same subspace as A, so the oriented magnitude
        is exactly 0, like the directed angle: the determinant lands a few
        ulps below 1 and goes through the same zero-angle band."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, n + 1))
            A = rng.standard_normal((n, p))
            U = np.linalg.qr(rng.standard_normal((p, p)))[0]
            V = oriented_from_spanning(list(A.T), Field.REAL)
            W = oriented_from_spanning(list((A @ U).T), Field.REAL)
            assert grassmann_angle(V.space, W.space) == 0.0
            assert oriented_angle(V, W).magnitude == 0.0

    def test_rank_deficient_list_rejected(self, kahan_vectors):
        """Independence is decided by the rank rule of from_spanning, not by
        |diag R| of an unpivoted QR, which stays far from zero here."""
        R = np.linalg.qr(np.array(kahan_vectors).T)[1]
        assert np.abs(np.diagonal(R)).min() > 1e3 * 1e-12 * 60 * np.abs(np.diagonal(R)).max()
        assert from_spanning(kahan_vectors, Field.REAL).dim == 59
        with pytest.raises(ValueError, match="independent"):
            oriented_from_spanning(kahan_vectors, Field.REAL)

    def test_more_vectors_than_dimensions_rejected(self, rng):
        with pytest.raises(ValueError, match="independent"):
            oriented_from_spanning([random_vector(rng, 2, Field.REAL) for _ in range(3)], Field.REAL)
        with pytest.raises(ValueError, match="independent"):
            oriented_from_spanning([[], []], Field.REAL)


class TestProjectionFactor:
    def test_real_pair_halves_areas(self):
        V, W = pair_22_real()
        assert projection_factor(V, W) == pytest.approx(0.5, abs=1e-9)

    def test_complex_pair_eighth(self):
        V, W = pair_22_complex()
        assert projection_factor(V, W) == pytest.approx(1.0 / 8.0, abs=1e-9)

    def test_contained_gives_one(self, rng):
        W = haar_subspace(rng, 5, 3, Field.REAL)
        V = from_basis_matrix(W.basis[:, :2], Field.REAL)
        assert projection_factor(V, W) == pytest.approx(1.0)


class TestRealComplexRelation:
    def test_complex_pair_realified_value(self):
        V, W = pair_22_complex()
        cos_c, cos_r = real_complex_relation(V, W)
        assert cos_r == pytest.approx(cos_c**2, abs=1e-9)
        assert math.degrees(math.acos(cos_r)) == pytest.approx(
            math.degrees(math.acos(1.0 / 8.0)), abs=1e-6
        )

    def test_complex_line_plane(self):
        v = np.array([1, 0, 1j])
        w1 = np.array([1, 0, 0], dtype=complex)
        w2 = np.array([1j, 1, 0])
        V = from_spanning([v], Field.COMPLEX)
        W = from_spanning([w1, w2], Field.COMPLEX)
        cos_c, cos_r = real_complex_relation(V, W)
        assert math.degrees(math.acos(cos_c)) == pytest.approx(45.0, abs=1e-7)
        assert math.degrees(math.acos(cos_r)) == pytest.approx(60.0, abs=1e-7)

    def test_contained_gives_zero_both(self, rng):
        W = haar_subspace(rng, 4, 3, Field.COMPLEX)
        V = from_basis_matrix(W.basis[:, :1], Field.COMPLEX)
        cos_c, cos_r = real_complex_relation(V, W)
        assert cos_c == pytest.approx(1.0) and cos_r == pytest.approx(1.0)

    def test_relation_on_random_pairs(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            V = haar_subspace(rng, n, int(rng.integers(0, n + 1)), Field.COMPLEX)
            W = haar_subspace(rng, n, int(rng.integers(0, n + 1)), Field.COMPLEX)
            cos_c, cos_r = real_complex_relation(V, W)
            assert cos_r == pytest.approx(cos_c**2, abs=1e-9)

    def test_real_input_rejected(self, rng):
        V = haar_subspace(rng, 4, 2, Field.REAL)
        with pytest.raises(ValueError):
            real_complex_relation(V, V)


class TestAngleReport:
    def test_symmetrizations_consistent(self, rng):
        V = haar_subspace(rng, 6, 2, Field.REAL)
        W = haar_subspace(rng, 6, 4, Field.REAL)
        rep = angle_report(V, W)
        assert rep.theta_min_sym == min_symmetrized_angle(V, W)
        assert rep.theta_max_sym == max_symmetrized_angle(V, W)
        assert rep.theta_min_sym <= rep.theta <= rep.theta_max_sym
        assert rep.projection_factor == pytest.approx(math.cos(rep.theta))
