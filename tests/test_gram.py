import math

import numpy as np
import pytest

from spangle import Field
from spangle.angles import complementary_angle, grassmann_angle
from spangle.exterior import oracle_complementary_angle, oracle_grassmann_angle
from spangle.gram import (
    ProjectionAngleMode,
    angle_from_gram,
    angle_from_gram_equal_dim,
    angle_from_projection_matrix,
    complementary_from_gram,
)
from spangle.sampling import gaussian_matrix, haar_subspace, random_unitary
from spangle.subspace import from_spanning, realify_vector

XI = np.exp(2j * np.pi / 3)
HALF_PI = math.pi / 2


def c3_pair():
    v1 = np.array([1, -XI, 0])
    v2 = np.array([0, XI, -(XI**2)])
    w1 = np.array([1, 0, 0], dtype=complex)
    w2 = np.array([0, XI, 0])
    return [v1, v2], [w1, w2]


def r4_line_plane():
    v = np.array([1.0, 0.0, 1.0, 0.0])
    w1 = np.array([0.0, 1.0, 1.0, 0.0])
    w2 = np.array([1.0, 2.0, 2.0, -1.0])
    return [v], [w1, w2]


class TestAngleFromGram:
    def test_c3_symmetric_pair(self):
        vs, ws = c3_pair()
        assert angle_from_gram(vs, ws, Field.COMPLEX) == pytest.approx(
            math.acos(math.sqrt(3) / 3), abs=1e-9
        )

    def test_r4_line_and_plane_both_orders(self):
        vs, ws = r4_line_plane()
        assert math.degrees(angle_from_gram(vs, ws, Field.REAL)) == pytest.approx(45.0, abs=1e-7)
        assert angle_from_gram(ws, vs, Field.REAL) == pytest.approx(HALF_PI)

    def test_identical_orthonormal_inputs(self):
        vs = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])]
        assert angle_from_gram(vs, vs, Field.REAL) == pytest.approx(0.0)

    def test_dependent_list_rejected(self):
        vs = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        with pytest.raises(ValueError, match="dependent"):
            angle_from_gram(vs, [np.array([0.0, 1.0])], Field.REAL)

    def test_empty_lists_follow_zero_conventions(self):
        w = [np.array([1.0, 0.0, 0.0])]
        assert angle_from_gram([], w, Field.REAL) == 0.0
        assert angle_from_gram(w, [], Field.REAL, ambient_dim=3) == pytest.approx(HALF_PI)
        assert angle_from_gram([], [], Field.REAL, ambient_dim=3) == 0.0

    def test_basis_invariance(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            V = haar_subspace(rng, 6, 2, field)
            W = haar_subspace(rng, 6, 3, field)
            base = grassmann_angle(V, W)
            for _ in range(5):
                mv = np.eye(2, dtype=field.dtype) + 0.5 * gaussian_matrix(rng, 2, 2, field)
                mw = np.eye(3, dtype=field.dtype) + 0.5 * gaussian_matrix(rng, 3, 3, field)
                got = angle_from_gram(
                    list((V.basis @ mv).T), list((W.basis @ mw).T), field
                )
                assert abs(math.cos(got) - math.cos(base)) <= 1e-8

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_three_route_agreement(self, field, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(0, n + 1))
            q = int(rng.integers(0, n + 1))
            V = haar_subspace(rng, n, p, field)
            W = haar_subspace(rng, n, q, field)
            vs = list(V.basis.T)
            ws = list(W.basis.T)
            gram = angle_from_gram(vs, ws, field, ambient_dim=n)
            fast = grassmann_angle(V, W)
            oracle = oracle_grassmann_angle(V, W)
            assert abs(math.cos(gram) - math.cos(fast)) <= 1e-9
            assert abs(math.cos(gram) - math.cos(oracle)) <= 1e-9

    def test_equal_dim_shortcut_agrees(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            for _ in range(10):
                n = int(rng.integers(2, 7))
                p = int(rng.integers(1, n + 1))
                V = haar_subspace(rng, n, p, field)
                W = haar_subspace(rng, n, p, field)
                mv = np.eye(p, dtype=field.dtype) + 0.4 * gaussian_matrix(rng, p, p, field)
                vs = list((V.basis @ mv).T)
                ws = list(W.basis.T)
                full = angle_from_gram(vs, ws, field)
                shortcut = angle_from_gram_equal_dim(vs, ws, field)
                assert abs(math.cos(full) - math.cos(shortcut)) <= 1e-9

    def test_equal_dim_shortcut_requires_equal_counts(self):
        vs, ws = r4_line_plane()
        with pytest.raises(ValueError, match="equal"):
            angle_from_gram_equal_dim(vs, ws, Field.REAL)


class TestComplementaryFromGram:
    def test_r4_pair_both_orders(self):
        vs, ws = r4_line_plane()
        assert math.degrees(complementary_from_gram(vs, ws, Field.REAL)) == pytest.approx(
            45.0, abs=1e-7
        )
        assert math.degrees(complementary_from_gram(ws, vs, Field.REAL)) == pytest.approx(
            45.0, abs=1e-7
        )

    def test_c3_intersecting_pair_is_right(self):
        vs, ws = c3_pair()
        assert complementary_from_gram(vs, ws, Field.COMPLEX) == pytest.approx(HALF_PI)

    def test_orthogonal_pair_is_zero(self):
        vs = [np.array([1.0, 0, 0, 0])]
        ws = [np.array([0, 1.0, 0, 0]), np.array([0, 0, 1.0, 0])]
        assert complementary_from_gram(vs, ws, Field.REAL) == pytest.approx(0.0)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_three_route_agreement(self, field, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(0, n + 1))
            q = int(rng.integers(0, n + 1))
            V = haar_subspace(rng, n, p, field)
            W = haar_subspace(rng, n, q, field)
            gram = complementary_from_gram(list(V.basis.T), list(W.basis.T), field, ambient_dim=n)
            fast = complementary_angle(V, W)
            oracle = oracle_complementary_angle(V, W)
            assert abs(math.cos(gram) - math.cos(fast)) <= 1e-9
            assert abs(math.cos(gram) - math.cos(oracle)) <= 1e-9


class TestRealifiedGramRoute:
    def test_c3_line_plane_realified(self):
        # complex angle 45 degrees; the realified Gram route gives 60
        v = np.array([1, 0, 1j])
        w1 = np.array([1, 0, 0], dtype=complex)
        w2 = np.array([1j, 1, 0])
        complex_angle = angle_from_gram([v], [w1, w2], Field.COMPLEX)
        assert math.degrees(complex_angle) == pytest.approx(45.0, abs=1e-7)
        vr = [realify_vector(v), realify_vector(1j * v)]
        wr = [realify_vector(w) for w in (w1, 1j * w1, w2, 1j * w2)]
        real_angle = angle_from_gram(vr, wr, Field.REAL)
        assert math.degrees(real_angle) == pytest.approx(60.0, abs=1e-7)
        assert math.cos(real_angle) == pytest.approx(math.cos(complex_angle) ** 2, abs=1e-9)


class TestProjectionMatrixAngles:
    def test_identity_projection(self):
        P = np.eye(2)
        assert angle_from_projection_matrix(P, ProjectionAngleMode.THETA) == 0.0
        assert angle_from_projection_matrix(P, ProjectionAngleMode.PERP) == pytest.approx(HALF_PI)

    def test_zero_projection(self):
        P = np.zeros((3, 2))
        assert angle_from_projection_matrix(P, ProjectionAngleMode.THETA) == pytest.approx(HALF_PI)
        assert angle_from_projection_matrix(P, ProjectionAngleMode.PERP) == pytest.approx(0.0)

    def test_principal_diagonal_form(self):
        c = math.cos(math.radians(45))
        P = np.diag([c, c])
        assert math.degrees(
            angle_from_projection_matrix(P, ProjectionAngleMode.THETA)
        ) == pytest.approx(60.0, abs=1e-9)
        assert math.degrees(
            angle_from_projection_matrix(P, ProjectionAngleMode.PERP)
        ) == pytest.approx(60.0, abs=1e-9)

    def test_matches_cross_gram_of_orthonormal_bases(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            V = haar_subspace(rng, 6, 2, field)
            W = haar_subspace(rng, 6, 3, field)
            P = W.basis.conj().T @ V.basis  # (q, p) projection matrix
            assert angle_from_projection_matrix(P, ProjectionAngleMode.THETA) == pytest.approx(
                grassmann_angle(V, W), abs=1e-9
            )
            assert angle_from_projection_matrix(P, ProjectionAngleMode.PERP) == pytest.approx(
                complementary_angle(V, W), abs=1e-9
            )

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_respanned_subspace_gives_exact_zero(self, field):
        """Two orthonormal bases of one subspace: P is unitary up to
        roundoff, and THETA is exactly 0, as grassmann_angle reports,
        not an arccos of the roundoff in det(P* P)."""
        for seed in range(200):
            rng = np.random.default_rng([seed, 23])
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, n + 1))
            V = haar_subspace(rng, n, p, field)
            W = from_spanning(list((V.basis @ random_unitary(rng, p, field)).T), field)
            P = W.basis.conj().T @ V.basis
            assert angle_from_projection_matrix(P, ProjectionAngleMode.THETA) == grassmann_angle(V, W) == 0.0
