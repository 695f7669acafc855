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
from spangle.subspace import from_spanning

from realify_reference import realify_vector

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


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("p, q", [(0, 0), (0, 2), (2, 0)])
def test_zero_subspace_sides_match_orthonormal_route(field, p, q, rng):
    """A side of {0} gives an empty Gram matrix, whose linear solve is
    empty too; both Gram routes still match the orthonormal-basis route."""
    V = haar_subspace(rng, 3, p, field)
    W = haar_subspace(rng, 3, q, field)
    vs, ws = list(V.basis.T), list(W.basis.T)
    assert angle_from_gram(vs, ws, field, ambient_dim=3) == grassmann_angle(V, W)
    assert complementary_from_gram(vs, ws, field, ambient_dim=3) == complementary_angle(V, W)


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
    @pytest.mark.parametrize("n", range(2, 9))
    def test_haar_sweep_matches_fast_cosines(self, field, n):
        """Five Haar pairs for every (p, q): both cosines agree with the
        fast route to 1e-12.  A bare det of P* P or I - P P* leaves
        roundoff of order eps in a determinant that is structurally 0,
        which its square root turns into cosines of order 1e-8."""
        rng = np.random.default_rng([0, n, field is Field.COMPLEX])
        for p in range(n + 1):
            for q in range(n + 1):
                for _ in range(5):
                    V = haar_subspace(rng, n, p, field)
                    W = haar_subspace(rng, n, q, field)
                    P = W.basis.conj().T @ V.basis
                    theta = angle_from_projection_matrix(P, ProjectionAngleMode.THETA)
                    perp = angle_from_projection_matrix(P, ProjectionAngleMode.PERP)
                    assert abs(math.cos(theta) - math.cos(grassmann_angle(V, W))) <= 1e-12
                    assert abs(math.cos(perp) - math.cos(complementary_angle(V, W))) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", list(ProjectionAngleMode))
    def test_non_finite_entry_rejected(self, bad, mode):
        """The floor would read a NaN eigenvalue as a zero one and answer
        pi/2; a non-finite matrix is rejected instead."""
        with pytest.raises(ValueError, match="finite"):
            angle_from_projection_matrix(np.array([[bad, 0.0], [0.0, 1.0]]), mode)

    def test_planes_in_r3_are_complementary_at_a_right_angle(self):
        """Two planes in R^3 share a line: one principal sine is 0, so
        their product is 0 and theta_perp is exactly pi/2."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            V = haar_subspace(rng, 3, 2, Field.REAL)
            W = haar_subspace(rng, 3, 2, Field.REAL)
            assert angle_from_projection_matrix(W.basis.T @ V.basis, ProjectionAngleMode.PERP) == HALF_PI

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


_GRAM_ROUTES = [angle_from_gram, angle_from_gram_equal_dim, complementary_from_gram]


@pytest.mark.parametrize("route", _GRAM_ROUTES)
@pytest.mark.parametrize(
    "basis_v, basis_w",
    [
        ([1.0, 2.0], [[1.0, 0.0]]),  # scalar entries, so no ambient size to read
        ([], [3.0]),
        ([[1.0, 0.0]], [1.0, 2.0]),
        ([[1.0, 0.0], 2.0], [[1.0, 0.0]]),
        ([[[1.0, 0.0]]], [[1.0, 0.0]]),  # a matrix entry
        ([[1.0, 0.0]], [[1.0, 0.0, 0.0]]),  # lengths disagree
        ([[1.0, "a"]], [[1.0, 0.0]]),
    ],
)
def test_gram_routes_reject_malformed_lists_with_value_error(route, basis_v, basis_w):
    """The ambient size is read by stack_columns, so a scalar entry is
    rejected with its ValueError, not an IndexError."""
    with pytest.raises(ValueError):
        route(basis_v, basis_w, Field.REAL)


@pytest.mark.parametrize("mode", list(ProjectionAngleMode))
@pytest.mark.parametrize("P", [3.0, [1.0, 2.0], [[[1.0]]], [[1.0, "a"]], [[1.0], [2.0, 3.0]]])
def test_projection_route_rejects_malformed_matrices_with_value_error(P, mode):
    with pytest.raises(ValueError):
        angle_from_projection_matrix(P, mode)
