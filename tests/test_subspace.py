import math

import numpy as np
import pytest

from spangle import Field, Subspace
from spangle.angles import grassmann_angle
from spangle.exterior import blade_of
from spangle.metrics import classify_triangle_equality
from spangle.principal import intersect, pair_spectrum, principal_angles, principal_decomposition
from spangle.linalg import COMPARE_TOL
from spangle.sampling import gaussian_matrix, haar_subspace, random_unitary, random_vector
from spangle.subspace import (
    _pairwise_orthogonal,
    complement,
    from_basis_matrix,
    from_spanning,
    full_space,
    is_subspace_of,
    project_subspace,
    project_vector,
    realify,
    spans_equal,
    sum_subspace,
    zero_subspace,
)

from realify_reference import realify_by_columns, realify_vector

XI = np.exp(2j * np.pi / 3)


def realification_j(n: int) -> np.ndarray:
    """The matrix of multiplication by i on the realified space R^(2n)."""
    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        J[2 * k, 2 * k + 1] = -1.0
        J[2 * k + 1, 2 * k] = 1.0
    return J


def pair_22_real():
    V = from_spanning(
        [np.array([1, 0, 1, 0]) / np.sqrt(2), np.array([0, 1, 0, 1]) / np.sqrt(2)],
        Field.REAL,
    )
    W = from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], Field.REAL)
    return V, W


class TestConstruction:
    def test_empty_spanning_list(self):
        V = from_spanning([], Field.REAL, ambient_dim=4)
        assert V.dim == 0 and V.ambient_dim == 4

    def test_known_plane(self):
        V, _ = pair_22_real()
        assert V.dim == 2
        np.testing.assert_allclose(V.basis.T @ V.basis, np.eye(2), atol=1e-12)

    def test_complex_pair_dim(self):
        V = from_spanning(
            [np.array([1, -XI, 0]), np.array([0, XI, -XI**2])], Field.COMPLEX
        )
        assert V.dim == 2

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(2, Field.REAL, np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_orthonormality_is_judged_on_the_2_norm(self, field):
        """Three columns with pairwise cosine c: B*B - I has largest entry c
        but 2-norm 2c, so c = 8e-9 fails the 1e-8 check and 4e-9 passes."""

        def columns(c):
            gram = (1 - c) * np.eye(3) + c * np.ones((3, 3))
            return np.vstack([np.linalg.cholesky(gram).T, np.zeros((1, 3))]).astype(field.dtype)

        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(4, field, columns(8e-9))
        assert Subspace(4, field, columns(4e-9)).dim == 3

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_near_orthonormal_basis_is_stored_orthonormal(self, field, rng):
        """A Haar basis mixed within its span so that its Gram is off by
        about 5e-9 passes the check; the stored basis is its nearest
        orthonormal one, so it is at angle exactly 0 to the same span."""
        n, p = 6, 3
        Q = haar_subspace(rng, n, p, field).basis
        G = gaussian_matrix(rng, p, p, field)
        H = G + G.conj().T
        B = Q @ (np.eye(p) + 2.5e-9 * H / np.linalg.norm(H, 2))
        assert np.linalg.norm(B.conj().T @ B - np.eye(p), 2) == pytest.approx(5e-9, rel=0.01)
        V, W = Subspace(n, field, B), from_basis_matrix(B, field)
        assert np.linalg.norm(V.basis.conj().T @ V.basis - np.eye(p), 2) < 1e-14
        assert grassmann_angle(V, W) == grassmann_angle(W, V) == 0.0

    def test_basis_is_read_only(self):
        V = full_space(3, Field.REAL)
        with pytest.raises(ValueError):
            V.basis[0, 0] = 5.0


class TestProjectVector:
    def test_vector_already_inside(self, rng):
        W = haar_subspace(rng, 5, 3, Field.COMPLEX)
        v = W.basis @ random_vector(rng, 3, Field.COMPLEX)
        np.testing.assert_allclose(project_vector(W, v), v, atol=1e-12)

    def test_orthogonal_vector_maps_to_zero(self):
        W = from_spanning([[1, 0, 0]], Field.REAL)
        np.testing.assert_allclose(project_vector(W, [0, 2, 1]), np.zeros(3), atol=1e-15)

    def test_projection_norm_matches_line_angle(self):
        # line at 45 degrees from the plane: norms contract by cos(45)
        W = from_spanning([[0, 1, 1, 0], [1, 2, 2, -1]], Field.REAL)
        v = np.array([1.0, 0.0, 1.0, 0.0])
        assert np.linalg.norm(project_vector(W, v)) == pytest.approx(
            np.linalg.norm(v) * math.cos(math.radians(45)), abs=1e-12
        )

    def test_idempotent_and_self_adjoint(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            for _ in range(20):
                n = int(rng.integers(1, 9))
                W = haar_subspace(rng, n, int(rng.integers(0, n + 1)), field)
                x = random_vector(rng, n, field)
                y = random_vector(rng, n, field)
                px = project_vector(W, x)
                np.testing.assert_allclose(project_vector(W, px), px, atol=1e-9)
                assert abs(np.vdot(px, y) - np.vdot(x, project_vector(W, y))) < 1e-9

    def test_mismatch_rejected(self):
        W = from_spanning([[1, 0, 0]], Field.REAL)
        with pytest.raises(ValueError):
            project_vector(W, [1, 0])


class TestProjectSubspace:
    def test_contained_subspace_fixed(self, rng):
        W = haar_subspace(rng, 6, 4, Field.REAL)
        V = from_spanning([W.basis[:, 0], W.basis[:, 2]], Field.REAL)
        assert spans_equal(project_subspace(W, V), V)

    def test_orthogonal_subspace_killed(self):
        W = from_spanning([[1, 0, 0, 0]], Field.REAL)
        V = from_spanning([[0, 1, 0, 0], [0, 0, 1, 0]], Field.REAL)
        assert project_subspace(W, V).dim == 0

    def test_image_of_tilted_plane(self):
        V, W = pair_22_real()
        image = project_subspace(W, V)
        assert image.dim == 2
        assert spans_equal(image, W)


class TestComplement:
    def test_of_zero_is_everything(self):
        C = complement(zero_subspace(3, Field.REAL))
        assert C.dim == 3

    def test_generators_orthogonal(self):
        V = from_spanning([[1, 0, 0, 0], [0, np.sqrt(3) / 2, 0.5, 0]], Field.REAL)
        C = complement(V)
        assert C.dim == 2
        np.testing.assert_allclose(V.basis.T @ C.basis, np.zeros((2, 2)), atol=1e-9)

    def test_involution(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            V = haar_subspace(rng, 6, 3, field)
            assert spans_equal(complement(complement(V)), V)

    def test_dim_additivity_and_orthogonality(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            V = haar_subspace(rng, n, int(rng.integers(0, n + 1)), Field.COMPLEX)
            C = complement(V)
            assert V.dim + C.dim == n
            if V.dim and C.dim:
                assert np.max(np.abs(V.basis.conj().T @ C.basis)) < 1e-9


class TestIntersect:
    def test_self_intersection(self, rng):
        V = haar_subspace(rng, 5, 3, Field.COMPLEX)
        assert spans_equal(intersect(V, V), V)

    def test_distinct_lines_in_plane(self):
        L1 = from_spanning([[1, 0]], Field.REAL)
        L2 = from_spanning([[1, 1]], Field.REAL)
        assert intersect(L1, L2).dim == 0

    def test_known_complex_intersection_line(self):
        v1 = np.array([1, -XI, 0])
        v2 = np.array([0, XI, -(XI**2)])
        V = from_spanning([v1, v2], Field.COMPLEX)
        W = from_spanning([np.array([1, 0, 0], dtype=complex), np.array([0, XI, 0])], Field.COMPLEX)
        common = intersect(V, W)
        assert common.dim == 1
        assert is_subspace_of(from_spanning([v1], Field.COMPLEX), common)

    def test_dim_count_matches_nonzero_angles(self, rng):
        for _ in range(15):
            n = 7
            shared = haar_subspace(rng, n, 2, Field.REAL)
            extra1 = random_vector(rng, n, Field.REAL)
            extra2 = random_vector(rng, n, Field.REAL)
            V = from_spanning(list(shared.basis.T) + [extra1], Field.REAL)
            W = from_spanning(list(shared.basis.T) + [extra2], Field.REAL)
            m = min(V.dim, W.dim)
            angles = principal_angles(V, W)
            nonzero = int(np.count_nonzero(np.cos(angles) < 1 - 1e-9))
            assert intersect(V, W).dim + nonzero == m

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("t, dim", [(1e-3, 1), (3e-5, 1), (1e-7, 1), (1e-11, 2), (0.0, 2)])
    def test_slightly_tilted_plane_lies_in_both(self, field, t, dim):
        """A candidate direction with cosine within COMPARE_TOL of 1 is kept
        only when it passes the containment rule, so a tilt of 3e-5 (cosine
        1 - 4.5e-10) does not make the whole plane common."""
        V = from_spanning([[1, 0, 0], [0, 1, 0]], field)
        W = from_spanning([[1, 0, 0], [0, math.cos(t), math.sin(t)]], field)
        for X, Y in ((V, W), (W, V)):
            common = intersect(X, Y)
            assert common.dim == dim
            assert is_subspace_of(common, X) and is_subspace_of(common, Y)


class TestSpansEqual:
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_same_span_different_bases(self, field, rng):
        V = haar_subspace(rng, 6, 3, field)
        mixed = V.basis @ gaussian_matrix(rng, 3, 3, field)
        W = from_spanning(list(mixed.T), field)
        assert spans_equal(V, W) and spans_equal(W, V)

    def test_nested_pair_is_not_equal(self):
        line = from_spanning([[1, 1, 0]], Field.REAL)
        plane = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        assert is_subspace_of(line, plane)
        assert not spans_equal(line, plane) and not spans_equal(plane, line)

    @pytest.mark.parametrize("t, equal", [(1e-7, False), (1e-11, True)])
    def test_tilted_plane_decided_by_containment(self, t, equal):
        V = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        W = from_spanning([[1, 0, 0], [0, math.cos(t), math.sin(t)]], Field.REAL)
        assert spans_equal(V, W) is equal and spans_equal(W, V) is equal

    def test_different_dimensions_and_zero(self, rng):
        zero = zero_subspace(4, Field.COMPLEX)
        V = haar_subspace(rng, 4, 2, Field.COMPLEX)
        assert spans_equal(zero, zero_subspace(4, Field.COMPLEX))
        assert not spans_equal(zero, V) and not spans_equal(V, zero)
        assert not spans_equal(V, full_space(4, Field.COMPLEX))

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ambient"):
            spans_equal(zero_subspace(3, Field.REAL), full_space(4, Field.REAL))


def test_values_holding_arrays_compare_by_identity():
    """``==`` and ``hash`` of every value that holds an array are its
    identity (a generated field-wise compare of two arrays raised), and
    ``spans_equal`` is the equality of subspaces."""
    e1, e2, e3 = np.eye(3)
    V, W, V_again = (from_spanning(vs, Field.REAL) for vs in ([e1, e2], [e1, e3], [e2, e1]))
    assert V == V and V != W and V != V_again and len({V, W, V_again}) == 3
    assert spans_equal(V, V_again) and not spans_equal(V, W)

    def line(t):
        return from_spanning([[math.cos(t), math.sin(t)]], Field.REAL)

    witness = classify_triangle_equality(line(0.0), line(0.4), line(1.0)).witness
    other_witness = classify_triangle_equality(line(0.0), line(0.5), line(1.0)).witness
    pairs = [
        (pair_spectrum(V, W), pair_spectrum(V_again, W)),
        (principal_decomposition(V, W), principal_decomposition(V_again, W)),
        (blade_of(V), blade_of(V_again)),
        (witness, other_witness),
    ]
    for a, b in pairs:
        assert a == a and a != b and hash(a) == hash(a) and len({a, b}) == 2, type(a)


class TestRelationsIgnoreTheBasis:
    """Containment, equality, intersection and orthogonality are read off
    principal sines and cosines, so a unitary change of ambient basis
    leaves every verdict as it was.  Each configuration sits at sine or
    cosine d from the relation, with its deviation direction drawn at
    random, and d next to COMPARE_TOL: an entrywise test passes a
    deviation of 1.3e-9 or 2e-9 in some frames and not in others."""

    @staticmethod
    def _verdicts(Q, k, d, a, b, field):
        """The four verdicts on a configuration whose vectors have
        coordinates a, b and e_k in the frame Q (orthonormal columns):
        W is spanned by its first k columns, w by a, u by b in the last
        n - k - 1, and x is column k."""
        w = Q[:, :k] @ a / np.linalg.norm(a)
        u = Q[:, k + 1 :] @ b / np.linalg.norm(b)
        x = Q[:, k]

        def span(*vectors):
            return from_basis_matrix(np.column_stack(vectors), field)

        W = from_basis_matrix(Q[:, :k], field)
        return (
            is_subspace_of(span(w + d * u), W),
            spans_equal(span(w + d * u), span(w)),
            intersect(span(w + d * u, x), W).dim,
            _pairwise_orthogonal([W, span(u + d * w, x)]),
        )

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("d", [1.3e-9, 2e-9, 5e-10])
    def test_same_verdict_in_every_frame(self, field, n, d):
        within = d / math.hypot(1.0, d) <= COMPARE_TOL
        expected = (within, within, int(within), within)
        for draw in range(12):
            rng = np.random.default_rng([n, draw, int(field is Field.COMPLEX)])
            k = 1 + draw % (n - 2)
            a, b = gaussian_matrix(rng, k, 1, field)[:, 0], gaussian_matrix(rng, n - k - 1, 1, field)[:, 0]
            for Q in (np.eye(n, dtype=field.dtype), random_unitary(rng, n, field)):
                assert self._verdicts(Q, k, d, a, b, field) == expected


class TestRealify:
    def test_layout_interleaved(self):
        V = from_spanning([np.array([1, 0], dtype=complex)], Field.COMPLEX)
        R = realify(V)
        expected = from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], Field.REAL)
        assert spans_equal(R, expected)

    def test_rejects_real_input(self):
        with pytest.raises(ValueError):
            realify(full_space(2, Field.REAL))

    def test_gram_preservation(self, rng):
        u = random_vector(rng, 4, Field.COMPLEX)
        v = random_vector(rng, 4, Field.COMPLEX)
        assert np.vdot(u, v).real == pytest.approx(
            float(realify_vector(u) @ realify_vector(v)), abs=1e-12
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_column_loop_bit_for_bit(self, n):
        rng = np.random.default_rng([n, 18])
        for p in range(n + 1):
            V = haar_subspace(rng, n, p, Field.COMPLEX)
            basis, ref = realify(V).basis, realify_by_columns(V)
            assert basis.shape == ref.shape and basis.tobytes() == ref.tobytes(), p

    def test_j_squares_to_minus_identity(self):
        J = realification_j(5)
        np.testing.assert_allclose(J @ J, -np.eye(10), atol=1e-15)

    def test_realification_is_j_invariant(self, rng):
        V = haar_subspace(rng, 4, 2, Field.COMPLEX)
        R = realify(V)
        J = realification_j(4)
        rotated = from_spanning([J @ R.basis[:, j] for j in range(R.dim)], Field.REAL)
        assert spans_equal(rotated, R)


class TestSum:
    def test_sum_dims(self, rng):
        V = haar_subspace(rng, 6, 2, Field.REAL)
        W = haar_subspace(rng, 6, 3, Field.REAL)
        S = sum_subspace(V, W)
        assert S.dim == 5
        assert is_subspace_of(V, S) and is_subspace_of(W, S)

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError, match="field"):
            sum_subspace(full_space(2, Field.REAL), full_space(2, Field.COMPLEX))
