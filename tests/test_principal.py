import numpy as np
import pytest

from spangle import Field
from spangle.principal import (
    is_partially_orthogonal,
    is_principal_partition,
    principal_angles,
    principal_decomposition,
)
from spangle.sampling import haar_subspace, random_unitary
from spangle.subspace import Subspace, from_spanning, project_subspace, realify, zero_subspace


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


class TestPrincipalDecomposition:
    def test_same_subspace_all_zero(self, rng):
        V = haar_subspace(rng, 5, 2, Field.REAL)
        d = principal_decomposition(V, V)
        np.testing.assert_allclose(d.angles, np.zeros(2), atol=1e-7)

    def test_real_pair_45_45(self):
        V, W = pair_22_real()
        np.testing.assert_allclose(
            np.degrees(principal_angles(V, W)), [45.0, 45.0], atol=1e-9
        )

    def test_complex_pair_45_60(self):
        V, W = pair_22_complex()
        np.testing.assert_allclose(
            np.degrees(principal_angles(V, W)), [45.0, 60.0], atol=1e-9
        )

    def test_zero_subspace_rejected(self):
        V = zero_subspace(3, Field.REAL)
        W = from_spanning([[1, 0, 0]], Field.REAL)
        with pytest.raises(ValueError):
            principal_decomposition(V, W)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_bases_satisfy_diagonal_pairing(self, field, rng):
        # <e_i, f_j> = delta_ij cos(theta_i), bases orthonormal, and the
        # projection of e_i onto W is f_i cos(theta_i)
        for _ in range(15):
            n = int(rng.integers(2, 11))
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(1, n + 1))
            V = haar_subspace(rng, n, p, field)
            W = haar_subspace(rng, n, q, field)
            d = principal_decomposition(V, W)
            m = min(p, q)
            E, F = d.left_basis, d.right_basis
            np.testing.assert_allclose(E.conj().T @ E, np.eye(p), atol=1e-11)
            np.testing.assert_allclose(F.conj().T @ F, np.eye(q), atol=1e-11)
            gram = E.conj().T @ F
            expected = np.zeros((p, q), dtype=gram.dtype)
            expected[:m, :m] = np.diag(np.cos(d.angles))
            np.testing.assert_allclose(gram, expected, atol=1e-9)
            proj = W.basis @ (W.basis.conj().T @ E[:, :m])
            np.testing.assert_allclose(proj, F[:, :m] * np.cos(d.angles), atol=1e-9)
            assert np.all(np.diff(d.angles) >= -1e-12)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_invariance_under_simultaneous_rotation(self, field, rng):
        for _ in range(10):
            n = 8
            V = haar_subspace(rng, n, 3, field)
            W = haar_subspace(rng, n, 4, field)
            T = random_unitary(rng, n, field)
            TV = from_spanning([T @ V.basis[:, j] for j in range(V.dim)], field)
            TW = from_spanning([T @ W.basis[:, j] for j in range(W.dim)], field)
            np.testing.assert_allclose(
                principal_angles(V, W), principal_angles(TV, TW), atol=1e-8
            )

    def test_realification_doubles_angles(self, rng):
        V = haar_subspace(rng, 5, 2, Field.COMPLEX)
        W = haar_subspace(rng, 5, 3, Field.COMPLEX)
        angles = principal_angles(V, W)
        doubled = np.sort(np.repeat(angles, 2))
        real_angles = principal_angles(realify(V), realify(W))
        np.testing.assert_allclose(real_angles, doubled, atol=1e-8)


class TestPartialOrthogonality:
    def test_plane_vs_line_by_dimension(self):
        plane = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        line = from_spanning([[1, 1, 1]], Field.REAL)
        assert is_partially_orthogonal(plane, line)
        assert not is_partially_orthogonal(line, plane)

    def test_equal_subspaces_not_partially_orthogonal(self, rng):
        V = haar_subspace(rng, 4, 2, Field.COMPLEX)
        assert not is_partially_orthogonal(V, V)

    def test_r5_example_direction_dependence(self):
        V = from_spanning([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]], Field.REAL)
        W = from_spanning([[1, 0, 0, 0, 0], [0, np.sqrt(3) / 2, 0.5, 0, 0]], Field.REAL)
        assert is_partially_orthogonal(V, W)
        assert not is_partially_orthogonal(W, V)

    def test_zero_subspace_is_never(self):
        Z = zero_subspace(3, Field.REAL)
        W = from_spanning([[1, 0, 0]], Field.REAL)
        assert not is_partially_orthogonal(Z, W)
        assert not is_partially_orthogonal(Z, Z)
        assert is_partially_orthogonal(W, Z)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-13, 0.0])
    def test_agrees_with_the_projection(self, field, eps):
        # V = span(e1, e2), W = span(e1, e3 + eps e2): e2 is at a right
        # angle to W exactly when its cosine, about eps, is <= COMPARE_TOL.
        e = np.eye(4)
        V = from_spanning([e[0], e[1]], field)
        W = from_spanning([e[0], e[2] + eps * e[1]], field)
        assert is_partially_orthogonal(V, W) == (eps < 1e-9)
        assert is_partially_orthogonal(V, W) == (project_subspace(W, V).dim < V.dim)


class TestPrincipalPartition:
    def test_singleton_partition(self, rng):
        V = haar_subspace(rng, 6, 3, Field.REAL)
        W = haar_subspace(rng, 6, 4, Field.REAL)
        assert is_principal_partition(V, [V], W)

    def test_split_along_principal_vectors(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            V = haar_subspace(rng, 6, 3, field)
            W = haar_subspace(rng, 6, 4, field)
            d = principal_decomposition(V, W)
            P1 = Subspace(6, field, d.left_basis[:, :1])
            P2 = Subspace(6, field, d.left_basis[:, 1:])
            assert is_principal_partition(V, [P1, P2], W)

    def test_generic_orthogonal_split_is_not(self, rng):
        hits = 0
        for _ in range(8):
            V = haar_subspace(rng, 6, 2, Field.REAL)
            W = haar_subspace(rng, 6, 3, Field.REAL)
            P1 = Subspace(6, Field.REAL, V.basis[:, :1])
            P2 = Subspace(6, Field.REAL, V.basis[:, 1:])
            hits += is_principal_partition(V, [P1, P2], W)
        assert hits == 0  # probability-one event over 8 draws

    def test_parts_must_sum_to_v(self, rng):
        V = haar_subspace(rng, 6, 3, Field.REAL)
        W = haar_subspace(rng, 6, 3, Field.REAL)
        stray = haar_subspace(rng, 6, 1, Field.REAL)
        with pytest.raises(ValueError, match="sum"):
            is_principal_partition(V, [stray], W)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_decomposition_angles_zero_on_shared_directions(field):
    """3- and 4-planes in 6 dimensions sharing a 2-plane: the decomposition
    reports the angles of principal_angles, bit for bit and in either
    argument order, with the shared directions as exact zeros (its own SVD,
    with singular vectors and the cross-Gram wide when the first side is
    larger, is only for the bases)."""
    for seed in range(150):
        rng = np.random.default_rng([seed, 11])
        frame = random_unitary(rng, 6, field)[:, :5]
        V = from_spanning(list((frame[:, [0, 1, 2]] @ random_unitary(rng, 3, field)).T), field)
        W = from_spanning(list((frame[:, [0, 1, 3, 4]] @ random_unitary(rng, 4, field)).T), field)
        for a, b in ((V, W), (W, V)):
            d = principal_decomposition(a, b).angles
            angles = principal_angles(a, b)
            assert list(d[:2]) == [0.0, 0.0]
            assert list(d) == list(angles)
            assert not d.flags.writeable
