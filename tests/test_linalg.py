import math

import numpy as np
import pytest

from spangle import Field
from spangle.linalg import (
    COMPARE_TOL,
    RANK_REL_TOL,
    ZERO_ANGLE_COS_BAND,
    angle_from_cosine,
    arccos_clamped,
    clamped_products,
    det,
    orthonormalize,
    principal_phase,
    svd,
)
from spangle.sampling import gaussian_matrix


def test_tolerance_ordering():
    assert 0.0 < RANK_REL_TOL < COMPARE_TOL < 1.0


class TestOrthonormalize:
    def test_already_orthonormal(self):
        Q, rank = orthonormalize([[1, 0, 0], [0, 1, 0]])
        assert rank == 2
        np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-12)

    def test_duplicate_direction_collapses(self):
        Q, rank = orthonormalize([[1, 0, 1, 0], [2, 0, 2, 0]])
        assert rank == 1
        expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
        # column is the direction up to sign
        assert min(np.linalg.norm(Q[:, 0] - expected), np.linalg.norm(Q[:, 0] + expected)) < 1e-12

    def test_independent_pair_gives_orthonormal_q(self):
        Q, rank = orthonormalize([[1, 0, 1, 0], [0, 1, 0, 1]])
        assert rank == 2
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            orthonormalize([[1, 0], [1, 0, 0]])

    def test_complex_data_under_real_tag(self):
        with pytest.raises(ValueError, match="REAL"):
            orthonormalize([[1j, 0]], field=Field.REAL)

    @pytest.mark.parametrize(
        "field, bad",
        [(f, x) for f in (Field.REAL, Field.COMPLEX) for x in (math.nan, math.inf, -math.inf)]
        + [(Field.COMPLEX, complex(0, math.inf))],
    )
    def test_non_finite_entries_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            orthonormalize([[1, 0, 0], [0, bad, 0]], field=field)

    def test_idempotent_on_own_output(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            M = gaussian_matrix(rng, 7, 4, field)
            Q1, r1 = orthonormalize([M[:, j] for j in range(4)])
            Q2, r2 = orthonormalize([Q1[:, j] for j in range(r1)])
            assert r1 == r2 == 4
            # same span: projectors agree
            np.testing.assert_allclose(
                Q1 @ Q1.conj().T, Q2 @ Q2.conj().T, atol=1e-11
            )


class TestSvd:
    def test_diagonal(self):
        _, sigma, _ = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(sigma, [3.0, 1.0])

    def test_zero_matrix(self):
        _, sigma, _ = svd(np.zeros((2, 3)))
        np.testing.assert_allclose(sigma, [0.0, 0.0])

    def test_rank_one_upper(self):
        # hand oracle: eigenvalues of M^T M = [[1,1],[1,1]] are 2 and 0
        _, sigma, _ = svd(np.array([[1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(sigma, [math.sqrt(2.0), 0.0], atol=1e-14)

    def test_empty(self):
        U, sigma, V = svd(np.zeros((0, 3)))
        assert sigma.size == 0

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_reconstruction_random(self, field, rng):
        for _ in range(25):
            m = int(rng.integers(1, 17))
            n = int(rng.integers(1, 17))
            M = gaussian_matrix(rng, m, n, field)
            U, sigma, V = svd(M)
            recon = U @ np.diag(sigma) @ V.conj().T
            assert np.linalg.norm(recon - M) <= COMPARE_TOL * np.linalg.norm(M)
            np.testing.assert_allclose(U.conj().T @ U, np.eye(U.shape[1]), atol=1e-12)
            np.testing.assert_allclose(V.conj().T @ V, np.eye(V.shape[1]), atol=1e-12)
            assert np.all(np.diff(sigma) <= 1e-15)


class TestDet:
    def test_identity(self):
        assert det(np.eye(3)) == pytest.approx(1.0)

    def test_permutation(self):
        assert det(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)

    def test_two_by_two_cofactor_oracle(self):
        M = np.array([[2.0, 4.0], [4.0, 10.0]])
        assert det(M) == pytest.approx(2.0 * 10.0 - 4.0 * 4.0)

    def test_size_zero_and_one(self):
        assert det(np.zeros((0, 0))) == 1.0
        assert det(np.array([[7.5]])) == 7.5

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            det(np.zeros((2, 3)))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_multiplicativity(self, field, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            A = gaussian_matrix(rng, n, n, field)
            B = gaussian_matrix(rng, n, n, field)
            lhs = det(A @ B)
            rhs = det(A) * det(B)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestSmallHelpers:
    def test_arccos_clamps_overshoot(self):
        assert arccos_clamped(1.0 + 1e-14) == 0.0
        assert arccos_clamped(-0.5) == math.pi / 2  # clamped up to 0

    def test_clamped_product_log_space(self):
        vals = np.full(40, 0.5)
        assert clamped_products(vals) == pytest.approx(0.5**40, rel=1e-12)
        assert clamped_products(np.zeros(3)) == 0.0
        assert clamped_products(np.zeros(0)) == 1.0

    @pytest.mark.parametrize("k", [0, 1, 20, 21, 40, 128])
    def test_clamped_products_rows_match_vector_call(self, k):
        """Each row of a stack gives the 1-D call's bits, on both sides of
        the 20-factor switch to log-space; a row holding a 0 gives 0.0."""
        rng = np.random.default_rng(k)
        stack = rng.uniform(0.9, 1.05, size=(2, 3, k))  # some factors above 1, clamped
        if k:
            stack[0, 1, k // 2] = 0.0
            stack[1, 2, -1] = -1e-300
        products = clamped_products(stack)
        assert products.shape == (2, 3)
        for index in np.ndindex(2, 3):
            one = clamped_products(stack[index])
            assert type(one) is float
            assert one == products[index]
        if k:
            assert products[0, 1] == 0.0 and products[1, 2] == 0.0
        else:
            assert (products == 1.0).all()

    def test_zero_angle_band_in_cosine_or_squared_cosine(self):
        """The Gram routes take the angle of sqrt(cos^2): the band test on
        the square root agrees with the squared band on every double within
        3000 ulps of it."""
        band_sq = ZERO_ANGLE_COS_BAND**2
        xs = [band_sq]
        below = above = band_sq
        for _ in range(3000):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 2.0)
            xs += [below, above]
        for x in xs:
            assert (angle_from_cosine(math.sqrt(x)) == 0.0) is (x >= band_sq)
        assert angle_from_cosine(ZERO_ANGLE_COS_BAND) == 0.0
        assert angle_from_cosine(math.nextafter(ZERO_ANGLE_COS_BAND, 0.0)) > 0.0
        assert angle_from_cosine(1.0 + 1e-14) == 0.0
        assert angle_from_cosine(-0.5) == math.pi / 2

    def test_principal_phase_range(self):
        assert principal_phase(complex(-1.0, -0.0)) == math.pi
        assert principal_phase(complex(-1.0, 0.0)) == math.pi
        assert principal_phase(1j) == pytest.approx(math.pi / 2)
