"""The stacked coordinate-subspace sums against the per-subset loops they
replace.

Each reference below is the earlier implementation: one checked
``Subspace`` and one pair spectrum per index set.  The stacked versions
take one cross-Gram with the whole basis and one stacked SVD or
determinant, and sum in the same order, so they agree to roundoff.
"""

import itertools
import math

import numpy as np
import pytest

from spangle import Field
from spangle.angles import OrientedSubspace, grassmann_angle, oriented_angle, oriented_from_spanning
from spangle.identities import (
    check_coordinate_identity,
    check_oriented_sum,
    check_principal_coordinate,
)
from spangle.principal import principal_decomposition
from spangle.sampling import gaussian_matrix, haar_subspace, random_unitary
from spangle.subspace import Subspace, from_basis_matrix, from_spanning, zero_subspace

BOTH_FIELDS = (Field.REAL, Field.COMPLEX)
SEEDS = range(100)
TOL = 1e-12


def reference_coordinate_subspaces(basis, q, field):
    n = basis.shape[1]
    unit = basis / np.linalg.norm(basis, axis=0)
    for combo in itertools.combinations(range(n), q):
        cols = unit[:, list(combo)] if combo else np.zeros((basis.shape[0], 0), dtype=unit.dtype)
        yield combo, Subspace(basis.shape[0], field, cols)


def reference_coordinate_identity(V, basis, q):
    n, p = V.ambient_dim, V.dim
    total = 0.0
    for _, W_I in reference_coordinate_subspaces(basis, q, V.field):
        angle = grassmann_angle(V, W_I) if p <= q else grassmann_angle(W_I, V)
        total += math.cos(angle) ** 2
    return total, float(math.comb(n - p, n - q) if p <= q else math.comb(p, q))


def reference_oriented_sum(V, W, basis):
    lhs = oriented_angle(V, W).cos_value
    total = 0.0 + 0.0j if V.space.field is Field.COMPLEX else 0.0
    bound_total = 0.0
    for _, X_I in reference_coordinate_subspaces(basis, V.space.dim, V.space.field):
        X_oriented = OrientedSubspace(X_I, 1.0)
        left = oriented_angle(V, X_oriented).cos_value
        right = oriented_angle(X_oriented, W).cos_value
        total += left * right
        bound_total += abs(left) * abs(right)
    return lhs, total, bound_total - abs(lhs)


def reference_principal_coordinate(U, V, W):
    decomp = principal_decomposition(V, W)
    lhs = math.cos(grassmann_angle(U, W)) ** 2
    total = 0.0
    for combo in itertools.combinations(range(V.dim), U.dim):
        cols = decomp.left_basis[:, list(combo)] if combo else np.zeros((V.ambient_dim, 0), dtype=V.field.dtype)
        V_I = Subspace(V.ambient_dim, V.field, cols)
        total += math.cos(grassmann_angle(U, V_I)) ** 2 * math.cos(grassmann_angle(V_I, W)) ** 2
    return lhs, total


def scaled_orthogonal_basis(rng, n, field):
    """An orthogonal, not orthonormal, basis: column lengths in [0.5, 3]."""
    return random_unitary(rng, n, field) * rng.uniform(0.5, 3.0, size=n)


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_coordinate_identity_matches_loop(field):
    branches = set()
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 1])
        n = int(rng.integers(1, 9))
        p = int(rng.integers(0, n + 1))
        V = haar_subspace(rng, n, p, field)
        basis = scaled_orthogonal_basis(rng, n, field)
        for q in {0, int(rng.integers(p, n + 1)), int(rng.integers(0, p + 1))}:
            branches.add("p<=q" if p <= q else "p>q")
            got = check_coordinate_identity(V, basis, q)
            total, target = reference_coordinate_identity(V, basis, q)
            assert got.rhs == target
            assert abs(got.lhs - total) <= TOL
            assert abs(got.residual - abs(total - target)) <= TOL
            assert got.passed
    assert branches == {"p<=q", "p>q"}


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_oriented_sum_matches_loop(field):
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 2])
        n = int(rng.integers(1, 9))
        p = int(rng.integers(0, n + 1))
        V = oriented_from_spanning(list(gaussian_matrix(rng, n, p, field).T), field, ambient_dim=n)
        W = oriented_from_spanning(list(gaussian_matrix(rng, n, p, field).T), field, ambient_dim=n)
        if field is Field.COMPLEX:
            W = OrientedSubspace(W.space, W.coefficient * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        basis = scaled_orthogonal_basis(rng, n, field)
        got = check_oriented_sum(V, W, basis)
        lhs, total, slack = reference_oriented_sum(V, W, basis)
        assert got.identity.lhs == lhs
        assert isinstance(got.identity.rhs, complex if field is Field.COMPLEX else float)
        assert abs(got.identity.rhs - total) <= TOL
        assert abs(got.bound_slack - slack) <= TOL
        assert got.identity.passed and got.bound_slack >= -1e-12


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_principal_coordinate_matches_loop(field):
    widths = set()
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 3])
        n = int(rng.integers(1, 9))
        V = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
        W = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
        r = int(rng.integers(0, V.dim + 1))
        if r == 0:
            U = zero_subspace(n, field)
        else:
            U = from_basis_matrix(V.basis @ gaussian_matrix(rng, V.dim, r, field), field)
        widths.add("r<=q" if r <= W.dim else "r>q")
        got = check_principal_coordinate(U, V, W)
        lhs, total = reference_principal_coordinate(U, V, W)
        assert got.lhs == lhs
        assert abs(got.rhs - total) <= TOL
        assert got.passed
    assert widths == {"r<=q", "r>q"}


def test_validation_messages_kept(rng):
    V = haar_subspace(rng, 3, 1, Field.REAL)
    with pytest.raises(ValueError, match="square"):
        check_coordinate_identity(V, np.eye(4), 2)
    with pytest.raises(ValueError, match="zero vector"):
        check_coordinate_identity(V, np.diag([1.0, 0.0, 1.0]), 2)
    O = oriented_from_spanning([[1.0, 0.0, 0.0]], Field.REAL)
    with pytest.raises(ValueError, match="orthogonal"):
        check_oriented_sum(O, O, np.array([[1.0, 1.0, 0], [0, 1.0, 0], [0, 0, 1.0]]))
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        check_oriented_sum(O, O, np.eye(4))
    with pytest.raises(ValueError, match="square"):
        check_oriented_sum(O, O, np.eye(3)[:, :2])


@pytest.mark.parametrize("q", [2.0, True, 4, -1, "2", None])
def test_coordinate_identity_refuses_q_outside_0_to_n(q, rng):
    """q is an integer in 0..n; anything else is a ValueError naming q,
    not a TypeError or a message from math.comb."""
    V = haar_subspace(rng, 3, 1, Field.REAL)
    with pytest.raises(ValueError, match=r"^q must be an integer in 0\.\.3, got "):
        check_coordinate_identity(V, np.eye(3), q)


@pytest.mark.parametrize("q", [0, 3, np.int64(2)])
def test_coordinate_identity_accepts_q_from_0_to_n(q, rng):
    V = haar_subspace(rng, 3, 1, Field.REAL)
    assert check_coordinate_identity(V, np.eye(3), q).passed


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_basis_orthogonality_is_a_2_norm_test(field, rng):
    """A basis is orthogonal when unit* unit - I has 2-norm at most
    COMPARE_TOL.  Three unit columns meeting pairwise at cosine c have
    no entry of that matrix above c and a 2-norm of 2c: c = 8e-10 is
    rejected and c = 4e-10 accepted."""
    V = haar_subspace(rng, 3, 1, field)
    O = oriented_from_spanning([[1.0, 0.0, 0.0]], field)
    for c, orthogonal in ((8e-10, False), (4e-10, True)):
        basis = np.linalg.cholesky(np.eye(3) + c * (np.ones((3, 3)) - np.eye(3))).T.astype(field.dtype)
        for check in (lambda: check_coordinate_identity(V, basis, 2), lambda: check_oriented_sum(O, O, basis)):
            if orthogonal:
                check()
            else:
                with pytest.raises(ValueError, match="not orthogonal"):
                    check()


@pytest.mark.parametrize("field", BOTH_FIELDS)
@pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (3, 1), (3, 3)])
def test_coordinate_subspace_hits_target_exactly(field, p, q):
    """V spanned by a rotated frame of e_0 .. e_{p-1}: every index set is
    contained in V or contains it, or meets it at a right angle, so each
    cosine is exactly 1 (its singular values sit an ulp or two below 1,
    inside the zero-angle band) or exactly 0, and the sum is the target."""
    rng = np.random.default_rng([p, q, 4])
    for _ in range(20):
        frame = np.eye(6, dtype=field.dtype)[:, :p] @ random_unitary(rng, p, field)
        V = from_spanning(list(frame.T), field)
        assert check_coordinate_identity(V, np.eye(6), q).residual == 0.0
