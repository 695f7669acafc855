"""Bases the library builds itself skip the public orthonormality check.

Every internal construction site goes through ``Subspace._trusted``; these
tests hold each site to what the public constructor would have enforced
(the basis passes ``Subspace(n, field, basis)``), to read-only storage, and
to owning its array: no basis shares memory with an array the caller can
still write.  Public array arguments are checked where they enter.
"""

import math
import sys

import numpy as np
import pytest

from spangle import Field
from spangle import exterior, linalg, verify
from spangle.angles import oriented_from_spanning
from spangle.gram import angle_from_gram, angle_from_gram_equal_dim, complementary_from_gram
from spangle.identities import check_coordinate_identity, check_oriented_sum
from spangle.metrics import TriangleTag, classify_triangle_equality, geodesic_point
from spangle.principal import intersect
from spangle.sampling import gaussian_matrix, haar_subspace, random_unitary
from spangle.subspace import (
    Subspace,
    complement,
    from_basis_matrix,
    from_spanning,
    full_space,
    project_subspace,
    realify,
    sum_subspace,
    zero_subspace,
)

BOTH_FIELDS = (Field.REAL, Field.COMPLEX)
KINDS = ("generic", "rank_deficient", "near_coincident", "nested", "zero")


def spanning_pair(rng, n, field, kind):
    """Two spanning matrices (columns) of one input category."""
    if kind == "zero":
        return np.zeros((n, 0), dtype=field.dtype), gaussian_matrix(rng, n, 2, field)
    A = gaussian_matrix(rng, n, 3, field)
    if kind == "generic":
        B = gaussian_matrix(rng, n, 2, field)
    elif kind == "rank_deficient":
        A = np.hstack([A, A[:, :2] @ gaussian_matrix(rng, 2, 2, field)])
        B = np.hstack([A[:, :1], 2.0 * A[:, :1]])
    elif kind == "near_coincident":
        B = A + 1e-9 * gaussian_matrix(rng, n, 3, field)
    else:  # nested: span B inside span A
        B = A @ gaussian_matrix(rng, 3, 2, field)
    return A, B


def assert_trusted(S, *inputs):
    """S's basis passes the public check, is read-only and shares no
    memory with any of the caller-visible inputs."""
    assert S.basis.dtype == S.field.dtype
    assert S.basis.flags.c_contiguous
    Subspace(S.ambient_dim, S.field, S.basis)
    assert not S.basis.flags.writeable
    with pytest.raises(ValueError):
        S.basis[...] = 0
    for x in inputs:
        assert not np.shares_memory(S.basis, np.asarray(x))


def cases():
    for field in BOTH_FIELDS:
        for kind in KINDS:
            for seed in range(4):
                yield field, kind, seed


@pytest.mark.parametrize("field,kind,seed", list(cases()))
def test_subspace_module_sites(field, kind, seed):
    rng = np.random.default_rng([seed, 7])
    n = 6
    A, B = spanning_pair(rng, n, field, kind)
    V = from_basis_matrix(A, field)
    assert_trusted(V, A)
    cols = list(B.T)
    W = from_spanning(cols, field, ambient_dim=n)
    assert_trusted(W, B, *cols)
    for S in (
        project_subspace(W, V),
        sum_subspace(V, W),
        intersect(V, W),
        intersect(W, V),
    ):
        assert_trusted(S, V.basis, W.basis, A, B)
    for X in (V, W):
        assert_trusted(complement(X), X.basis)
    if field is Field.COMPLEX:
        for X in (V, W):
            assert_trusted(realify(X), X.basis)


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_constant_sites(field):
    first, second = full_space(4, field), full_space(4, field)
    assert_trusted(first, second.basis)
    assert_trusted(zero_subspace(4, field))
    assert_trusted(realify(full_space(3, Field.COMPLEX)))
    assert_trusted(realify(zero_subspace(3, Field.COMPLEX)))


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_oriented_from_spanning(field, rng):
    for p in range(0, 5):
        M = gaussian_matrix(rng, 5, p, field)
        cols = list(M.T)
        O = oriented_from_spanning(cols, field, ambient_dim=5)
        assert_trusted(O.space, M, *cols)


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_random_orthogonal_partition(field, rng):
    for n in range(2, 9):
        parts = verify._random_orthogonal_partition(rng, n, field)
        for i, S in enumerate(parts):
            assert_trusted(S, *(T.basis for T in parts[:i]))


def test_every_trusted_construction_in_the_suites(monkeypatch):
    """Every subspace the verify suites build without the check (the
    principal-basis split included) passes it, and no two share memory."""
    built, callers = [], set()
    trusted = Subspace._trusted.__func__

    def recording(cls, ambient_dim, field, basis):
        S = trusted(cls, ambient_dim, field, basis)
        built.append(S)
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return S

    monkeypatch.setattr(Subspace, "_trusted", classmethod(recording))
    for suite in verify.SUITE_NAMES:
        verify.run_suites(suite, seed=5, trials=5, dim_max=8)
    assert {"run_pythagorean", "_random_orthogonal_partition", "_span"} <= callers
    for S in built:
        assert_trusted(S)
    spans = sorted((S.basis.ctypes.data, S.basis.ctypes.data + S.basis.nbytes) for S in built if S.basis.size)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


def _record_conversions(monkeypatch) -> list[tuple[str, str]]:
    """Patch ``as_field_array`` in every package module that calls it; the
    returned list gains (calling function, its caller) for each call."""
    calls, convert = [], linalg.as_field_array

    def recording(values, field):
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
        return convert(values, field)

    for name, module in list(sys.modules.items()):
        if name.startswith("spangle.") and getattr(module, "as_field_array", None) is convert:
            monkeypatch.setattr(module, "as_field_array", recording)
    return calls


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_haar_and_sub_subspaces_are_not_converted_again(field, monkeypatch, rng):
    calls = _record_conversions(monkeypatch)
    for n in range(1, 7):
        for p in range(n + 1):
            V = haar_subspace(rng, n, p, field)
            verify._sub_subspace(rng, V, int(rng.integers(0, p + 1)))
    assert calls == []


def test_no_library_route_converts_a_basis_matrix(monkeypatch):
    """The suites' own builds, the CASE_III witness's spans and the
    geodesic point take the library-built matrix as it is: no library
    route calls ``from_basis_matrix``."""
    U, V, W = (from_spanning([[math.cos(t), math.sin(t), 0.0], [0.0, 0.0, 1.0]], Field.REAL) for t in (0.0, 0.4, 1.0))
    calls = _record_conversions(monkeypatch)
    assert classify_triangle_equality(U, V, W).tag is TriangleTag.CASE_III
    geodesic_point(U, W, 0.3)
    for suite in verify.SUITE_NAMES:
        verify.run_suites(suite, seed=5, trials=5, dim_max=8)
    assert [call for call in calls if "from_basis_matrix" in call] == []


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_library_built_multivectors_are_not_converted(field, monkeypatch, rng):
    """Blades, products, contractions and projections the library computes
    are stored as computed (read-only, the field's dtype, length 2^n); the
    public constructor still converts and checks."""
    V, W = haar_subspace(rng, 4, 2, field), haar_subspace(rng, 4, 3, field)
    calls = _record_conversions(monkeypatch)
    nu, omega = exterior.blade_of(V), exterior.blade_of(W)
    built = [nu, omega, exterior.wedge(nu, omega), exterior.contract(nu, omega), exterior.project_multivector(W, nu)]
    built.append(exterior.scalar_multivector(4, field))
    assert calls == []
    for x in built:
        assert x.coeffs.dtype == field.dtype and x.coeffs.shape == (16,)
        assert not x.coeffs.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        exterior.Multivector(2, field, [1.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="length 4"):
        exterior.Multivector(2, field, [1.0, 0.0, 0.0])
    assert [function for function, _ in calls] == ["__post_init__", "__post_init__"]


def test_public_constructor_still_checks():
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, Field.REAL, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        Subspace(2, Field.REAL, np.array([[np.nan], [0.0]]))
    with pytest.raises(ValueError, match="two-dimensional"):
        from_basis_matrix(np.ones(3), Field.REAL)


_ROW = [[1.0, 0.0]]
_GRAM_LIST_ROUTES = (angle_from_gram, angle_from_gram_equal_dim, complementary_from_gram)
_LIST_TAKERS = {
    "from_spanning": lambda x: from_spanning(x, Field.REAL),
    "from_basis_matrix": lambda x: from_basis_matrix(x, Field.REAL),
    "oriented_from_spanning": lambda x: oriented_from_spanning(x, Field.REAL),
    **{f"{r.__name__}_first": lambda x, r=r: r(x, _ROW, Field.REAL) for r in _GRAM_LIST_ROUTES},
    **{f"{r.__name__}_second": lambda x, r=r: r(_ROW, x, Field.REAL) for r in _GRAM_LIST_ROUTES},
}


@pytest.mark.parametrize("call", list(_LIST_TAKERS.values()), ids=list(_LIST_TAKERS))
@pytest.mark.parametrize("scalar", [3.0, np.float64(3.0), np.array(3.0), None])
def test_a_scalar_in_place_of_a_list_is_a_value_error(call, scalar):
    with pytest.raises(ValueError):
        call(scalar)


@pytest.mark.parametrize("field", BOTH_FIELDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_basis_rejected_at_entry(field, bad, rng):
    basis = random_unitary(rng, 4, field)
    basis[1, 2] = bad
    V = haar_subspace(rng, 4, 2, field)
    with pytest.raises(ValueError, match="entries must be finite"):
        check_coordinate_identity(V, basis, 2)
    O = oriented_from_spanning(list(V.basis.T), field)
    with pytest.raises(ValueError, match="entries must be finite"):
        check_oriented_sum(O, O, basis)
