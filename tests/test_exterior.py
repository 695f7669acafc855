import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangle import Field
from spangle.exterior import (
    Multivector,
    _wedge_vector_coeffs,
    blade_of,
    contract,
    inner,
    oracle_complementary_angle,
    oracle_contraction_angle,
    oracle_grassmann_angle,
    project_multivector,
    scalar_multivector,
    shuffle_sign,
    wedge,
)
from spangle.linalg import det
from spangle.principal import is_partially_orthogonal
from spangle.sampling import haar_subspace, random_vector
from spangle.subspace import from_spanning, zero_subspace

from exterior_oracles import (
    basis_blade,
    contract_loop,
    contract_via_adjoint,
    contract_via_coordinate_expansion,
    coordinate_blade,
    epsilon_sign,
    grades,
    multi_index_complement,
    shuffle_sign_loop,
    wedge_loop,
    wedge_vector,
    wedge_vector_loop,
)

BOTH = (Field.REAL, Field.COMPLEX)


def _blade_from_vectors(vectors, field):
    acc = scalar_multivector(len(vectors[0]), field)
    for v in vectors:
        acc = wedge_vector(acc, v)
    return acc


class TestWedge:
    def test_antisymmetry_of_basis_vectors(self):
        e1 = _blade_from_vectors([[1, 0, 0]], Field.REAL)
        e2 = _blade_from_vectors([[0, 1, 0]], Field.REAL)
        np.testing.assert_allclose(
            wedge(e1, e2).coeffs, -wedge(e2, e1).coeffs, atol=1e-15
        )

    def test_vector_squares_to_zero(self, rng):
        v = _blade_from_vectors([random_vector(rng, 4, Field.COMPLEX)], Field.COMPLEX)
        assert wedge(v, v).norm < 1e-14

    def test_linearity(self):
        e1 = _blade_from_vectors([[1, 0]], Field.REAL)
        e2 = _blade_from_vectors([[0, 1]], Field.REAL)
        lhs = wedge(Multivector(2, Field.REAL, e1.coeffs + e2.coeffs), e2)
        np.testing.assert_allclose(lhs.coeffs, wedge(e1, e2).coeffs, atol=1e-15)

    @given(st.integers(0, 2**4 - 1), st.integers(0, 2**4 - 1), st.integers(0, 2**4 - 1))
    @settings(max_examples=80, deadline=None)
    def test_associativity_on_basis_blades(self, a, b, c):
        A = basis_blade(4, Field.REAL, a)
        B = basis_blade(4, Field.REAL, b)
        C = basis_blade(4, Field.REAL, c)
        np.testing.assert_allclose(
            wedge(wedge(A, B), C).coeffs, wedge(A, wedge(B, C)).coeffs, atol=1e-15
        )

    def test_graded_anticommutativity(self, rng):
        for p, q in [(1, 2), (2, 2), (1, 3), (2, 3)]:
            a = _blade_from_vectors([random_vector(rng, 5, Field.REAL) for _ in range(p)], Field.REAL)
            b = _blade_from_vectors([random_vector(rng, 5, Field.REAL) for _ in range(q)], Field.REAL)
            sign = (-1) ** (p * q)
            np.testing.assert_allclose(
                wedge(a, b).coeffs, sign * wedge(b, a).coeffs, atol=1e-12
            )


class TestInner:
    def test_unit_coordinate_blade(self):
        e12 = basis_blade(3, Field.REAL, 0b011)
        assert inner(e12, e12) == pytest.approx(1.0)

    def test_grade_mismatch_is_orthogonal(self):
        e1 = basis_blade(3, Field.REAL, 0b001)
        e12 = basis_blade(3, Field.REAL, 0b011)
        assert inner(e1, e12) == 0.0

    @pytest.mark.parametrize("field", BOTH)
    def test_matches_gram_determinant(self, field, rng):
        for _ in range(10):
            vs = [random_vector(rng, 5, field) for _ in range(2)]
            ws = [random_vector(rng, 5, field) for _ in range(2)]
            nu = _blade_from_vectors(vs, field)
            om = _blade_from_vectors(ws, field)
            gram = np.array([[np.vdot(v, w) for w in ws] for v in vs])
            assert abs(inner(nu, om) - det(gram)) < 1e-10

    def test_conjugate_linearity_left(self, rng):
        a = _blade_from_vectors([random_vector(rng, 3, Field.COMPLEX)], Field.COMPLEX)
        b = _blade_from_vectors([random_vector(rng, 3, Field.COMPLEX)], Field.COMPLEX)
        c = 0.3 - 1.7j
        assert inner(a.scale(c), b) == pytest.approx(np.conj(c) * inner(a, b))
        assert inner(a, b.scale(c)) == pytest.approx(c * inner(a, b))


class TestContract:
    def test_basic_example(self):
        e1 = basis_blade(2, Field.REAL, 0b01)
        e12 = basis_blade(2, Field.REAL, 0b11)
        out = contract(e1, e12)
        np.testing.assert_allclose(out.coeffs, basis_blade(2, Field.REAL, 0b10).coeffs)

    def test_grade_excess_vanishes(self):
        e12 = basis_blade(2, Field.REAL, 0b11)
        e1 = basis_blade(2, Field.REAL, 0b01)
        assert contract(e12, e1).norm == 0.0

    @pytest.mark.parametrize("field", BOTH)
    def test_equal_grades_reduce_to_inner(self, field, rng):
        for _ in range(5):
            vs = [random_vector(rng, 4, field) for _ in range(2)]
            ws = [random_vector(rng, 4, field) for _ in range(2)]
            nu = _blade_from_vectors(vs, field)
            om = _blade_from_vectors(ws, field)
            out = contract(nu, om)
            assert abs(out.coeffs[0] - inner(nu, om)) < 1e-12
            assert np.max(np.abs(out.coeffs[1:])) < 1e-12


class TestExhaustiveSmallCases:
    """Adjointness and the coordinate decompositions over ALL coordinate
    blades for n <= 5, both fields; no sampling."""

    @pytest.mark.parametrize("field", BOTH)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_adjoint_identity_exhaustive(self, field, n):
        blades = [basis_blade(n, field, m) for m in range(1 << n)]
        for nu in blades:
            contracted = {}
            for om_mask in range(1 << n):
                contracted[om_mask] = contract(nu, blades[om_mask])
            for om_mask in range(1 << n):
                for mu_mask in range(1 << n):
                    lhs = inner(blades[mu_mask], contracted[om_mask])
                    rhs = inner(wedge(nu, blades[mu_mask]), blades[om_mask])
                    assert lhs == rhs

    @pytest.mark.parametrize("field", BOTH)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_coordinate_decomposition_reconstructs_exhaustive(self, field, n):
        # coordinate basis: the reconstruction must be exact for every
        # grade and every multi-index
        vecs = [np.eye(n, dtype=field.dtype)[:, j] for j in range(n)]
        for q in range(1, n + 1):
            omega = _blade_from_vectors(vecs[:q], field)
            for p in range(0, q + 1):
                for combo in itertools.combinations(range(1, q + 1), p):
                    oi = coordinate_blade(vecs[:q], combo, field, ambient_dim=n)
                    oic = coordinate_blade(
                        vecs[:q], multi_index_complement(combo, q), field, ambient_dim=n
                    )
                    recon = wedge(oi, oic).scale(epsilon_sign(combo))
                    np.testing.assert_array_equal(recon.coeffs, omega.coeffs)

    @pytest.mark.parametrize("field", BOTH)
    def test_coordinate_decomposition_random_factors(self, field, rng):
        n, q = 5, 4
        vecs = [random_vector(rng, n, field) for _ in range(q)]
        omega = _blade_from_vectors(vecs, field)
        for p in range(0, q + 1):
            for combo in itertools.combinations(range(1, q + 1), p):
                oi = coordinate_blade(vecs, combo, field)
                oic = coordinate_blade(vecs, multi_index_complement(combo, q), field)
                recon = wedge(oi, oic).scale(epsilon_sign(combo))
                np.testing.assert_allclose(recon.coeffs, omega.coeffs, atol=1e-10)

    @pytest.mark.parametrize("field", BOTH)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_contraction_expansion_exhaustive(self, field, n):
        # production contraction == explicit expansion == adjoint-based,
        # against the decomposed blade of the first q coordinate vectors
        vecs = [np.eye(n, dtype=field.dtype)[:, j] for j in range(n)]
        for q in range(1, n + 1):
            omega = _blade_from_vectors(vecs[:q], field)
            for mask in range(1 << n):
                nu = basis_blade(n, field, mask)
                got = contract(nu, omega)
                via_adjoint = contract_via_adjoint(nu, omega)
                np.testing.assert_allclose(got.coeffs, via_adjoint.coeffs, atol=1e-12)
                if bin(mask).count("1") <= q:
                    via_expansion = contract_via_coordinate_expansion(nu, vecs[:q])
                    np.testing.assert_allclose(
                        got.coeffs, via_expansion.coeffs, atol=1e-12
                    )

    @pytest.mark.parametrize("field", BOTH)
    def test_contraction_three_routes_random_blades(self, field, rng):
        for _ in range(8):
            n = 5
            p = int(rng.integers(0, 3))
            q = int(rng.integers(max(p, 1), n + 1))
            nu_f = [random_vector(rng, n, field) for _ in range(p)]
            om_f = [random_vector(rng, n, field) for _ in range(q)]
            nu = _blade_from_vectors(nu_f, field) if nu_f else scalar_multivector(n, field)
            om = _blade_from_vectors(om_f, field)
            a = contract(nu, om)
            b = contract_via_adjoint(nu, om)
            c = contract_via_coordinate_expansion(nu, om_f)
            np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-9)
            np.testing.assert_allclose(a.coeffs, c.coeffs, atol=1e-9)

    def test_multi_index_helpers(self):
        assert multi_index_complement((1, 3), 4) == (2, 4)
        assert epsilon_sign(()) == 1
        assert epsilon_sign((1,)) == 1
        assert epsilon_sign((2,)) == -1
        assert epsilon_sign((1, 2)) == 1


def _graded(rng, n: int, field: Field, grade: int, zero_share: float = 0.25) -> Multivector:
    """A random multivector of one grade, a share of whose blades have an
    exact zero coefficient."""
    coeffs = np.zeros(1 << n, dtype=field.dtype)
    masks = [m for m in range(1 << n) if m.bit_count() == grade]
    values = random_vector(rng, len(masks), field)
    values[rng.random(len(masks)) < zero_share] = 0
    coeffs[masks] = values
    return Multivector(n, field, coeffs)


class TestArrayKernels:
    """``wedge``, ``contract`` and ``_wedge_vector_coeffs`` are array kernels:
    each must give the bits of the scalar loops in ``exterior_oracles``."""

    def test_shuffle_sign_is_the_loop_elementwise(self):
        masks = np.arange(1 << 8)
        a, b = np.meshgrid(masks, masks, indexing="ij")
        disjoint = (a & b) == 0
        want = [shuffle_sign_loop(int(x), int(y)) for x, y in zip(a[disjoint], b[disjoint])]
        assert shuffle_sign(a[disjoint], b[disjoint]).tolist() == want
        # masks up to the real cap of 12 bits, and plain integers
        a = np.random.default_rng(12).integers(0, 1 << 12, 500)
        b = np.random.default_rng(13).integers(0, 1 << 12, 500) & ~a
        assert shuffle_sign(a, b).tolist() == [shuffle_sign_loop(int(x), int(y)) for x, y in zip(a, b)]
        assert shuffle_sign((1 << 12) - 2, 1) == -1 and shuffle_sign(0b1010_0000_0000, 0b0101) == 1

    @pytest.mark.parametrize("field", BOTH)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_products_match_the_loops(self, field, n):
        """Every pair of grades for n <= 6; from n = 7 on, each grade with
        itself, its complement and a grade off by one."""
        rng = np.random.default_rng([n, field is Field.COMPLEX])
        if n <= 6:
            pairs = itertools.product(range(n + 1), repeat=2)
        else:
            pairs = {(g, h) for g in range(n + 1) for h in (g, n - g, max(g - 1, 0))}
        for ga, gb in pairs:
            a, b = _graded(rng, n, field, ga), _graded(rng, n, field, gb)
            assert wedge(a, b).coeffs.tobytes() == wedge_loop(a, b).tobytes(), (ga, gb)
            assert contract(a, b).coeffs.tobytes() == contract_loop(a, b).tobytes(), (ga, gb)
        mixed = Multivector(n, field, sum(_graded(rng, n, field, g).coeffs for g in range(n + 1)))
        assert wedge(mixed, mixed).coeffs.tobytes() == wedge_loop(mixed, mixed).tobytes()
        assert contract(mixed, mixed).coeffs.tobytes() == contract_loop(mixed, mixed).tobytes()

    @pytest.mark.parametrize("field", BOTH)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_wedge_vector_matches_the_loop(self, field, n):
        """Random vectors, some entries exactly zero, and the coordinate
        vectors, onto blades of every grade."""
        rng = np.random.default_rng([n, 7, field is Field.COMPLEX])
        vectors = [random_vector(rng, n, field) for _ in range(3)]
        vectors[1][rng.random(n) < 0.5] = 0
        vectors += list(np.eye(n, dtype=field.dtype))
        for grade in range(n + 1):
            coeffs = _graded(rng, n, field, grade).coeffs
            for v in vectors:
                assert _wedge_vector_coeffs(coeffs, v, n).tobytes() == wedge_vector_loop(coeffs, v, n).tobytes()

    def test_empty_operands(self):
        zero = Multivector(3, Field.COMPLEX, np.zeros(8, dtype=complex))
        one = scalar_multivector(3, Field.COMPLEX)
        for op in (wedge, contract):
            assert op(zero, one).coeffs.tobytes() == np.zeros(8, dtype=complex).tobytes()
            assert op(one, zero).coeffs.tobytes() == np.zeros(8, dtype=complex).tobytes()

    def test_complex_products_round_each_product_apart(self):
        """(1 + e + i)(1 - e + i) with e = 2**-30 has real part
        (1 - e**2) - 1: 0 when each product is rounded, as the scalar loop
        does, but -e**2 when a fused multiply-add rounds once, as numpy's
        array multiply may.  Both kernels must give the loop's 0."""
        e = 2.0**-30
        x, y = complex(1 + e, 1), complex(1 - e, 1)
        n = 2
        scalar = np.zeros(4, dtype=complex)
        vector = np.zeros(4, dtype=complex)
        scalar[0], vector[0b01] = x, y
        a, b = Multivector(n, Field.COMPLEX, scalar), Multivector(n, Field.COMPLEX, vector)
        assert wedge(a, b).coeffs[0b01] == complex(0.0, 2.0)
        assert wedge(a, b).coeffs.tobytes() == wedge_loop(a, b).tobytes()
        scalar[0] = x.conjugate()  # contract conjugates its left operand
        a = Multivector(n, Field.COMPLEX, scalar)
        assert contract(a, b).coeffs[0b01] == complex(0.0, 2.0)
        assert contract(a, b).coeffs.tobytes() == contract_loop(a, b).tobytes()


class TestBladeOf:
    def test_zero_subspace_gives_scalar_one(self):
        b = blade_of(zero_subspace(4, Field.REAL))
        assert grades(b) == [0]
        assert b.coeffs[0] == 1.0
        assert np.count_nonzero(b.coeffs) == 1

    def test_coordinate_plane(self):
        V = from_spanning([[1, 0, 0, 0], [0, 0, 1, 0]], Field.REAL)
        b = blade_of(V)
        assert grades(b) == [2]
        nz = np.nonzero(b.coeffs)[0]
        assert list(nz) == [0b0101]
        assert abs(abs(b.coeffs[0b0101]) - 1.0) < 1e-12

    def test_unit_norm(self, rng):
        V = haar_subspace(rng, 6, 3, Field.COMPLEX)
        assert blade_of(V).norm == pytest.approx(1.0, abs=1e-12)

    def test_cap_enforced(self, rng):
        V = haar_subspace(rng, 13, 2, Field.REAL)
        with pytest.raises(ValueError, match="cap"):
            blade_of(V)
        W = haar_subspace(rng, 11, 2, Field.COMPLEX)
        with pytest.raises(ValueError, match="cap"):
            blade_of(W)


class TestOperandChecks:
    def test_ambient_and_field_mismatch_rejected(self, rng):
        real3, real4 = scalar_multivector(3, Field.REAL), scalar_multivector(4, Field.REAL)
        complex3 = scalar_multivector(3, Field.COMPLEX)
        for op in (wedge, inner, contract):
            with pytest.raises(ValueError, match="ambient dimension mismatch: 3 vs 4"):
                op(real3, real4)
            with pytest.raises(ValueError, match="field mismatch: real vs complex"):
                op(real3, complex3)
        W = haar_subspace(rng, 4, 2, Field.REAL)
        with pytest.raises(ValueError, match="ambient dimension mismatch: 4 vs 3"):
            project_multivector(W, real3)
        with pytest.raises(ValueError, match="field mismatch: real vs complex"):
            project_multivector(W, scalar_multivector(4, Field.COMPLEX))


class TestProjectMultivector:
    def test_fixes_elements_of_target_algebra(self, rng):
        W = haar_subspace(rng, 5, 3, Field.REAL)
        x = _blade_from_vectors([W.basis @ random_vector(rng, 3, Field.REAL) for _ in range(2)], Field.REAL)
        np.testing.assert_allclose(project_multivector(W, x).coeffs, x.coeffs, atol=1e-12)

    def test_kills_orthogonal_blade(self):
        W = from_spanning([[1, 0, 0, 0]], Field.REAL)
        V = from_spanning([[0, 1, 0, 0], [0, 0, 1, 0]], Field.REAL)
        assert project_multivector(W, blade_of(V)).norm < 1e-14

    def test_projected_norm_is_angle_cosine(self):
        V = from_spanning(
            [np.array([1, 0, 1, 0]) / np.sqrt(2), np.array([0, 1, 0, 1]) / np.sqrt(2)],
            Field.REAL,
        )
        W = from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], Field.REAL)
        nu = blade_of(V)
        assert project_multivector(W, nu).norm == pytest.approx(0.5, abs=1e-12)


class TestOracles:
    def test_contained_gives_zero(self, rng):
        W = haar_subspace(rng, 6, 4, Field.REAL)
        V = from_spanning([W.basis[:, 0], W.basis[:, 1]], Field.REAL)
        assert oracle_grassmann_angle(V, W) < 1e-7

    def test_dimension_excess_gives_right_angle(self, rng):
        V = haar_subspace(rng, 5, 3, Field.COMPLEX)
        W = haar_subspace(rng, 5, 2, Field.COMPLEX)
        assert oracle_grassmann_angle(V, W) == pytest.approx(math.pi / 2)

    def test_complex_pair_value(self):
        e1 = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
        e2 = np.array([0, 0, 1j, np.sqrt(3)], dtype=complex) / 2
        f1 = np.array([1 + 1j, 1 - 1j, 0, 0], dtype=complex) / 2
        f2 = np.array([0, 0, 1j, 0], dtype=complex)
        V = from_spanning([e1, e2], Field.COMPLEX)
        W = from_spanning([f1, f2], Field.COMPLEX)
        expect = math.acos(math.sqrt(2) / 4)
        assert oracle_grassmann_angle(V, W) == pytest.approx(expect, abs=1e-9)
        assert oracle_contraction_angle(V, W) == pytest.approx(expect, abs=1e-9)

    def test_complementary_oracle_cases(self, rng):
        V = from_spanning([[1, 0, 0, 0]], Field.REAL)
        W = from_spanning([[0, 1, 0, 0], [0, 0, 1, 0]], Field.REAL)
        assert oracle_complementary_angle(V, W) < 1e-7  # orthogonal pair
        shared = from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], Field.REAL)
        assert oracle_complementary_angle(V, shared) == pytest.approx(math.pi / 2, abs=1e-7)
        # tilted plane: product of sines of (45, 45) is 1/2
        V2 = from_spanning(
            [np.array([1, 0, 1, 0]) / np.sqrt(2), np.array([0, 1, 0, 1]) / np.sqrt(2)],
            Field.REAL,
        )
        W2 = from_spanning([[1, 0, 0, 0], [0, 1, 0, 0]], Field.REAL)
        assert oracle_complementary_angle(V2, W2) == pytest.approx(math.radians(60), abs=1e-9)

    @pytest.mark.parametrize("field", BOTH)
    def test_contraction_equals_projection_oracle(self, field, rng):
        for _ in range(15):
            n = int(rng.integers(2, 7))
            V = haar_subspace(rng, n, int(rng.integers(0, n + 1)), field)
            W = haar_subspace(rng, n, int(rng.integers(0, n + 1)), field)
            a = math.cos(oracle_contraction_angle(V, W))
            b = math.cos(oracle_grassmann_angle(V, W))
            assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("field", BOTH)
    def test_partial_orthogonality_matches_blade_orthogonality(self, field, rng):
        for _ in range(15):
            n = int(rng.integers(2, 7))
            V = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
            W = haar_subspace(rng, n, int(rng.integers(1, n + 1)), field)
            nu = blade_of(V)
            projected_norm = project_multivector(W, nu).norm
            assert is_partially_orthogonal(V, W) == (projected_norm <= 1e-9)
