import math

import numpy as np
import pytest

from spangle import Field
from spangle.angles import grassmann_angle
from spangle.identities import ANGLE_TOL
from spangle.linalg import COMPARE_TOL, angle_from_cosine, clamped_products
from spangle.metrics import (
    TriangleTag,
    _geodesic,
    asymmetric_distance,
    classify_triangle_equality,
    directed_hausdorff,
    fubini_study,
    geodesic_point,
    hausdorff,
    max_symmetrized_angle,
    sampled_directed_hausdorff,
)
from spangle.principal import intersect
from spangle.sampling import haar_subspace, random_unitary, random_vector
from spangle.subspace import (
    from_basis_matrix,
    from_spanning,
    project_subspace,
    spans_equal,
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


def codim1_pair(rng, n, p, field):
    K = haar_subspace(rng, n, p - 1, field)
    cols = list(K.basis.T)
    U = from_spanning(cols + [random_vector(rng, n, field)], field, ambient_dim=n)
    W = from_spanning(cols + [random_vector(rng, n, field)], field, ambient_dim=n)
    return U, W


class TestFubiniStudy:
    def test_identical(self, rng):
        V = haar_subspace(rng, 5, 2, Field.COMPLEX)
        assert fubini_study(V, V) == 0.0

    def test_line_inside_plane_still_far(self):
        W = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        L = from_spanning([[1, 0, 0]], Field.REAL)
        assert fubini_study(L, W) == pytest.approx(HALF_PI)

    def test_real_pair_value(self):
        V, W = pair_22_real()
        assert math.degrees(fubini_study(V, W)) == pytest.approx(60.0, abs=1e-7)


class TestAsymmetricDistance:
    def test_line_rotating_into_plane(self):
        W = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        for t in (0.5, 0.1, 0.01):
            L = from_spanning([[math.cos(t), 0, math.sin(t)]], Field.REAL)
            assert asymmetric_distance(L, W) == pytest.approx(t, abs=1e-7)
            assert asymmetric_distance(W, L) == pytest.approx(HALF_PI)

    def test_identical_zero_both_ways(self, rng):
        V = haar_subspace(rng, 5, 3, Field.REAL)
        mix = np.eye(3) + 0.3 * np.random.default_rng(5).standard_normal((3, 3))
        same = from_basis_matrix(V.basis @ mix, Field.REAL)
        assert asymmetric_distance(V, same) == 0.0
        assert asymmetric_distance(same, V) == 0.0

    def test_triangle_inequality_random(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            for _ in range(200):
                n = int(rng.integers(2, 7))
                dims = rng.integers(0, n + 1, size=3)
                U = haar_subspace(rng, n, int(dims[0]), field)
                V = haar_subspace(rng, n, int(dims[1]), field)
                W = haar_subspace(rng, n, int(dims[2]), field)
                gap = (
                    asymmetric_distance(U, W)
                    - asymmetric_distance(U, V)
                    - asymmetric_distance(V, W)
                )
                assert gap <= 1e-9


class TestHausdorff:
    def test_one_function_for_three_distances(self):
        """Across dimensions the larger directed angle is pi/2 and on equal
        dimensions the two directed angles are one value, so the
        Hausdorff distance and the max-symmetrized angle are the
        Fubini-Study distance."""
        assert fubini_study is max_symmetrized_angle is hausdorff

    def test_contained_gives_zero(self, rng):
        W = haar_subspace(rng, 6, 4, Field.REAL)
        V = from_basis_matrix(W.basis[:, :2], Field.REAL)
        assert directed_hausdorff(V, W) == 0.0
        assert directed_hausdorff(W, V) == pytest.approx(HALF_PI)
        assert hausdorff(V, W) == pytest.approx(HALF_PI)

    def test_equal_dims_both_directions(self):
        V, W = pair_22_real()
        assert math.degrees(directed_hausdorff(V, W)) == pytest.approx(60.0, abs=1e-7)
        assert math.degrees(directed_hausdorff(W, V)) == pytest.approx(60.0, abs=1e-7)

    def test_sampled_never_exceeds_closed_form(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 6))
            V = haar_subspace(rng, n, int(rng.integers(1, n + 1)), Field.REAL)
            W = haar_subspace(rng, n, int(rng.integers(1, n + 1)), Field.REAL)
            sampled = sampled_directed_hausdorff(V, W, rng, samples=35)
            assert sampled <= directed_hausdorff(V, W) + 1e-7


def sample_dims_and_frames(V, W, rng, samples):
    """The sampler's two generator calls: every sample's k, then, when some
    k is in 1..dim W, a p x p Gaussian per sample (all real parts, then all
    imaginary parts), whose first k columns are that sample's frame."""
    p = V.dim
    ks = rng.integers(0, p + 1, size=samples).tolist()
    if not 0 < max(ks, default=0) <= W.dim:
        return ks, None
    if V.field is Field.COMPLEX:
        re, im = rng.standard_normal((2, samples, p, p))
        return ks, re + 1j * im
    return ks, rng.standard_normal((samples, p, p))


def reference_sampled_hausdorff(V, W, rng, samples, candidate_rng):
    """The per-sample construction the coordinate sampler replaces: a
    Subspace for each sample, its projection and four random candidates,
    these drawn from ``candidate_rng``.  A sample above dim W has no
    candidate and is at pi/2, and so is the max."""
    ks, frames = sample_dims_and_frames(V, W, rng, samples)
    if frames is None:  # no sample above {0}, or one with no candidate
        return HALF_PI if max(ks, default=0) else 0.0
    best = 0.0
    for k, Z in zip(ks, frames):
        if k == 0:
            continue
        V_sub = from_basis_matrix(V.basis @ Z[:, :k], V.field)
        candidates = []
        projected = project_subspace(W, V_sub)
        if projected.dim == V_sub.dim:
            candidates.append(projected)
        for _ in range(4):
            w_coords = haar_subspace(candidate_rng, W.dim, k, W.field)
            candidates.append(from_basis_matrix(W.basis @ w_coords.basis, W.field))
        best = max(best, min(fubini_study(V_sub, C) for C in candidates))
    return best


def projection_sampled_hausdorff(V, W, rng, samples):
    """The coordinate sampler sample by sample, with numpy's own QR and
    SVD: each sample's frame orthonormalized alone and scored by its
    projection's cosine alone."""
    ks, frames = sample_dims_and_frames(V, W, rng, samples)
    if frames is None:
        return HALF_PI if max(ks, default=0) else 0.0
    M = W.basis.conj().T @ V.basis
    worst = 1.0
    for k, Z in zip(ks, frames):
        if k:
            sigma = np.linalg.svd(M @ np.linalg.qr(Z[:, :k])[0], compute_uv=False)
            worst = min(worst, clamped_products(sigma) if sigma[-1] > COMPARE_TOL else 0.0)
    return angle_from_cosine(worst)


class TestSampledDirectedHausdorff:
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("shape", ["p<=q", "p>q", "V=0", "W=0"])
    def test_matches_per_sample_construction(self, field, shape):
        for seed in range(100):
            pick = np.random.default_rng(seed)
            n = int(pick.integers(2, 7))
            if shape == "p<=q":
                p = int(pick.integers(1, n + 1))
                q = int(pick.integers(p, n + 1))
            elif shape == "p>q":
                q = int(pick.integers(1, n))
                p = int(pick.integers(q + 1, n + 1))
            elif shape == "V=0":
                p, q = 0, int(pick.integers(0, n + 1))
            else:
                p, q = int(pick.integers(1, n + 1)), 0
            V, W = haar_subspace(pick, n, p, field), haar_subspace(pick, n, q, field)
            ours, theirs = np.random.default_rng(1000 + seed), np.random.default_rng(1000 + seed)
            got = sampled_directed_hausdorff(V, W, ours, samples=12)
            want = reference_sampled_hausdorff(V, W, theirs, 12, np.random.default_rng(2000 + seed))
            assert abs(got - want) <= 1e-12
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("samples", [0, 1, 40])
    @pytest.mark.parametrize("p, q", [(2, 4), (3, 3), (4, 2), (3, 0), (0, 3), (0, 0), (5, 5)])
    def test_one_draw_per_sample_reads_the_same_stream(self, field, samples, p, q):
        """Bit for bit the sample-by-sample sampler's value, and the
        generator left in the same state; p > q and q = 0 draw samples
        above dim W."""
        for seed in range(6):
            pick = np.random.default_rng(seed)
            V, W = haar_subspace(pick, 6, p, field), haar_subspace(pick, 6, q, field)
            ours, theirs = np.random.default_rng(500 + seed), np.random.default_rng(500 + seed)
            got = sampled_directed_hausdorff(V, W, ours, samples=samples)
            want = projection_sampled_hausdorff(V, W, theirs, samples)
            assert got.hex() == want.hex()
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_no_frame_beats_the_projection(self, field):
        """Why the sampler scores the projection alone: for orthonormal
        p x k and q x k frames A and B, sigma_i(B* M A) <= sigma_i(M A)
        (M = W* V has norm at most 1), so |det(B* M A)| is at most the
        projection's cosine, the product of the singular values of M A."""
        rng = np.random.default_rng(31)
        for trial in range(400):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, n + 1))
            if trial % 2:  # k = q: B is a q x q unitary, and B* M A has M A's singular values
                q = k = int(rng.integers(1, p + 1))
            else:
                q = int(rng.integers(1, n + 1))
                k = int(rng.integers(1, min(p, q) + 1))
            V, W = haar_subspace(rng, n, p, field), haar_subspace(rng, n, q, field)
            A = haar_subspace(rng, p, k, field).basis
            B = haar_subspace(rng, q, k, field).basis
            MA = W.basis.conj().T @ V.basis @ A
            frame = abs(np.linalg.det(B.conj().T @ MA))
            projection = float(np.prod(np.linalg.svd(MA, compute_uv=False)))
            assert frame <= (1 + 64 * np.finfo(float).eps) * projection

    def test_zero_samples(self, rng):
        V = haar_subspace(rng, 4, 2, Field.REAL)
        assert sampled_directed_hausdorff(V, V, rng, samples=0) == 0.0

    def test_negative_samples_rejected(self):
        rng = np.random.default_rng(0)
        V, W = haar_subspace(rng, 4, 2, Field.REAL), haar_subspace(rng, 4, 2, Field.REAL)
        with pytest.raises(ValueError, match="samples"):
            sampled_directed_hausdorff(V, W, rng, samples=-5)

    @pytest.mark.parametrize("samples", [-1, 2.5, True, False, "3", None])
    def test_samples_must_be_an_integer_at_least_zero(self, samples):
        """A bool, a float or a negative count is refused with a message
        that names samples, before any draw."""
        rng = np.random.default_rng(0)
        V, W = haar_subspace(rng, 4, 2, Field.REAL), haar_subspace(rng, 4, 2, Field.REAL)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="samples must be an integer >= 0"):
            sampled_directed_hausdorff(V, W, rng, samples=samples)
        assert rng.bit_generator.state == state

    def test_numpy_integer_samples(self):
        """A numpy integer count runs as the same Python int."""
        rng = np.random.default_rng(1)
        V, W = haar_subspace(rng, 5, 3, Field.REAL), haar_subspace(rng, 5, 3, Field.REAL)
        got = sampled_directed_hausdorff(V, W, np.random.default_rng(2), samples=np.int64(3))
        assert got > 0.0
        assert got == sampled_directed_hausdorff(V, W, np.random.default_rng(2), samples=3)

    @pytest.mark.parametrize(
        "other",
        [lambda rng: haar_subspace(rng, 4, 2, Field.COMPLEX), lambda rng: haar_subspace(rng, 5, 2, Field.REAL)],
        ids=["field", "ambient"],
    )
    def test_mismatched_pair_rejected(self, rng, other):
        V = haar_subspace(rng, 4, 2, Field.REAL)
        with pytest.raises(ValueError):
            sampled_directed_hausdorff(V, other(rng), rng, samples=5)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_identical_is_zero(self, rng, field):
        V = haar_subspace(rng, 6, 3, field)
        assert sampled_directed_hausdorff(V, V, rng, samples=40) == 0.0

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_higher_dimension_is_half_pi(self, rng, field):
        V, W = haar_subspace(rng, 6, 3, field), haar_subspace(rng, 6, 2, field)
        assert sampled_directed_hausdorff(V, W, rng, samples=40) == HALF_PI


class TestTriangleClassification:
    def test_nested_chain_is_case_i(self, rng):
        W = haar_subspace(rng, 6, 4, Field.REAL)
        V = from_basis_matrix(W.basis[:, :3], Field.REAL)
        U = from_basis_matrix(V.basis[:, :1], Field.REAL)
        assert classify_triangle_equality(U, V, W).tag is TriangleTag.CASE_I

    def test_projection_contained_is_case_ii(self, rng):
        # V inside W, with U projecting into V
        W = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        V = from_spanning([[1, 0, 0]], Field.REAL)
        U = from_spanning([[1, 0, 1]], Field.REAL)  # projects onto V's line
        case = classify_triangle_equality(U, V, W)
        assert case.tag is TriangleTag.CASE_II

    def test_coplanar_lines_case_iii(self):
        def line(t):
            return from_spanning([[math.cos(t), math.sin(t)]], Field.REAL)

        U, V, W = line(0.0), line(0.4), line(1.0)
        case = classify_triangle_equality(U, V, W)
        assert case.tag is TriangleTag.CASE_III
        assert case.witness is not None
        w = case.witness
        # witness vectors realize the three angles
        assert abs(np.vdot(w.u, w.v)) == pytest.approx(math.cos(0.4), abs=1e-9)
        assert abs(np.vdot(w.u, w.w)) == pytest.approx(math.cos(1.0), abs=1e-9)
        assert w.padding_a.dim == 0 and w.padding_b.dim == 0 and w.padding_c.dim == 0

    def test_padded_case_iii_in_higher_dimension(self):
        # same configuration, padded with orthogonal directions
        def vec(t):
            return np.array([math.cos(t), math.sin(t), 0.0, 0.0, 0.0])

        a = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        U = from_spanning([vec(0.0), a], Field.REAL)
        V = from_spanning([vec(0.4), a, b], Field.REAL)
        W = from_spanning([vec(1.0), a, b], Field.REAL)
        case = classify_triangle_equality(U, V, W)
        assert case.tag is TriangleTag.CASE_III
        assert case.witness is not None
        assert case.witness.padding_a.dim == 1
        assert case.witness.padding_b.dim == 1

    def test_generic_triple_is_strict(self, rng):
        hits = 0
        for _ in range(10):
            U = haar_subspace(rng, 5, 2, Field.COMPLEX)
            V = haar_subspace(rng, 5, 2, Field.COMPLEX)
            W = haar_subspace(rng, 5, 3, Field.COMPLEX)
            hits += classify_triangle_equality(U, V, W).tag is TriangleTag.STRICT
        assert hits == 10


class TestGeodesic:
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_endpoints_and_midpoint(self, field, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n))
            U, W = codim1_pair(rng, n, p, field)
            if U.dim != p or W.dim != p or intersect(U, W).dim != p - 1:
                continue
            total = grassmann_angle(U, W)
            if total < 1e-3:
                continue
            assert fubini_study(geodesic_point(U, W, 0.0), U) <= 1e-7
            assert fubini_study(geodesic_point(U, W, total), W) <= 1e-7
            mid = geodesic_point(U, W, total / 2)
            assert grassmann_angle(U, mid) == pytest.approx(total / 2, abs=1e-9)
            assert grassmann_angle(mid, W) == pytest.approx(total / 2, abs=1e-9)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_one_frame_gives_geodesic_point_bits(self, field, rng, svd_calls):
        """The map ``_geodesic`` takes the frame once; each of its points
        then costs one span (one SVD) and has ``geodesic_point``'s bits."""
        U, W = codim1_pair(rng, 5, 3, field)
        for phase in (None, 0.7 if field is Field.COMPLEX else math.pi):
            point = _geodesic(U, W, phase)
            for t in (0.0, 0.4, 1.3):
                svd_calls.clear()
                V = point(t)
                assert len(svd_calls) == 1
                assert V.basis.tobytes() == geodesic_point(U, W, t, phase).basis.tobytes()

    def test_points_stay_in_grassmannian(self, rng):
        U, W = codim1_pair(rng, 5, 3, Field.REAL)
        for t in np.linspace(0, math.pi, 7):
            V = geodesic_point(U, W, float(t))
            assert V.dim == 3
            assert intersect(V, U).dim >= 2

    def test_complex_phase_zero_passes_through_target(self, rng):
        U, W = codim1_pair(rng, 4, 2, Field.COMPLEX)
        total = grassmann_angle(U, W)
        V = geodesic_point(U, W, total, phase=0.0)
        assert spans_equal(V, W)

    def test_complex_phase_family_stays_in_grassmannian(self, rng):
        U, W = codim1_pair(rng, 4, 2, Field.COMPLEX)
        for phase in (0.5, 1.0, 2.5):
            V = geodesic_point(U, W, 0.3, phase=phase)
            assert V.dim == 2
            assert intersect(V, U).dim == 1

    def test_codimension_violation_rejected(self, rng):
        U = haar_subspace(rng, 6, 2, Field.REAL)
        W = haar_subspace(rng, 6, 2, Field.REAL)  # generic: intersection {0}
        if intersect(U, W).dim == 1:
            pytest.skip("improbable draw")
        with pytest.raises(ValueError, match="codimension"):
            geodesic_point(U, W, 0.1)

    def test_real_phase_must_be_half_turn(self, rng):
        U, W = codim1_pair(rng, 4, 2, Field.REAL)
        with pytest.raises(ValueError, match="phase"):
            geodesic_point(U, W, 0.1, phase=1.0)
        V = geodesic_point(U, W, 0.1, phase=math.pi)
        assert V.dim == 2

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("t", [1e-9, 1e-10, 1e-11])
    def test_nearly_shared_direction(self, field, t):
        # U = span(e1, e2), W = span(e1 + t e4, e3): the intersection is
        # span(e1) within COMPARE_TOL, so the t e4 left in W's residual
        # from it is no second rotating direction.
        e = np.eye(4)
        phase = 1j if field is Field.COMPLEX else 1.0
        U = from_spanning([e[0], e[1]], field)
        W = from_spanning([e[0] + t * e[3], phase * e[2]], field)
        total = grassmann_angle(U, W)
        assert fubini_study(geodesic_point(U, W, 0.0), U) <= ANGLE_TOL
        assert fubini_study(geodesic_point(U, W, total), W) <= ANGLE_TOL
        mid = geodesic_point(U, W, total / 2)
        assert abs(grassmann_angle(U, mid) - total / 2) <= ANGLE_TOL
        assert abs(grassmann_angle(mid, W) - total / 2) <= ANGLE_TOL

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_lines_rotate_about_the_zero_intersection(self, field, rng):
        # p = 1: the intersection is {0}, and the rotating directions come
        # from the SVD of an empty cross-Gram.
        U, W = haar_subspace(rng, 3, 1, field), haar_subspace(rng, 3, 1, field)
        total = grassmann_angle(U, W)
        assert fubini_study(geodesic_point(U, W, 0.0), U) <= ANGLE_TOL
        assert fubini_study(geodesic_point(U, W, total), W) <= ANGLE_TOL
        mid = geodesic_point(U, W, total / 2)
        assert abs(grassmann_angle(U, mid) - total / 2) <= ANGLE_TOL

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("p, a", [(1, 3e-9), (1, 2e-8), (1, 1e-6), (1, 0.5), (3, 1e-6), (3, 0.5)])
    def test_point_lands_at_arc_length_near_coincidence(self, field, p, a):
        """U = span(K, u0) and W = span(K, cos a u0 + sin a v0), for an
        orthonormal frame (K, u0, v0) in six dimensions: the point at t =
        0.3 is at principal sine sin 0.3 from U, read as the 2-norm of its
        residual from U, even when a is so small that <u, w> rounds to 1."""
        frame = random_unitary(np.random.default_rng([p, 7]), 6, field)
        K, u0, v0 = frame[:, : p - 1], frame[:, p - 1], frame[:, p]
        moving = (math.cos(a) * u0 + math.sin(a) * v0) * (np.exp(0.7j) if field is Field.COMPLEX else 1.0)
        U = from_basis_matrix(np.column_stack([K, u0]), field)
        W = from_basis_matrix(np.column_stack([K, moving]), field)
        V = geodesic_point(U, W, 0.3)
        residual = V.basis - U.basis @ (U.basis.conj().T @ V.basis)
        assert V.dim == p
        assert abs(np.linalg.norm(residual, 2) - math.sin(0.3)) <= 1e-7 * math.sin(0.3)

    @pytest.mark.parametrize("n", [0, 3])
    def test_zero_subspaces_rejected(self, n):
        Z = zero_subspace(n, Field.REAL)
        with pytest.raises(ValueError, match="geodesics need nonzero subspaces"):
            geodesic_point(Z, Z, 0.1)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("t, phase", [(math.nan, None), (math.inf, None), (0.3, math.nan), (0.3, -math.inf)])
    def test_non_finite_parameter_rejected(self, field, t, phase):
        """Checked at entry, so a real NaN phase (whose cosine passes no
        comparison) and an infinite t (where math.cos fails) raise the same
        error as a NaN t."""
        U = from_spanning([[1, 0, 0], [0, 1, 0]], field)
        W = from_spanning([[1, 0, 0], [0, 0.6, 0.8]], field)
        with pytest.raises(ValueError, match=r"^entries must be finite \(no NaN or infinity\)$"):
            geodesic_point(U, W, t, phase=phase)

    def test_zero_dimensional_edge(self):
        # p = 1 lines through the origin in the plane
        U = from_spanning([[1.0, 0.0]], Field.REAL)
        W = from_spanning([[math.cos(0.8), math.sin(0.8)]], Field.REAL)
        mid = geodesic_point(U, W, 0.4)
        assert grassmann_angle(U, mid) == pytest.approx(0.4, abs=1e-9)
