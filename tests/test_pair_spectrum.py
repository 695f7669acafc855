import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from spangle import Field
from spangle.angles import (
    AngleReport,
    angle_report,
    complementary_angle,
    grassmann_angle,
    min_symmetrized_angle,
    projection_factor,
)
from spangle.identities import (
    ANGLE_TOL,
    RESIDUAL_TOL,
    SLACK_TOL,
    AngularRange,
    ComplexifiabilityVerdict,
    FeasibilityReport,
    angular_range,
    complexifiability_obstruction,
    direct_sum_angle,
    partition_angle_product,
    theta_pair_feasibility,
)
from spangle.linalg import COMPARE_TOL, HALF_PI, ZERO_ANGLE_COS_BAND, angle_from_cosine, clamped_products
from spangle.metrics import fubini_study, max_symmetrized_angle
from spangle.principal import (
    PrincipalDecomposition,
    intersect,
    is_partially_orthogonal,
    pair_spectrum,
    principal_angles,
    principal_decomposition,
)
from spangle.sampling import gaussian_matrix, haar_subspace
from spangle.subspace import (
    Subspace,
    from_basis_matrix,
    from_spanning,
    realify,
    spans_equal,
    sum_subspace,
    zero_subspace,
)
from spangle.verify import run_suites

BOTH_FIELDS = (Field.REAL, Field.COMPLEX)


def random_pair(rng, n, p, q, field):
    return haar_subspace(rng, n, p, field), haar_subspace(rng, n, q, field)


def _flush(rng, field):
    """Evict the remembered pair by taking the spectrum of another one."""
    pair_spectrum(*random_pair(rng, 3, 1, 1, field))


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_angle_command_sequence_takes_one_cross_gram_svd(svd_calls, rng, field):
    n, p = 6, 3
    left = gaussian_matrix(rng, n, p, field)
    right = gaussian_matrix(rng, n, p, field)
    V = from_spanning([left[:, j] for j in range(p)], field, ambient_dim=n)
    W = from_spanning([right[:, j] for j in range(p)], field, ambient_dim=n)
    angle_report(V, W)
    principal_angles(V, W)
    grassmann_angle(W, V)
    fubini_study(V, W)
    assert svd_calls == [(n, p), (n, p), (p, p)]


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_swapped_order_hits_and_equal_contents_miss(svd_calls, rng, field):
    V, W = random_pair(rng, 5, 2, 3, field)
    twin = Subspace(V.ambient_dim, V.field, V.basis)
    svd_calls.clear()
    forward = pair_spectrum(V, W)
    backward = pair_spectrum(W, V)
    assert len(svd_calls) == 1
    assert backward.cosines is forward.cosines
    assert (backward.p, backward.q) == (forward.q, forward.p)

    pair_spectrum(twin, W)
    assert len(svd_calls) == 2


@pytest.mark.parametrize("field", BOTH_FIELDS)
@pytest.mark.parametrize("p, q", [(2, 3), (3, 2), (2, 2), (0, 3), (3, 0)])
def test_each_order_is_built_once(svd_calls, rng, field, p, q):
    """The spectrum of each order of a pair is one object while the pair
    holds the memo slot: the reverse order is built on its first hit and
    kept, sharing the cosines, with p and q and the directed angles
    exchanged."""
    V, W = random_pair(rng, 5, p, q, field)
    svd_calls.clear()
    s = pair_spectrum(V, W)
    back = pair_spectrum(W, V)
    assert back is not s
    assert pair_spectrum(W, V) is back
    assert pair_spectrum(V, W) is s
    assert back.cosines is s.cosines
    assert (back.p, back.q) == (q, p)
    assert (back.theta, back.theta_back) == (s.theta_back, s.theta)
    assert len(svd_calls) == (1 if p and q else 0)


def test_memo_slot_frees_both_orders(rng):
    """Replacing the memo slot frees the spectra of both orders of its
    pair with the cyclic collector off: they form no reference cycle."""
    V, W = random_pair(rng, 5, 2, 3, Field.REAL)
    gc.disable()
    try:
        refs = [weakref.ref(pair_spectrum(V, W)), weakref.ref(pair_spectrum(W, V))]
        assert [r() is None for r in refs] == [False, False]
        pair_spectrum(*random_pair(rng, 5, 1, 1, Field.REAL))  # replaces the memo slot
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_alternating_orders_keep_both_frames(svd_calls, rng, field):
    """Intersections that alternate between the orders of one pair take
    one values SVD and one frame per order, however often they repeat."""
    V, W = _sharing_pair(rng, 6, 3, 4, 2, field)
    svd_calls.clear()
    for _ in range(3):
        assert intersect(V, W).dim == intersect(W, V).dim == 2
    assert svd_calls.vectors == [False, True, True]


def _spectrum_routes(rng, field):
    """(route, spectrum): a fresh spectrum, a memo hit, the reversed
    order, and a pair whose top singular value is above 1, so that the
    clamp runs."""
    V, W = random_pair(rng, 5, 2, 3, field)
    fresh = pair_spectrum(V, W)
    yield "fresh", fresh
    hit = pair_spectrum(V, W)
    assert hit is fresh
    yield "memo hit", hit
    yield "reversed", pair_spectrum(W, V)
    # Unit columns lengthened by one ulp: stored as the library's own
    # bases are, their cross-Gram's top singular value is above 1.
    basis = haar_subspace(rng, 4, 2, field).basis * (1.0 + 2.0**-52)
    U, X = Subspace._trusted(4, field, basis), Subspace._trusted(4, field, basis)
    assert np.linalg.svd(basis.conj().T @ basis, compute_uv=False)[0] > 1.0
    clamped = pair_spectrum(U, X)
    assert clamped.cosines[0] == 1.0
    yield "clamp", clamped


def test_spectrum_arrays_are_read_only(rng):
    for field in BOTH_FIELDS:
        for route, s in _spectrum_routes(rng, field):
            for name in ("cosines", "sines", "angles"):
                arr = getattr(s, name)
                assert not arr.flags.writeable, (field, route, name)
                with pytest.raises(ValueError):
                    arr[0] = 0.5


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_shared_directions_have_exactly_zero_angles(rng, field):
    """Two 3-planes in 8 dimensions sharing a 2-plane: the shared
    directions' cosines sit an ulp or two below 1, and their angles are
    exact zeros in either argument order, whatever the spanning bases."""
    n, shared = 8, 2
    for _ in range(20):
        frame = np.linalg.qr(gaussian_matrix(rng, n, shared + 2, field))[0]
        mix_v, mix_w = gaussian_matrix(rng, 3, 3, field), gaussian_matrix(rng, 3, 3, field)
        V = from_spanning(list((frame[:, [0, 1, 2]] @ mix_v).T), field)
        W = from_spanning(list((frame[:, [0, 1, 3]] @ mix_w).T), field)
        for a, b in ((V, W), (W, V)):
            angles = principal_angles(a, b)
            assert list(angles[:shared]) == [0.0, 0.0]
            assert angles[shared] == pytest.approx(np.pi / 2, abs=1e-7)


def test_memo_keeps_no_pair_alive(rng):
    """The remembered spectrum, before and after its principal frame is
    built, holds no reference to either subspace of its pair."""
    for build_frame in (False, True):
        V, W = random_pair(rng, 4, 2, 2, Field.REAL)
        pair_spectrum(V, W)
        if build_frame:
            principal_decomposition(V, W)
            assert "_uvh" in pair_spectrum(V, W).__dict__
        refs = [weakref.ref(V), weakref.ref(W)]
        del V, W
        gc.collect()
        assert [r() for r in refs] == [None, None]


# --- The principal frame ------------------------------------------------------
#
# Test-local copies of principal_decomposition and intersect as they were
# before both read the pair's principal frame: each took its own SVD of
# the cross-Gram W* V, intersect a reduced one.  intersect's copy keeps a
# candidate direction when the 2-norm of its residual from W, its
# principal sine, is at most COMPARE_TOL.


def _old_principal_decomposition(V, W):
    U, _, Vh = np.linalg.svd(W.basis.conj().T @ V.basis, full_matrices=True)
    return PrincipalDecomposition(pair_spectrum(V, W).angles, V.basis @ Vh.conj().T, W.basis @ U)


def _old_intersect(V, W):
    if V.is_zero or W.is_zero:
        return zero_subspace(V.ambient_dim, V.field)
    _, sigma, Vh = np.linalg.svd(W.basis.conj().T @ V.basis, full_matrices=False)
    common = V.basis @ Vh.conj().T[:, sigma >= 1.0 - COMPARE_TOL]
    sines = np.linalg.norm(common - W.basis @ (W.basis.conj().T @ common), axis=0)
    return Subspace._trusted(V.ambient_dim, V.field, common[:, sines <= COMPARE_TOL])


def _sharing_pair(rng, n, p, q, k, field):
    """Spanning lists of a p- and a q-dimensional subspace that share k
    directions of a Haar frame and are generic otherwise, each list mixed."""
    F = haar_subspace(rng, n, n, field).basis
    left = F[:, :p] @ gaussian_matrix(rng, p, p, field)
    shared_and_rest = np.hstack([F[:, :k], gaussian_matrix(rng, n, q - k, field)])
    right = shared_and_rest @ gaussian_matrix(rng, q, q, field)
    return from_basis_matrix(left, field), from_basis_matrix(right, field)


def _frame_corpus(rng, field):
    """Generic, intersecting, nested, equal and re-spanned pairs in R^6 or C^6."""
    pairs = _corpus(rng, field)
    for p, q, k in ((2, 2, 1), (3, 3, 2), (2, 4, 1), (4, 2, 2), (3, 5, 2), (2, 4, 2), (3, 3, 3)):
        pairs.append(_sharing_pair(rng, 6, p, q, k, field))
    return pairs


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_one_pair_takes_one_values_svd_and_one_frame(svd_calls, rng, field):
    """Partial orthogonality, the principal bases and the intersection of
    one pair read one spectrum and one principal frame; the reverse
    order's spectrum builds its own frame."""
    V, W = _sharing_pair(rng, 6, 3, 4, 2, field)
    svd_calls.clear()
    is_partially_orthogonal(V, W)
    principal_decomposition(V, W)
    assert intersect(V, W).dim == pair_spectrum(V, W).shared == 2
    assert svd_calls.vectors == [False, True]
    assert svd_calls == [(4, 3), (4, 3)]
    principal_decomposition(W, V)
    assert svd_calls.vectors == [False, True, True]
    assert svd_calls[-1] == (3, 4)


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_generic_intersection_takes_no_frame(svd_calls, rng, field):
    """Nothing shared: intersect reads the cosines only, and grassmann_angle
    then reuses the same spectrum."""
    V, W = random_pair(rng, 6, 2, 3, field)
    svd_calls.clear()
    assert intersect(V, W).is_zero
    grassmann_angle(V, W)
    assert svd_calls.vectors == [False]


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_frame_routes_match_the_old_svds(rng, field):
    """principal_decomposition keeps the old bits; intersect keeps them
    for equal dimensions and the span (and dimension) for unequal ones,
    where the full and reduced SVDs of a non-square W* V may differ in the
    last bits of Vh."""
    unequal_shared = 0
    for V, W in _frame_corpus(rng, field):
        for a, b in ((V, W), (W, V)):
            _flush(rng, field)
            if not (a.is_zero or b.is_zero):
                new, old = principal_decomposition(a, b), _old_principal_decomposition(a, b)
                assert all(map(np.array_equal, dataclasses.astuple(new), dataclasses.astuple(old)))
            new, old = intersect(a, b), _old_intersect(a, b)
            if a.dim == b.dim:
                assert np.array_equal(new.basis, old.basis)
            else:
                assert new.dim == old.dim and spans_equal(new, old)
                unequal_shared += not new.is_zero
    assert unequal_shared >= 10


@pytest.mark.parametrize("field", BOTH_FIELDS)
@pytest.mark.parametrize("n, p", [(2, 1), (4, 2), (6, 3), (8, 8)])
def test_equal_dimensions_exactly_symmetric(rng, field, n, p):
    for _ in range(5):
        V, W = random_pair(rng, n, p, p, field)
        assert grassmann_angle(V, W) == grassmann_angle(W, V)
        assert fubini_study(V, W) == fubini_study(W, V)


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_equal_dimensions_agree_when_the_memo_is_evicted(rng, field):
    """A fresh spectrum of (W, V) decomposes V* W, not W* V, so on equal
    dimensions the two orders may differ in the last bits once the memo
    no longer holds the pair; they still agree at the cosine level.  The
    complementary cosine, a product of sines, is held to its first-order
    conditioning: each sine moves by the cosine's error over the sine."""
    for _ in range(300):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n + 1))
        V, W = random_pair(rng, n, p, p, field)
        sine = float(pair_spectrum(V, W).sines.min())
        for route in (fubini_study, principal_angles, complementary_angle):
            forward = np.cos(route(V, W))
            _flush(rng, field)
            backward = np.cos(route(W, V))
            _flush(rng, field)
            bound = 1e-14
            if route is complementary_angle and sine:
                bound *= max(1.0, forward / sine**2)
            assert np.max(np.abs(forward - backward)) <= bound


@pytest.mark.parametrize("field", BOTH_FIELDS)
@pytest.mark.parametrize("n, p, q", [(5, 1, 3), (5, 3, 1), (6, 2, 4), (6, 4, 0), (6, 0, 2), (8, 5, 2)])
def test_report_matches_per_function_calls(rng, field, n, p, q):
    """Unequal dimensions always decompose the same tall cross-Gram, so the
    values agree to the bit even when the remembered pair is evicted
    between calls."""
    V, W = random_pair(rng, n, p, q, field)
    report = angle_report(V, W)
    singles = []
    for fn in (grassmann_angle, complementary_angle, min_symmetrized_angle,
               max_symmetrized_angle, projection_factor):
        _flush(rng, field)
        singles.append(fn(V, W))
    assert singles == [
        report.theta,
        report.theta_perp,
        report.theta_min_sym,
        report.theta_max_sym,
        report.projection_factor,
    ]
    _flush(rng, field)
    assert sorted([report.theta, grassmann_angle(W, V)]) == [report.theta_min_sym, report.theta_max_sym]


# --- The angle family as properties of the spectrum --------------------------
#
# The reference functions below are the reductions the library applied
# before the family moved onto PairSpectrum, kept verbatim so the
# properties and the functions built on them can be held to them bit for bit.


def _reference_theta(V, W):
    if V.is_zero:
        return 0.0
    if V.dim > W.dim:
        return HALF_PI
    return angle_from_cosine(clamped_products(pair_spectrum(V, W).cosines))


def _reference_theta_perp(V, W):
    return angle_from_cosine(clamped_products(pair_spectrum(V, W).sines))


def _reference_angular_range(V, W):
    angles = principal_angles(V, W)
    theta_min = float(angles[0])
    theta_max = float(angles[-1]) if V.dim <= W.dim else HALF_PI
    return AngularRange(theta_min=theta_min, theta_max=theta_max, delta=theta_max - theta_min)


def _reference_profile(V, W):
    s = pair_spectrum(V, W)
    sigma, sines = s.cosines, s.sines
    cos_theta_perp = clamped_products(sines)
    if s.p <= s.q:
        cos_theta = clamped_products(sigma)
        cos_delta = float(sigma[-1] * sigma[0] + sines[-1] * sines[0])
    else:
        cos_theta = 0.0
        cos_delta = float(sines[0])
    return sigma, sines, cos_theta, cos_theta_perp, min(cos_delta, 1.0)


def _reference_feasibility(V, W):
    theta = _reference_theta(V, W)
    theta_perp = _reference_theta_perp(V, W)
    p = V.dim
    violations = []
    cases = set()
    cos_sq_sum = math.cos(theta) ** 2 + math.cos(theta_perp) ** 2
    angle_sum = theta + theta_perp
    if cos_sq_sum > 1.0 + SLACK_TOL:
        violations.append("cos_sq_sum_above_1")
    if cos_sq_sum < -SLACK_TOL:
        violations.append("cos_sq_sum_below_0")
    if angle_sum < HALF_PI - ANGLE_TOL:
        violations.append("angle_sum_below_half_pi")
    if angle_sum > math.pi + ANGLE_TOL:
        violations.append("angle_sum_above_pi")
    delta = None
    curve_residual = None
    cos_theta = math.cos(theta)
    cos_theta_perp = math.cos(theta_perp)
    cos_delta = None
    if not W.is_zero:
        delta = _reference_angular_range(V, W).delta
        sigma, sines, cos_theta, cos_theta_perp, cos_delta = _reference_profile(V, W)
        cos_sum = cos_theta + cos_theta_perp
        if p == 1:
            if abs(cos_theta_perp - float(sines[0])) > SLACK_TOL:
                violations.append("dim1_complement_not_exact")
            if cos_sum < 1.0 - SLACK_TOL:
                violations.append("dim1_cos_sum_below_1")
        elif p == 2:
            if abs(cos_sum - cos_delta) > SLACK_TOL:
                violations.append("dim2_cos_sum_not_equal_spread")
            if angle_sum < HALF_PI + delta - ANGLE_TOL:
                violations.append("dim2_angle_sum_below_bound")
        else:
            if cos_sum > cos_delta + SLACK_TOL:
                violations.append("cos_sum_above_spread")
            if angle_sum < HALF_PI + delta - ANGLE_TOL:
                violations.append("angle_sum_below_bound")
            if abs(cos_sum - cos_delta) <= COMPARE_TOL:
                m = sigma.size
                near_zero = sigma >= 1.0 - COMPARE_TOL
                near_right = sigma <= COMPARE_TOL
                if np.count_nonzero(near_right) >= m - 1:
                    cases.add("A")
                if np.count_nonzero(near_zero) >= p - 1:
                    cases.add("B")
                if near_zero[0] and (V.dim > W.dim or near_right[-1]):
                    cases.add("C")
        if delta <= COMPARE_TOL:
            curve_residual = abs(cos_theta ** (2.0 / p) + cos_theta_perp ** (2.0 / p) - 1.0)
    return FeasibilityReport(
        dim=p,
        theta=theta,
        theta_perp=theta_perp,
        delta=delta,
        cos_theta=cos_theta,
        cos_theta_perp=cos_theta_perp,
        cos_delta=cos_delta,
        cos_sq_sum=cos_sq_sum,
        angle_sum=angle_sum,
        violations=tuple(violations),
        equality_cases=frozenset(cases),
        equal_angle_curve_residual=curve_residual,
    )


def _reference_obstruction(V, W):
    if V.dim <= 2 or W.is_zero:
        return ComplexifiabilityVerdict.INCONCLUSIVE
    _, _, cos_theta, cos_theta_perp, cos_delta = _reference_profile(V, W)
    lhs = math.sqrt(cos_theta) + math.sqrt(cos_theta_perp)
    if V.dim == 4:
        if abs(lhs - cos_delta) > RESIDUAL_TOL:
            return ComplexifiabilityVerdict.OBSTRUCTED
    else:
        if lhs > cos_delta + RESIDUAL_TOL:
            return ComplexifiabilityVerdict.OBSTRUCTED
    return ComplexifiabilityVerdict.INCONCLUSIVE


def _respan(rng, V, scale=0.0):
    """V spanned by mixed vectors, each moved by ``scale`` times a random
    vector (0: the same subspace, otherwise a near-coincident one)."""
    n, p, field = V.ambient_dim, V.dim, V.field
    mixed = V.basis @ (np.eye(p) + 0.5 * gaussian_matrix(rng, p, p, field))
    mixed = mixed + scale * gaussian_matrix(rng, n, p, field)
    return from_spanning(list(mixed.T), field, ambient_dim=n)


def _corpus(rng, field, n=6):
    """Seeded pairs of every shape the family distinguishes: p < q, p = q,
    p > q, V = {0}, W = {0}, both {0}, nested either way, and re-spanned
    (exactly or nearly) coincident pairs."""
    pairs = []
    for _ in range(3):
        for p, q in ((2, 4), (3, 3), (4, 2), (0, 2), (3, 0), (0, 0)):
            pairs.append(random_pair(rng, n, p, q, field))
        W = haar_subspace(rng, n, 4, field)
        inside = _respan(rng, Subspace(n, field, W.basis[:, :2]))
        pairs += [(inside, W), (W, inside)]
        V = haar_subspace(rng, n, 3, field)
        pairs += [(V, _respan(rng, V)), (V, _respan(rng, V, 1e-9)), (_respan(rng, V, 1e-6), V)]
    return pairs


def _even_real_corpus(rng):
    """Even-dimensional real pairs, for the complexifiability criterion:
    generic, nested, re-spanned and realified complex ones."""
    pairs = []
    for _ in range(3):
        for p, q in ((4, 6), (4, 4), (6, 4), (6, 6), (4, 0), (2, 4)):
            pairs.append(random_pair(rng, 8, p, q, Field.REAL))
        W = haar_subspace(rng, 8, 6, Field.REAL)
        inside = _respan(rng, Subspace(8, Field.REAL, W.basis[:, :4]))
        V = haar_subspace(rng, 8, 4, Field.REAL)
        pairs += [(inside, W), (W, inside), (V, _respan(rng, V, 1e-9))]
        for p, q in ((2, 2), (2, 3), (3, 2)):
            pairs.append(tuple(realify(X) for X in random_pair(rng, 4, p, q, Field.COMPLEX)))
    return pairs


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_family_properties_match_reference_reductions(rng, field):
    for V, W in _corpus(rng, field):
        s = pair_spectrum(V, W)
        assert s.cos_theta == (0.0 if V.dim > W.dim else clamped_products(s.cosines))
        assert s.theta == _reference_theta(V, W)
        assert s.theta_back == _reference_theta(W, V)
        assert _bits(pair_spectrum(W, V).theta) == _bits(s.theta_back)
        assert s.cos_theta_perp == clamped_products(s.sines)
        assert s.theta_perp == _reference_theta_perp(V, W)
        forward, backward = _reference_theta(V, W), _reference_theta(W, V)
        c = math.cos(forward)
        assert angle_report(V, W) == AngleReport(
            theta=forward,
            theta_perp=_reference_theta_perp(V, W),
            theta_min_sym=min(forward, backward),
            theta_max_sym=max(forward, backward),
            projection_factor=c * c if field is Field.COMPLEX else c,
        )
        if not (V.is_zero or W.is_zero):
            assert s.theta_max == _reference_angular_range(V, W).theta_max
            assert s.cos_spread == _reference_profile(V, W)[4]


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_spread_and_feasibility_match_reference(rng, field):
    """Bit for bit, except one documented value: for W = {0} the reported
    cos_theta is the spectrum's 0.0, not cos(pi/2) = 6.1e-17."""
    for V, W in _corpus(rng, field):
        if V.is_zero:
            continue
        expected = _reference_feasibility(V, W)
        if W.is_zero:
            assert expected.cos_theta == math.cos(HALF_PI)
            expected = dataclasses.replace(expected, cos_theta=0.0)
        else:
            assert angular_range(V, W) == _reference_angular_range(V, W)
        assert theta_pair_feasibility(V, W) == expected


def test_obstruction_matches_reference(rng):
    verdicts = set()
    for V, W in _even_real_corpus(rng):
        verdict = complexifiability_obstruction(V, W)
        assert verdict is _reference_obstruction(V, W)
        verdicts.add(verdict)
    assert verdicts == set(ComplexifiabilityVerdict)


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_one_pair_takes_at_most_one_svd(svd_calls, rng, field):
    """Every angle-family function on one pair, both ways round, reads one
    spectrum: one SVD, none when either side is {0}."""
    for V, W in _corpus(rng, field):
        _flush(rng, field)
        svd_calls.clear()
        angle_report(V, W)
        for a, b in ((V, W), (W, V)):
            grassmann_angle(a, b)
            complementary_angle(a, b)
            projection_factor(a, b)
            is_partially_orthogonal(a, b)
            if not a.is_zero:
                theta_pair_feasibility(a, b)
                if not b.is_zero:
                    angular_range(a, b)
        assert len(svd_calls) == (0 if V.is_zero or W.is_zero else 1)


def test_verify_all_svd_count_stays_down(svd_calls):
    """A guard on the SVDs the verify suites take: a per-site SVD of a
    pair's cross-Gram coming back (each intersect or principal_decomposition
    taking its own, as before the principal frame: 368 here), the geodesic
    checks evicting their pair from the memo between points (353), or a
    trial asking the memo again for a spectrum, complement or frame it
    already holds (327), or partition_angle_product taking again the
    spectrum its disjointness test took (316), fails it."""
    for seed in (0, 1):
        run_suites("all", seed, 1, 8)
    assert len(svd_calls) <= 310


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_direct_sum_angle_decomposes_nothing_twice(svd_calls, rng, field):
    """The denominator is read off the spectrum the disjointness test took,
    not taken again after the other pairs have evicted it, in
    direct_sum_angle and in partition_angle_product on two parts."""
    checked = 0
    for _ in range(10):
        V1, V2, W = (haar_subspace(rng, 6, p, field) for p in (1, 2, 4))
        V = sum_subspace(V1, V2)
        for identity in (lambda: direct_sum_angle(V1, V2, W), lambda: partition_angle_product(V, [V1, V2], W)):
            svd_calls.clear()
            checked += identity().rhs != 0.0
            assert len(set(svd_calls.keys)) == len(svd_calls.keys)
    assert checked == 20


def test_verify_all_repeats_few_svds(svd_calls):
    """SVDs of bytes already decomposed in the same verify-all op: 277 over
    seeds 42..57 (17.3 per op; 302 when partition_angle_product took its
    denominator's spectrum again, 363 when trials asked the memo again for
    the spectra, complements and frames they held).  Where the rest come
    from, per op:

    - 11.8 from checking two public identities, direct_sum_angle and
      partition_angle_product, on the same (V1, V2, W): each builds its own
      sum, projections and their spectra;
    - 1.75 from the input checks inside characterize_principal_partition
      and is_principal_partition;
    - 2.9 from suites seeded alike, which draw the same first matrices;
    - 0.6 from the empty (0, 1) cross-Gram of both geodesic sides of a
      line, 0.2 from 1 x 1 real cross-Grams, equal to their transposes, and
      0.06 from a line U drawn inside the line V with U's basis equal to V's."""
    repeats = 0
    for seed in range(42, 58):
        svd_calls.clear()
        run_suites("all", seed, 1, 8)
        repeats += len(svd_calls.keys) - len(set(svd_calls.keys))
    assert repeats <= 277


# --- The one-pass reduction against the numpy one ----------------------------
#
# The reference below reduces the cosines with numpy where the spectrum
# keeps numpy's bits (products and sines), and takes each principal angle
# as math.acos of its clamped cosine, 0 in the zero-angle band, the rule
# of every other angle; every member must keep their bits.


def _numpy_family(cosines, p, q):
    c = cosines
    sines = np.sqrt(np.minimum((1.0 - c) * (1.0 + c), 1.0))
    sines[c >= ZERO_ANGLE_COS_BAND] = 0.0
    angles = np.array([0.0 if x >= ZERO_ANGLE_COS_BAND else math.acos(min(max(x, 0.0), 1.0)) for x in c.tolist()])
    cos_theta = 0.0 if p > q else clamped_products(c)
    family = {
        "sines": sines,
        "angles": angles,
        "cos_theta": cos_theta,
        "theta": angle_from_cosine(cos_theta),
        "theta_back": angle_from_cosine(0.0 if q > p else clamped_products(c)),
        "cos_theta_perp": clamped_products(sines),
        "theta_perp": angle_from_cosine(clamped_products(sines)),
    }
    if c.size:
        cos_max, sin_max = (0.0, 1.0) if p > q else (c[-1], sines[-1])
        family["theta_max"] = HALF_PI if p > q else float(angles[-1])
        family["cos_spread"] = min(float(cos_max * c[0] + sin_max * sines[0]), 1.0)
    return family


def _bits(x):
    """Exact identity of a float (0.0 and -0.0 differ) or of an array's
    dtype, shape and bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    assert type(x) is float
    return x.hex()


def _coordinate_pair(n, left, right, field):
    """Spans of coordinate vectors: their cross-Gram is exact, so a shared
    coordinate gives a cosine of exactly 1 and any other one exactly 0."""
    eye = np.eye(n)
    return tuple(from_basis_matrix(eye[:, list(cols)].reshape(n, len(cols)), field) for cols in (left, right))


def _reduction_corpus(rng, field):
    pairs = _corpus(rng, field)
    for p, q in ((128, 128), (100, 128), (128, 97), (1, 128), (128, 0)):
        pairs.append(random_pair(rng, 256, p, q, field))
    W = haar_subspace(rng, 256, 128, field)
    pairs += [(_respan(rng, W), W), (W, _respan(rng, W, 1e-12))]
    pairs += [
        _coordinate_pair(5, (0, 1), (0, 2, 3), field),
        _coordinate_pair(5, (0, 1, 2), (2, 0), field),
        _coordinate_pair(4, (0, 1, 2, 3), (3, 2, 1, 0), field),
        _coordinate_pair(4, (), (), field),
    ]
    return pairs


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_one_pass_reduction_keeps_the_numpy_bits(rng, field):
    members = ("sines", "angles", "cos_theta", "theta", "theta_back", "cos_theta_perp", "theta_perp", "theta_max",
               "cos_spread")
    seen_one = seen_band = False
    for V, W in _reduction_corpus(rng, field):
        forward = pair_spectrum(V, W)
        for s in (forward, pair_spectrum(W, V)):
            want = _numpy_family(s.cosines, s.p, s.q)
            for name in members:
                if name in want:
                    assert _bits(getattr(s, name)) == _bits(want[name]), (V.dim, W.dim, name)
        c = forward.cosines
        seen_one |= bool(np.any(c == 1.0))
        seen_band |= bool(np.any((c >= ZERO_ANGLE_COS_BAND) & (c < 1.0)))
    assert seen_one and seen_band


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_reduction_shares_and_stays_read_only(rng, field):
    for V, W in _reduction_corpus(rng, field):
        s = pair_spectrum(V, W)
        back = pair_spectrum(W, V)
        assert back.cosines is s.cosines
        assert (back.p, back.q) == (s.q, s.p)
        assert _bits(back.theta) == _bits(s.theta_back) and _bits(back.theta_back) == _bits(s.theta)
        for name in ("cos_theta_perp", "theta_perp", "sines", "angles"):
            assert _bits(getattr(back, name)) == _bits(getattr(s, name))
        for arr in (s.cosines, s.sines, s.angles, back.sines, back.angles):
            assert not arr.flags.writeable
        for spectrum in (s, back):
            with pytest.raises(dataclasses.FrozenInstanceError):
                spectrum.theta = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                del spectrum.cosines


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_cosines_are_the_clamped_singular_values(rng, field):
    """The cosines keep the bits of np.minimum(singular values, 1) of the
    conjugate-transposed cross-Gram, with the clamp skipped whenever the
    top value is at most 1; the corpus has tops above 1."""
    above = 0
    for V, W in _reduction_corpus(rng, field):
        if V.is_zero or W.is_zero:
            continue
        A, B = (V.basis, W.basis) if V.dim <= W.dim else (W.basis, V.basis)
        raw = np.linalg.svd(B.conj().T @ A, compute_uv=False)
        above += raw[0] > 1.0
        assert _bits(pair_spectrum(V, W).cosines) == _bits(np.minimum(raw, 1.0))
    assert above


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_library_built_report_is_the_constructors(rng, field):
    """``angle_report`` fills its record without running the constructor:
    it is equal to the one the constructor builds from the same values,
    with the same hash and repr, and just as frozen."""
    for V, W in _reduction_corpus(rng, field):
        built = angle_report(V, W)
        public = AngleReport(**{f.name: getattr(built, f.name) for f in dataclasses.fields(AngleReport)})
        assert type(built) is AngleReport
        assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.theta = 0.0


@pytest.mark.parametrize("field", BOTH_FIELDS)
@pytest.mark.parametrize("p, q", [(0, 3), (3, 0), (0, 0)])
def test_empty_spectrum_products_are_floats(rng, field, p, q):
    """An empty product is the float 1.0, as numpy's was, not the int 1."""
    V, W = random_pair(rng, 5, p, q, field)
    s = pair_spectrum(V, W)
    assert s.cosines.size == 0
    for spectrum in (s, pair_spectrum(W, V)):
        assert type(spectrum.cos_theta) is float
        assert type(spectrum.cos_theta_perp) is float
        assert spectrum.cos_theta_perp == 1.0
    assert s.cos_theta == (0.0 if p > q else 1.0)


def _last_angle_mismatches(pairs):
    """How many pairs break cos Theta = product of the principal cosines at
    the last bit: for V no larger than W with at most one cosine off 1, the
    directed angle is the last principal angle exactly, and theta_max too."""
    misses = 0
    for V, W in pairs:
        theta = grassmann_angle(V, W)
        misses += _bits(float(principal_angles(V, W)[-1])) != _bits(theta)
        misses += _bits(pair_spectrum(V, W).theta_max) != _bits(theta)
    return misses


@pytest.mark.parametrize("field", BOTH_FIELDS)
def test_last_principal_angle_is_the_angle_when_all_but_one_direction_is_shared(field):
    """V = span(e1, e2) against W = span(e1, cos t e2 + sin t e3)."""
    e1, e2, e3 = np.eye(3)

    def pairs():
        for t in np.linspace(0.01, 1.51, 2000):
            turned = math.cos(t) * e2 + math.sin(t) * e3
            yield from_basis_matrix(np.stack([e1, e2], 1), field), from_basis_matrix(np.stack([e1, turned], 1), field)

    assert _last_angle_mismatches(pairs()) == 0


def test_last_principal_angle_is_the_angle_of_a_line():
    """A Haar line against a Haar subspace of dimension 1..n, n in [2, 8],
    the fields alternating."""
    rng = np.random.default_rng(0)

    def pairs():
        for i in range(2000):
            field = BOTH_FIELDS[i % 2]
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, n + 1))
            yield haar_subspace(rng, n, 1, field), haar_subspace(rng, n, q, field)

    assert _last_angle_mismatches(pairs()) == 0
