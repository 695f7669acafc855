import gc
import weakref

import numpy as np
import pytest

from spangle import Field
from spangle.angles import (
    angle_report,
    complementary_angle,
    grassmann_angle,
    max_symmetrized_angle,
    min_symmetrized_angle,
    projection_factor,
)
from spangle.metrics import fubini_study
from spangle.principal import pair_spectrum, principal_angles
from spangle.sampling import gaussian_matrix, haar_subspace
from spangle.subspace import Subspace, from_spanning

BOTH_FIELDS = (Field.REAL, Field.COMPLEX)


def random_pair(rng, n, p, q, field):
    return haar_subspace(rng, n, p, field), haar_subspace(rng, n, q, field)


@pytest.fixture
def svd_calls(monkeypatch):
    """Count every call of numpy.linalg.svd made while the test runs."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


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


def test_spectrum_arrays_are_read_only(rng):
    s = pair_spectrum(*random_pair(rng, 4, 2, 2, Field.REAL))
    for arr in (s.cosines, s.sines, s.angles):
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
    V, W = random_pair(rng, 4, 2, 2, Field.REAL)
    pair_spectrum(V, W)
    ref = weakref.ref(V)
    del V
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("field", BOTH_FIELDS)
@pytest.mark.parametrize("n, p", [(2, 1), (4, 2), (6, 3), (8, 8)])
def test_equal_dimensions_exactly_symmetric(rng, field, n, p):
    for _ in range(5):
        V, W = random_pair(rng, n, p, p, field)
        assert grassmann_angle(V, W) == grassmann_angle(W, V)
        assert fubini_study(V, W) == fubini_study(W, V)


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
