import math

import numpy as np
import pytest

from spangle import Field
from spangle.sampling import haar_subspace


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


BOTH_FIELDS = (Field.REAL, Field.COMPLEX)


@pytest.fixture
def kahan_vectors():
    """The columns of a perturbed 60 x 60 Kahan matrix (theta = 1.2, column
    j scaled by 1 - 1e-3 j): every diagonal entry of its unpivoted R is far
    from zero, yet ``from_spanning`` ranks the list 59."""
    n, theta = 60, 1.2
    K = np.diag(np.sin(theta) ** np.arange(n)) @ (np.eye(n) - math.cos(theta) * np.triu(np.ones((n, n)), 1))
    K = K * (1 - 1e-3 * np.arange(n))
    return list(K.T)


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: spec acceptance criteria")


def random_pair(rng, n, p, q, field):
    return haar_subspace(rng, n, p, field), haar_subspace(rng, n, q, field)
