import numpy as np
import pytest

from spangle import Field
from spangle.sampling import haar_subspace


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


BOTH_FIELDS = (Field.REAL, Field.COMPLEX)


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: spec acceptance criteria")


def random_pair(rng, n, p, q, field):
    return haar_subspace(rng, n, p, field), haar_subspace(rng, n, q, field)
