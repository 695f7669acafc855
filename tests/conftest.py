import importlib
import math
import pkgutil

import numpy as np
import pytest

import spangle
from spangle import Field
from spangle.linalg import _svd
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


class _SvdCalls(list):
    """The shape of each call of the package's SVD entry; ``vectors``
    holds, call by call, whether it computed singular vectors."""

    def __init__(self):
        super().__init__()
        self.vectors = []

    def clear(self):
        super().clear()
        self.vectors.clear()


@pytest.fixture
def svd_calls(monkeypatch):
    """Count every call of ``linalg._svd``, the one SVD entry of the
    package, made while the test runs: each module holds the entry under
    its own name, so every module's reference is replaced."""
    calls = _SvdCalls()

    def counting_svd(M, full_matrices=True, compute_uv=True):
        calls.append(np.shape(M))
        calls.vectors.append(compute_uv)
        return _svd(M, full_matrices=full_matrices, compute_uv=compute_uv)

    for info in pkgutil.iter_modules(spangle.__path__):
        module = importlib.import_module(f"spangle.{info.name}")
        if vars(module).get("_svd") is _svd:
            monkeypatch.setattr(module, "_svd", counting_svd)
    return calls


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: spec acceptance criteria")


def random_pair(rng, n, p, q, field):
    return haar_subspace(rng, n, p, field), haar_subspace(rng, n, q, field)
