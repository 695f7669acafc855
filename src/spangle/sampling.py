"""Seeded random generators for subspaces and transformations.

Subspaces are Haar-uniform: orthonormalized Gaussian matrices.  Every
function takes an explicit numpy Generator so harness runs are
reproducible and trials can be parallelized with independent streams.
"""

from __future__ import annotations

import numpy as np

from .linalg import Field, _qr
from .subspace import Subspace, _span, zero_subspace


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int, field: Field) -> np.ndarray:
    """A rows x cols matrix of standard normal entries; complex entries
    take their real parts, then their imaginary parts, from one draw."""
    if field is Field.COMPLEX:
        parts = rng.standard_normal((2, rows, cols))
        M = np.empty((rows, cols), dtype=np.complex128)
        M.real, M.imag = parts
        return M
    return rng.standard_normal((rows, cols))


def haar_subspace(rng: np.random.Generator, ambient_dim: int, dim: int, field: Field) -> Subspace:
    """Uniformly random dim-dimensional subspace of an ambient space."""
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"need 0 <= dim <= ambient_dim, got dim={dim}, ambient_dim={ambient_dim}")
    if dim == 0:
        return zero_subspace(ambient_dim, field)
    return _span(gaussian_matrix(rng, ambient_dim, dim, field), field)


def random_unitary(rng: np.random.Generator, n: int, field: Field) -> np.ndarray:
    """Haar-distributed orthogonal (real) or unitary (complex) matrix,
    via QR with the phase-of-R correction (R's diagonal is read off the
    factored matrix, so R itself is never built)."""
    Q, F = _qr(gaussian_matrix(rng, n, n, field))
    d = np.diagonal(F)
    phase = d / np.abs(d)
    return Q * phase

def random_vector(rng: np.random.Generator, n: int, field: Field) -> np.ndarray:
    return gaussian_matrix(rng, n, 1, field)[:, 0]
