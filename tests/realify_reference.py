"""The column-by-column realification that ``spangle.subspace.realify``
fills by slicing, kept here as its reference and for tests that realify
single vectors."""

import numpy as np

from spangle.subspace import Subspace


def realify_vector(v: np.ndarray) -> np.ndarray:
    """Complex vector -> real vector of twice the length, interleaved.

    Layout is (re_1, im_1, re_2, im_2, ...), which keeps multiplication
    by i block-diagonal with 2x2 rotation blocks.
    """
    v = np.asarray(v, dtype=np.complex128)
    out = np.empty(2 * v.shape[0], dtype=np.float64)
    out[0::2] = v.real
    out[1::2] = v.imag
    return out


def realify_by_columns(V: Subspace) -> np.ndarray:
    """The real basis of a complex subspace: each basis vector b, then i*b."""
    cols = []
    for j in range(V.dim):
        b = V.basis[:, j]
        cols.append(realify_vector(b))
        cols.append(realify_vector(1j * b))
    return np.column_stack(cols) if cols else np.zeros((2 * V.ambient_dim, 0))
