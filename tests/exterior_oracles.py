"""Slow reference routes for the products of ``spangle.exterior``, and
``wedge_vector``, which builds blades from arbitrary vectors.

The array kernels of ``wedge``, ``contract`` and ``_wedge_vector_coeffs``
are checked bit for bit against the scalar loops they replaced, kept here
with the scalar ``shuffle_sign``.  The contraction is also checked two
independent ways: straight from its adjoint identity, against every
coordinate blade, and by the explicit coordinate-decomposition expansion
of a decomposed blade.  All are exponential loops kept here, next to the
tests that use them.
"""

import itertools
from typing import Sequence

import numpy as np

from spangle.exterior import Multivector, _wedge_vector_coeffs, inner, scalar_multivector, wedge
from spangle.linalg import Field, as_field_array


def shuffle_sign_loop(mask_a: int, mask_b: int) -> int:
    """Sign of reordering the concatenation (A, B) of disjoint index sets
    into ascending order: parity of the number of pairs a > b, counted
    bit by bit of B."""
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        j = low.bit_length() - 1
        if (mask_a >> (j + 1)).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


def wedge_loop(a: Multivector, b: Multivector) -> np.ndarray:
    """The coefficients of a ^ b, one scalar product per disjoint pair of
    nonzero blades, added in i-major order."""
    out = np.zeros_like(a.coeffs)
    for i_mask in map(int, np.flatnonzero(a.coeffs)):
        ai = a.coeffs[i_mask]
        for j_mask in map(int, np.flatnonzero(b.coeffs)):
            if not i_mask & j_mask:
                out[i_mask | j_mask] += shuffle_sign_loop(i_mask, j_mask) * ai * b.coeffs[j_mask]
    return out


def contract_loop(nu: Multivector, omega: Multivector) -> np.ndarray:
    """The coefficients of the left contraction of omega by nu, one scalar
    product per pair of nonzero blades with the first inside the second,
    added in i-major order."""
    out = np.zeros_like(omega.coeffs)
    for i_mask in map(int, np.flatnonzero(nu.coeffs)):
        ci = np.conj(nu.coeffs[i_mask])
        for j_mask in map(int, np.flatnonzero(omega.coeffs)):
            if i_mask & j_mask == i_mask:
                rest = j_mask & ~i_mask
                out[rest] += shuffle_sign_loop(i_mask, rest) * ci * omega.coeffs[j_mask]
    return out


def wedge_vector_loop(coeffs: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The coefficients of (multivector ^ vector), one scatter per nonzero
    v[j], in order of j."""
    out = np.zeros_like(coeffs)
    masks = np.arange(1 << n, dtype=np.int64)
    for j in range(n):
        if v[j] == 0:
            continue
        src = masks[(masks >> j) & 1 == 0]
        sign = np.array([shuffle_sign_loop(int(m), 1 << j) for m in src], dtype=np.int64)
        out[src | (1 << j)] += coeffs[src] * sign * v[j]
    return out


def wedge_vector(x: Multivector, v) -> Multivector:
    """x ^ v for an ambient vector v, converted and checked like any
    caller's data (the package wedges only its own basis columns)."""
    v = as_field_array(v, x.field)
    if v.shape != (x.ambient_dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({x.ambient_dim},)")
    return Multivector(x.ambient_dim, x.field, _wedge_vector_coeffs(x.coeffs, v, x.ambient_dim))


def zero_multivector(n: int, field: Field) -> Multivector:
    return Multivector(n, field, np.zeros(1 << n, dtype=field.dtype))


def basis_blade(n: int, field: Field, mask: int, value=1.0) -> Multivector:
    coeffs = np.zeros(1 << n, dtype=field.dtype)
    coeffs[mask] = value
    return Multivector(n, field, coeffs)


def grades(mv: Multivector) -> list[int]:
    """Grades with a nonzero component: the popcounts of the masks of the
    nonzero coefficients."""
    return sorted({int(mask).bit_count() for mask in np.flatnonzero(mv.coeffs)})


def multi_index_complement(indices: Sequence[int], q: int) -> tuple[int, ...]:
    chosen = set(indices)
    return tuple(i for i in range(1, q + 1) if i not in chosen)


def epsilon_sign(indices: Sequence[int]) -> int:
    """Reordering sign of the coordinate decomposition: for a grade-p
    index tuple, (-1) ** (sum(indices) + p (p + 1) / 2)."""
    p = len(indices)
    return -1 if (sum(indices) + p * (p + 1) // 2) % 2 else 1


def coordinate_blade(
    factors: Sequence[np.ndarray],
    indices: Sequence[int],
    field: Field,
    ambient_dim: int | None = None,
) -> Multivector:
    """w_{i1} ^ ... ^ w_{ip} for 1-based indices into the factor list."""
    factors = [as_field_array(f, field) for f in factors]
    if factors:
        n = factors[0].shape[0]
    elif ambient_dim is not None:
        n = ambient_dim
    else:
        raise ValueError("ambient_dim is required when the factor list is empty")
    acc = scalar_multivector(n, field)
    for i in indices:
        acc = wedge_vector(acc, factors[i - 1])
    return acc


def contract_via_coordinate_expansion(
    nu: Multivector, factors: Sequence[np.ndarray]
) -> Multivector:
    """Contraction of a homogeneous element against a decomposed blade,
    via the explicit coordinate-decomposition expansion.  Independent of
    the bitmask production path."""
    nu_grades = grades(nu)
    if len(nu_grades) > 1:
        raise ValueError("expansion requires a homogeneous left argument")
    p = nu_grades[0] if nu_grades else 0
    q = len(factors)
    field = nu.field
    out = zero_multivector(nu.ambient_dim, field)
    if p > q:
        return out
    for combo in itertools.combinations(range(1, q + 1), p):
        omega_i = coordinate_blade(factors, combo, field)
        coeff = inner(nu, omega_i) * epsilon_sign(combo)
        if coeff == 0:
            continue
        omega_ic = coordinate_blade(factors, multi_index_complement(combo, q), field)
        out = Multivector(out.ambient_dim, field, out.coeffs + omega_ic.coeffs * coeff)
    return out


def contract_via_adjoint(nu: Multivector, omega: Multivector) -> Multivector:
    """Contraction computed straight from the adjoint identity by testing
    against every coordinate blade."""
    n = nu.ambient_dim
    out = np.zeros_like(omega.coeffs)
    for mask in range(1 << n):
        out[mask] = inner(wedge(nu, basis_blade(n, nu.field, mask)), omega)
    return Multivector(n, nu.field, out)
