"""Dense exterior algebra over a small ambient space: the verification oracle.

Multivector coefficients sit in an array of length 2^n indexed by bit
masks of {0, ..., n-1}; the coordinate blades of an orthonormal ambient
basis are an orthonormal basis of the algebra, so norms and inner
products are plain vector operations on the coefficients.  Signs come
from transposition parity computed off popcounts.

Everything here is deliberately exponential and capped (n <= 12 real,
n <= 10 complex): it exists to cross-check the production angle paths at
desk scale, not to compute at production scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import Field, arccos_clamped, as_field_array
from .subspace import Subspace, _check_pair

REAL_AMBIENT_CAP = 12
COMPLEX_AMBIENT_CAP = 10


def ambient_cap(field: Field) -> int:
    return COMPLEX_AMBIENT_CAP if field is Field.COMPLEX else REAL_AMBIENT_CAP


def _check_cap(n: int, field: Field) -> None:
    cap = ambient_cap(field)
    if n > cap:
        raise ValueError(
            f"ambient dimension {n} exceeds the {field.value} exterior-algebra cap of {cap}"
        )


def shuffle_sign(mask_a: int, mask_b: int) -> int:
    """Sign of reordering the concatenation (A, B) of disjoint index sets
    into ascending order: parity of the number of pairs a > b."""
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        j = low.bit_length() - 1
        if (mask_a >> (j + 1)).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


@lru_cache(maxsize=None)
def _right_wedge_tables(n: int):
    """Per-index scatter tables for blade := blade ^ e_j.

    For each j: (src, dst, sign) with dst = src | bit_j over all masks src
    not containing j, and sign the parity of the bits of src above j.
    """
    all_masks = np.arange(1 << n, dtype=np.int64)
    tables = []
    for j in range(n):
        src = all_masks[(all_masks >> j) & 1 == 0]
        dst = src | (1 << j)
        above = np.bitwise_count((src >> (j + 1)).astype(np.uint64)).astype(np.int64)
        sign = 1 - 2 * (above & 1)
        tables.append((src, dst, sign))
    return tables


@dataclass(frozen=True, eq=False)
class Multivector:
    """A graded element of the exterior algebra over the ambient space."""

    ambient_dim: int
    field: Field
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        _check_cap(self.ambient_dim, self.field)
        coeffs = as_field_array(self.coeffs, self.field)
        if coeffs.shape != (1 << self.ambient_dim,):
            raise ValueError(
                f"coefficient array must have length {1 << self.ambient_dim}, got {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _trusted(cls, ambient_dim: int, field: Field, coeffs: np.ndarray) -> Multivector:
        """A multivector from coefficients the library has just computed
        from checked operands, stored without conversion or checks:
        ``coeffs`` must be a fresh array of the field's dtype and length
        2^ambient_dim, within the cap.  The multivector takes ownership."""
        coeffs.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def scale(self, c) -> "Multivector":
        return Multivector(self.ambient_dim, self.field, self.coeffs * c)


def scalar_multivector(n: int, field: Field) -> Multivector:
    _check_cap(n, field)
    coeffs = np.zeros(1 << n, dtype=field.dtype)
    coeffs[0] = 1.0
    return Multivector._trusted(n, field, coeffs)


def _wedge_vector_coeffs(coeffs: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of (multivector ^ vector)."""
    out = np.zeros_like(coeffs)
    for j in range(n):
        vj = v[j]
        if vj == 0:
            continue
        src, dst, sign = _right_wedge_tables(n)[j]
        out[dst] += coeffs[src] * sign * vj
    return out


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product, bilinear and graded-anticommutative."""
    _check_pair(a, b)
    out = np.zeros_like(a.coeffs)
    nz_a = np.nonzero(a.coeffs)[0]
    nz_b = np.nonzero(b.coeffs)[0]
    for i_mask in nz_a:
        ai = a.coeffs[i_mask]
        i_mask = int(i_mask)
        for j_mask in nz_b:
            j_mask = int(j_mask)
            if i_mask & j_mask:
                continue
            out[i_mask | j_mask] += shuffle_sign(i_mask, j_mask) * ai * b.coeffs[j_mask]
    return Multivector._trusted(a.ambient_dim, a.field, out)


def inner(a: Multivector, b: Multivector):
    """Inner product, conjugate-linear in the left slot; distinct grades
    are orthogonal because coordinate blades are an orthonormal basis."""
    _check_pair(a, b)
    value = np.vdot(a.coeffs, b.coeffs)
    return complex(value) if a.field is Field.COMPLEX else float(value.real if np.iscomplexobj(value) else value)


def contract(nu: Multivector, omega: Multivector) -> Multivector:
    """Left contraction: the adjoint of left exterior multiplication.

    <mu, contract(nu, omega)> = <nu ^ mu, omega> for every mu.  Vanishes
    when grade(nu) > grade(omega) and reduces to the inner product on
    equal grades (landing in the scalar slot).
    """
    _check_pair(nu, omega)
    out = np.zeros_like(omega.coeffs)
    nz_nu = np.nonzero(nu.coeffs)[0]
    nz_om = np.nonzero(omega.coeffs)[0]
    for i_mask in nz_nu:
        i_mask = int(i_mask)
        ci = np.conj(nu.coeffs[i_mask])
        for j_mask in nz_om:
            j_mask = int(j_mask)
            if (i_mask & j_mask) != i_mask:
                continue
            rest = j_mask & ~i_mask
            out[rest] += shuffle_sign(i_mask, rest) * ci * omega.coeffs[j_mask]
    return Multivector._trusted(nu.ambient_dim, nu.field, out)


def _wedge_all(vectors, n: int, field: Field) -> Multivector:
    """v1 ^ ... ^ vk, wedged in order onto the scalar 1 (the scalar 1 for
    an empty list), for library-built vectors: each already of the
    field's dtype and length n, so none is converted or checked."""
    coeffs = scalar_multivector(n, field).coeffs  # checks the cap
    for v in vectors:
        coeffs = _wedge_vector_coeffs(coeffs, v, n)
    return Multivector._trusted(n, field, coeffs)


def blade_of(V: Subspace) -> Multivector:
    """Unit blade representing a subspace: the wedge of its orthonormal
    basis columns.  The zero subspace is represented by the scalar 1."""
    acc = _wedge_all(V.basis.T, V.ambient_dim, V.field)
    nrm = acc.norm
    if V.dim and abs(nrm - 1.0) > 1e-12:
        acc = acc.scale(1.0 / nrm)
    return acc


def project_multivector(W: Subspace, x: Multivector) -> Multivector:
    """Grade-wise orthogonal projection onto the exterior algebra of W.

    On blades this is the wedge of the projected factors; on everything
    else it is the linear extension, i.e. the orthogonal projection onto
    the span of W's coordinate blades.
    """
    _check_pair(W, x)
    out = np.zeros_like(x.coeffs)
    cols = [W.basis[:, j] for j in range(W.dim)]
    n = x.ambient_dim

    def visit(blade_coeffs: np.ndarray, start: int) -> None:
        out_idx = np.vdot(blade_coeffs, x.coeffs)
        if out_idx != 0:
            np.add(out, blade_coeffs * out_idx, out=out)
        for j in range(start, len(cols)):
            visit(_wedge_vector_coeffs(blade_coeffs, cols[j], n), j + 1)

    visit(scalar_multivector(n, x.field).coeffs, 0)
    return Multivector._trusted(x.ambient_dim, x.field, out)


def oracle_grassmann_angle(V: Subspace, W: Subspace) -> float:
    """Angle from the norm of the projected blade: the projection of a
    unit blade of V onto the algebra of W has norm cos(angle)."""
    nu = blade_of(V)
    projected = project_multivector(W, nu)
    return arccos_clamped(projected.norm)


def oracle_complementary_angle(V: Subspace, W: Subspace) -> float:
    """Angle from the norm of the wedge of unit blades."""
    nu = blade_of(V)
    om = blade_of(W)
    return arccos_clamped(wedge(nu, om).norm)


def oracle_contraction_angle(V: Subspace, W: Subspace) -> float:
    """Angle from the norm of the contraction of unit blades; agrees with
    the projected-blade route for all inputs."""
    nu = blade_of(V)
    om = blade_of(W)
    return arccos_clamped(contract(nu, om).norm)
