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

from .linalg import Field, _norm, arccos_clamped, as_field_array
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


def shuffle_sign(mask_a, mask_b) -> np.ndarray:
    """Sign of reordering the concatenation (A, B) of disjoint index sets
    into ascending order, elementwise over integer arrays of masks (below
    2**16): the parity of the number of pairs a > b, that is of the bits
    of B at which an odd number of bits of A lie above.  Bit j of ``odd``
    is the parity of the bits of A above j, a suffix XOR of A >> 1."""
    odd = np.asarray(mask_a) >> 1
    for shift in (1, 2, 4, 8):
        odd = odd ^ (odd >> shift)
    return np.where(np.bitwise_count(odd & mask_b) & 1, -1, 1)


@lru_cache(maxsize=None)
def _right_wedge_tables(n: int):
    """Gather tables (src, sign), each (n, 2^n), for blade := blade ^ e_j:
    in row j, a mask dst holding bit j takes src = dst ^ bit_j with sign
    the parity of the bits of src above j, and a mask without it takes
    sign 0 (src 0).  Both are read-only: every caller shares them."""
    masks = np.arange(1 << n, dtype=np.int64)
    j = np.arange(n, dtype=np.int64)[:, None]
    holds = (masks >> j) & 1 == 1
    src = np.where(holds, masks ^ (1 << j), 0)
    above = np.bitwise_count(src >> (j + 1)) & 1
    sign = np.where(holds, 1 - 2 * above.astype(np.int64), 0)
    src.setflags(write=False)
    sign.setflags(write=False)
    return src, sign


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
        return float(_norm(self.coeffs))

    def scale(self, c) -> "Multivector":
        return Multivector(self.ambient_dim, self.field, self.coeffs * c)


def scalar_multivector(n: int, field: Field) -> Multivector:
    _check_cap(n, field)
    coeffs = np.zeros(1 << n, dtype=field.dtype)
    coeffs[0] = 1.0
    return Multivector._trusted(n, field, coeffs)


def _wedge_vector_coeffs(coeffs: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of (multivector ^ vector): the term of each v[j], in
    one gather, summed over j in order onto 0."""
    src, sign = _right_wedge_tables(n)
    return np.add.reduce(coeffs[src] * sign * v[:, None], axis=0, initial=0.0)


def _mask_pairs(x: np.ndarray, y: np.ndarray, disjoint: bool):
    """The masks (i, j) of the nonzero coefficients of x and y, in i-major
    order: the disjoint pairs, or those with i inside j."""
    nz_x, nz_y = np.flatnonzero(x), np.flatnonzero(y)
    rows, cols = np.nonzero((nz_x[:, None] & (nz_y if disjoint else ~nz_y)) == 0)
    return nz_x[rows], nz_y[cols]


def _signed_products(sign, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sign * x * y elementwise, rounded as the scalar (sign * x) * y: a
    complex product is formed from real parts, since numpy's array
    multiply may fuse its multiply-adds and round each part once."""
    if x.dtype.kind != "c":
        return sign * x * y
    xr, xi = sign * x.real, sign * x.imag
    out = np.empty(y.shape, dtype=y.dtype)
    out.real = xr * y.real - xi * y.imag
    out.imag = xr * y.imag + xi * y.real
    return out


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product, bilinear and graded-anticommutative.  Each
    disjoint pair of blades adds its signed product in i-major order."""
    _check_pair(a, b)
    i, j = _mask_pairs(a.coeffs, b.coeffs, disjoint=True)
    out = np.zeros_like(a.coeffs)
    np.add.at(out, i | j, _signed_products(shuffle_sign(i, j), a.coeffs[i], b.coeffs[j]))
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
    equal grades (landing in the scalar slot).  Each pair of blades with
    the first inside the second adds its signed product in i-major order.
    """
    _check_pair(nu, omega)
    i, j = _mask_pairs(nu.coeffs, omega.coeffs, disjoint=False)
    rest = j ^ i
    out = np.zeros_like(omega.coeffs)
    np.add.at(out, rest, _signed_products(shuffle_sign(i, rest), np.conj(nu.coeffs[i]), omega.coeffs[j]))
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
