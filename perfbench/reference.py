"""Reference values from an independent route, and the correctness gate.

Principal angles come from ``scipy.linalg.subspace_angles`` (a test-only
dependency, not used by the program), which takes small angles from
sines.  The directed, complementary and Fubini-Study angles are derived
from those angles and the dimension rule, through
``atan2(sqrt(-expm1(2 L)), exp(L))`` with ``L`` the log of the cosine
(or sine) product, which is accurate at both ends of [0, pi/2].

The gate uses the README tolerances: an angle passes when it is within
ANGLE_TOL rad of the reference, and a cosine-valued output (projection
factor, oriented cosine) when it is within COS_TOL; anything else fails
the op.  One exception is the known small-angle defect (ROADMAP item 3).
The program takes small angles from cosines: cosines within
``_ZERO_ANGLE_COS_BAND`` (256 eps) of 1 are taken as exact, so an angle of
up to sqrt(512 eps) = 3.4e-7 rad comes out as exactly 0 (and the
complementary angle of a near-coincident pair as exactly pi/2), and
elsewhere a cosine's rounding error d moves an angle near 0 by up to
sqrt(2 d).  An angle that misses ANGLE_TOL is counted as a miss
(``misses``, ``max_angle_err``) rather than a failure when it and its
reference both lie within DEFECT_REACH of 0, or when it is exactly pi/2
and its reference lies within DEFECT_REACH of that.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import subspace_angles

COS_TOL = 1e-9
ANGLE_TOL = 1e-7
# Twice sqrt(512 eps), for rounding in the cosines the band is applied to.
DEFECT_REACH = 2.0 * math.sqrt(512.0 * np.finfo(np.float64).eps)
HALF_PI = math.pi / 2
ANGLE_KEYS = (
    "theta_left_right",
    "theta_right_left",
    "theta_perp",
    "theta_min_sym",
    "theta_max_sym",
    "fubini_study",
)


def _angle_from_log_product(log_product: float) -> float:
    """The angle whose cosine is exp(log_product), accurate near 0."""
    s = math.sqrt(max(0.0, -math.expm1(2.0 * log_product)))
    return math.atan2(s, math.exp(log_product))


def _log_sum(values: np.ndarray) -> float:
    with np.errstate(divide="ignore"):
        return float(np.sum(np.log(values)))


def _directed(angles: np.ndarray, p: int, q: int) -> float:
    if p == 0:
        return 0.0
    if p > q:
        return HALF_PI
    return _angle_from_log_product(_log_sum(np.cos(angles)))


@dataclass(frozen=True)
class PairReference:
    p: int
    q: int
    values: dict
    oriented_cos: complex | None


def reference(ref_left: np.ndarray, ref_right: np.ndarray, is_complex: bool) -> PairReference:
    """Everything ``spangle angle`` reports, from full-column-rank
    spanning matrices of the two subspaces."""
    p, q = ref_left.shape[1], ref_right.shape[1]
    if p and q:
        angles = np.sort(subspace_angles(ref_left, ref_right))
    else:
        angles = np.zeros(0)
    theta = _directed(angles, p, q)
    back = _directed(angles, q, p)
    perp = 0.0 if p == 0 or q == 0 else _angle_from_log_product(_log_sum(np.sin(angles)))
    c = math.cos(theta)
    values = {
        "dim_left": p,
        "dim_right": q,
        "principal_angles": angles,
        "theta_left_right": theta,
        "theta_right_left": back,
        "theta_perp": perp,
        "theta_min_sym": min(theta, back),
        "theta_max_sym": max(theta, back),
        "projection_factor": c * c if is_complex else c,
        "fubini_study": theta if p == q else HALF_PI,
    }
    oriented = None
    if p == q:
        # Inner product of the unit blades of the ordered spanning lists,
        # from Gram determinants (in logs: they overflow at large n).
        sign, log_num = np.linalg.slogdet(ref_left.conj().T @ ref_right)
        log_den = 0.5 * (np.linalg.slogdet(ref_left.conj().T @ ref_left)[1]
                         + np.linalg.slogdet(ref_right.conj().T @ ref_right)[1])
        oriented = complex(sign) * math.exp(log_num - log_den)
    return PairReference(p, q, values, oriented)


@dataclass
class Verdict:
    """Outcome of checking one op or more: ok, the largest angle error,
    and the number of angles that missed ANGLE_TOL through the known
    defect."""

    ok: bool = True
    max_angle_err: float = 0.0
    misses: int = 0

    def angle(self, got, want: float) -> None:
        if got is None:
            self.ok = False
            return
        got = float(got)
        err = abs(got - want)
        self.max_angle_err = max(self.max_angle_err, err)
        if err <= ANGLE_TOL:
            return
        near_zero = max(got, want) <= DEFECT_REACH
        snapped_to_right_angle = got == HALF_PI and err <= DEFECT_REACH
        if near_zero or snapped_to_right_angle:
            self.misses += 1
        else:
            self.ok = False

    def close(self, got, want: float, tol: float = COS_TOL) -> None:
        if got is None or not abs(float(got) - want) <= tol:
            self.ok = False

    def merge(self, other: "Verdict") -> None:
        self.ok = self.ok and other.ok
        self.max_angle_err = max(self.max_angle_err, other.max_angle_err)
        self.misses += other.misses


def check_principal(out: dict, ref: PairReference) -> Verdict:
    v = Verdict()
    if out.get("dim_left") != ref.p or out.get("dim_right") != ref.q:
        v.ok = False
        return v
    got = out.get("principal_angles")
    want = ref.values["principal_angles"]
    if got is None or len(got) != len(want):
        v.ok = False
        return v
    for g, w in zip(got, want):
        v.angle(g, float(w))
    return v


def check_angle_report(out: dict, ref: PairReference) -> Verdict:
    """Check an ``angle``-shaped result (CLI JSON or the in-process op)."""
    v = check_principal(out, ref)
    if not v.ok:
        return v
    for key in ANGLE_KEYS:
        v.angle(out.get(key), ref.values[key])
    v.close(out.get("projection_factor"), ref.values["projection_factor"])
    return v


def check_oriented(out: dict, ref: PairReference) -> Verdict:
    v = Verdict()
    got = out.get("oriented")
    if ref.oriented_cos is None or not isinstance(got, dict):
        v.ok = False
        return v
    want = ref.oriented_cos
    v.angle(got.get("magnitude"), ref.values["theta_left_right"])
    re_im = got.get("cos_value") or [None, None]
    v.close(re_im[0], want.real)
    v.close(re_im[1], want.imag)
    phase = got.get("phase")
    if abs(want) > 1e-6:
        if phase is None:
            v.ok = False
        else:
            wrapped = abs(cmath.phase(cmath.exp(1j * (phase - cmath.phase(want)))))
            v.close(wrapped, 0.0, ANGLE_TOL + COS_TOL / abs(want))
    return v
