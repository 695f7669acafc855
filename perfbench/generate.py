"""Seeded inputs for the benchmark, owned by the benchmark.

A pair is two spanning lists (1-D numpy vectors) in one ambient space
and field, plus the full-column-rank matrices whose spans they are
(``ref_left``/``ref_right``), which the reference route uses.  Pools are
stratified: every (n, field) stratum gets a fixed number of pairs and
every category its fixed share, and dimensions come from a fixed
lattice, so two seeds give pools of nearly equal cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# (category, share of each stratum).  The shares are chosen for coverage:
# the repository has no users, logs or examples whose traffic they could
# be measured from.  Generic pairs get the largest share; each special
# category gets enough pairs to exercise its code path in every stratum.
# The detail line reports each category's median time, so a change's
# effect can be read without these weights.  Why each category is in the
# mix is in README.md.
CATEGORIES = (
    ("generic", 0.40),
    ("near_coincident", 0.10),
    ("intersecting", 0.10),
    ("nested", 0.10),
    ("orthogonal", 0.10),
    ("zero_dim", 0.10),
    ("rank_deficient", 0.10),
)
FIELDS = ("real", "complex")


class Inputs(NamedTuple):
    """What the program is given for one pair: the two spanning lists."""

    n: int
    field: str
    left: list
    right: list


@dataclass(frozen=True)
class Pair:
    n: int
    field: str
    category: str
    left: list
    right: list
    ref_left: np.ndarray
    ref_right: np.ndarray

    def inputs(self) -> Inputs:
        return Inputs(self.n, self.field, self.left, self.right)


def _gauss(rng, n: int, k: int, field: str) -> np.ndarray:
    if field == "complex":
        return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return rng.standard_normal((n, k))


def _cols(M: np.ndarray) -> list:
    return [np.ascontiguousarray(M[:, j]) for j in range(M.shape[1])]


def _lattice_dims(count: int, pmax: int) -> list[tuple[int, int]]:
    """``count`` dimension pairs (p, q) in [0, pmax]^2 at the cell centres
    of a rank-1 lattice: p visits each of ``count`` evenly spaced cells
    once, and so does q, in an order that spreads the points over the
    square.  The shapes are the same for every seed, because the cost of
    a pool depends on p and q jointly and steeply (see ``pair_pool``)."""
    step = max(1, round(count * 0.618))
    while math.gcd(step, count) != 1:
        step += 1
    cells = np.arange(count)
    u = (cells + 0.5) / count
    v = ((cells * step) % count + 0.5) / count
    p = np.minimum(np.floor(u * (pmax + 1)).astype(int), pmax)
    q = np.minimum(np.floor(v * (pmax + 1)).astype(int), pmax)
    return [(int(a), int(b)) for a, b in zip(p, q)]


def make_pair(rng, n: int, field: str, category: str, p: int, q: int, variant: int | None = None) -> Pair:
    """One pair of the given category; ``p`` and ``q`` are drawn in
    [0, pmax] and adapted to what the category needs.  ``variant`` picks
    the category's discrete choices that change the op's cost (which side
    is empty, which list is nested in which, how many extra vectors);
    without it they are drawn from ``rng``."""
    if variant is None:
        variant = int(rng.integers(0, 12))
    if category == "generic":
        A, B = _gauss(rng, n, p, field), _gauss(rng, n, q, field)
        return Pair(n, field, category, _cols(A), _cols(B), A, B)
    if category == "near_coincident":
        p = max(p, 1)
        A = _gauss(rng, n, p, field)
        eps = 10.0 ** rng.uniform(-10.0, -6.0)
        B = A + eps * _gauss(rng, n, p, field)
        return Pair(n, field, category, _cols(A), _cols(B), A, B)
    if category == "intersecting":
        p, q = max(p, 1), max(q, 1)
        k = int(rng.integers(1, min(p, q) + 1))
        C = _gauss(rng, n, k, field)
        A = np.hstack([C @ _gauss(rng, k, k, field), _gauss(rng, n, p - k, field)])
        B = np.hstack([C @ _gauss(rng, k, k, field), _gauss(rng, n, q - k, field)])
        return Pair(n, field, category, _cols(A), _cols(B), A, B)
    if category == "nested":
        small, big = sorted((max(p, 1), max(q, 1)))
        B = _gauss(rng, n, big, field)
        A = B @ _gauss(rng, big, small, field)
        if variant % 2:  # inner first (p <= q), or outer first (p > q)
            A, B = B, A
        return Pair(n, field, category, _cols(A), _cols(B), A, B)
    if category == "orthogonal":
        p = min(max(p, 1), n - 1)
        q = min(max(q, 1), n - p)
        Q, _ = np.linalg.qr(_gauss(rng, n, p + q, field))
        A = Q[:, :p] @ _gauss(rng, p, p, field)
        B = Q[:, p:] @ _gauss(rng, q, q, field)
        return Pair(n, field, category, _cols(A), _cols(B), A, B)
    if category == "zero_dim":
        side = variant % 3  # left empty, right empty, or both
        p = 0 if side in (0, 2) else p
        q = 0 if side in (1, 2) else q
        A, B = _gauss(rng, n, p, field), _gauss(rng, n, q, field)
        return Pair(n, field, category, _cols(A), _cols(B), A, B)
    if category == "rank_deficient":
        p, q = max(p, 1), max(q, 1)
        A, B = _gauss(rng, n, p, field), _gauss(rng, n, q, field)
        # Extra vectors that are combinations of the others, shuffled in,
        # so that the rank cut in from_spanning has work to do.
        left = _cols(np.hstack([A, A @ _gauss(rng, p, 1 + variant % 2, field)]))
        right = _cols(np.hstack([B, B @ _gauss(rng, q, 1 + variant // 2 % 2, field)]))
        rng.shuffle(left)
        rng.shuffle(right)
        return Pair(n, field, category, left, right, A, B)
    raise ValueError(f"unknown category {category!r}")


def pair_pool(seed: int, per_field: dict[int, int], pmax: dict[int, int]):
    """Yield a shuffled pool with ``per_field[n]`` pairs for each ambient
    dimension n and field, each category taking its share of them.

    ``pmax[n]`` is the largest dimension drawn for ambient dimension n.
    The plan (shapes, categories and their variants) is the same for every
    seed, since the cost of a pool hangs on it; the seed draws the vectors
    and the order.  Each pair is built from its own stream, one at a time,
    so a caller need not hold the whole pool's generator matrices at once.
    """
    rng = np.random.default_rng(seed)
    plan = []
    for n, count in per_field.items():
        for field in FIELDS:
            for category, share in CATEGORIES:
                dims = _lattice_dims(round(count * share), pmax[n])
                plan.extend((n, field, category, p, q, j) for j, (p, q) in enumerate(dims))
    for i in rng.permutation(len(plan)):
        yield make_pair(np.random.default_rng([seed, int(i)]), *plan[i])


def encode_vector(v: np.ndarray, field: str) -> list:
    if field == "complex":
        return [[float(z.real), float(z.imag)] for z in v]
    return [float(x) for x in v]


def subspace_document(pair_side: list, n: int, field: str) -> dict:
    """The JSON subspace document of one spanning list (full precision)."""
    return {"field": field, "ambient_dim": n, "vectors": [encode_vector(v, field) for v in pair_side]}


def decode_document(doc: dict) -> list:
    """Spanning vectors of a document, decoded the way the schema says."""
    if doc["field"] == "complex":
        return [np.array([complex(re, im) for re, im in v]) for v in doc["vectors"]]
    return [np.array(v, dtype=float) for v in doc["vectors"]]
