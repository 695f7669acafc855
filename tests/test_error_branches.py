"""Every refusal of a bad argument says what it refuses.

One row per check that the rest of the suite never reaches: the call, and
the whole message it must raise.
"""

import importlib

import numpy as np
import pytest

import spangle
from spangle import Field
from spangle.angles import OrientedSubspace, oriented_from_spanning, vector_angles
from spangle.gram import angle_from_gram, angle_from_projection_matrix
from spangle.identities import check_line_partition, check_oriented_sum, complexifiability_obstruction
from spangle.linalg import stack_columns
from spangle.metrics import geodesic_point
from spangle.sampling import haar_subspace
from spangle.subspace import from_spanning, full_space, zero_subspace

E = np.eye(3)
LINE = from_spanning([E[0]], Field.REAL)
PLANE = from_spanning([E[0], E[1]], Field.REAL)

REFUSALS = [
    ("vector_angles", lambda: vector_angles([1.0, 0.0], [1.0, 0.0, 0.0], Field.REAL),
     r"vector shape mismatch: \(2,\) vs \(3,\)"),
    ("OrientedSubspace", lambda: OrientedSubspace(LINE, 1j),
     r"a real subspace admits only \+1/-1 orientation coefficients"),
    ("_gram_matrices", lambda: angle_from_gram([], [], Field.REAL),
     r"cannot infer the ambient dimension from two empty lists"),
    ("angle_from_projection_matrix", lambda: angle_from_projection_matrix(np.eye(2), "theta"),
     r"unknown mode: 'theta'"),
    ("check_line_partition", lambda: check_line_partition(LINE, [LINE, from_spanning([E[0] + E[1], E[2]], Field.REAL)]),
     r"partition of the ambient space is not orthogonal"),
    ("check_oriented_sum basis", lambda: check_oriented_sum(*[oriented_from_spanning([E[0]], Field.REAL)] * 2, E[0]),
     r"basis must be a matrix, got shape \(3,\)"),
    ("check_oriented_sum dims", lambda: check_oriented_sum(OrientedSubspace(LINE), OrientedSubspace(PLANE), E),
     r"oriented identity requires equal dimensions"),
    ("complexifiability_obstruction", lambda: complexifiability_obstruction(zero_subspace(4, Field.REAL), full_space(4, Field.REAL)),
     r"V must be nonzero"),
    ("stack_columns", lambda: stack_columns([], Field.REAL),
     r"ambient_dim is required for an empty vector list"),
    ("geodesic_point", lambda: geodesic_point(LINE, PLANE, 0.1),
     r"geodesics require equal dimensions, got 1 and 2"),
    ("haar_subspace", lambda: haar_subspace(np.random.default_rng(0), 3, 4, Field.REAL),
     r"need 0 <= dim <= ambient_dim, got dim=4, ambient_dim=3"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("name", ["angles", "gram", "identities", "linalg", "metrics", "principal", "sampling", "subspace"])
def test_module_on_first_access(name):
    """``spangle.<module>`` loads the module through the package's
    ``__getattr__`` when no import has bound it yet."""
    assert spangle.__getattr__(name) is importlib.import_module(f"spangle.{name}")


def test_dir_lists_exports_and_globals():
    names = dir(spangle)
    assert names == sorted(set(names))
    assert set(spangle.__all__) <= set(names)
    assert {"__version__", "Field"} <= set(names)
