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
from spangle.subspace import Subspace, from_basis_matrix, from_spanning, full_space, zero_subspace

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


# The spanning-list intake: each bad list, through every public route
# that takes one, and the whole message it raises.
INTAKE_ROUTES = {
    "from_spanning": lambda vectors, ambient_dim: from_spanning(vectors, Field.REAL, ambient_dim),
    "oriented_from_spanning": lambda vectors, ambient_dim: oriented_from_spanning(vectors, Field.REAL, ambient_dim),
    "angle_from_gram": lambda vectors, ambient_dim: angle_from_gram(vectors, vectors, Field.REAL, ambient_dim),
}
ONE_DIMENSIONAL = r"each spanning vector must be one-dimensional"
BAD_LISTS = [
    ("ragged", [[1.0, 0.0], [1.0, 0.0, 0.0]], None, r"dimension mismatch: expected vectors of length 2, got 3"),
    ("scalar entry", [[1.0, 0.0], 3.0], None, ONE_DIMENSIONAL),
    ("0-d array entry", [[1.0, 0.0], np.array(2.0)], None, ONE_DIMENSIONAL),
    ("3-D nested list", [[[1.0, 0.0]], [[0.0, 1.0]]], None, ONE_DIMENSIONAL),
    ("3-D ragged list", [[[1.0], [0.0, 1.0]], [[0.0, 1.0], [1.0]]], None, ONE_DIMENSIONAL),
    ("strings", ["ab", "cd"], None, ONE_DIMENSIONAL),
    # The length check comes first: equal-length strings against another
    # ambient_dim are a dimension mismatch.
    ("strings against ambient_dim", ["ab", "cd"], 3, r"dimension mismatch: vectors have length 2, ambient_dim is 3"),
    ("list against ambient_dim", [[1.0, 0.0], [0.0, 1.0]], 3, r"dimension mismatch: vectors have length 2, ambient_dim is 3"),
    ("scalar list", 3.0, None, r"spanning vectors must be given as a list of vectors"),
]


@pytest.mark.parametrize("route", sorted(INTAKE_ROUTES))
@pytest.mark.parametrize("vectors, ambient_dim, message", [row[1:] for row in BAD_LISTS], ids=[row[0] for row in BAD_LISTS])
def test_spanning_list_refusal(route, vectors, ambient_dim, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        INTAKE_ROUTES[route](vectors, ambient_dim)


@pytest.mark.parametrize("route, message", [
    ("from_spanning", r"ambient_dim is required for an empty vector list"),
    ("oriented_from_spanning", r"ambient_dim is required for an empty vector list"),
    ("angle_from_gram", r"cannot infer the ambient dimension from two empty lists"),
])
def test_empty_list_without_ambient_dim(route, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        INTAKE_ROUTES[route]([], None)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("call", [
    lambda field: from_spanning([[object(), 1.0]], field),
    lambda field: from_basis_matrix([[object()], [1.0]], field),
    lambda field: Subspace(2, field, [[object()], [1.0]]),
    lambda field: vector_angles([object()], [1.0], field),
], ids=["from_spanning", "from_basis_matrix", "Subspace", "vector_angles"])
def test_non_numeric_entry_is_a_value_error(call, field):
    with pytest.raises(ValueError, match="^entries must be numbers$"):
        call(field)


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
