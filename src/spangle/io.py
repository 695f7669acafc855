"""JSON subspace documents: the on-disk interchange format.

Schema:

    {
      "field": "real" | "complex",
      "ambient_dim": <int>,
      "vectors": [[entry, ...], ...]
    }

Entries are numbers in the real case and two-element [re, im] arrays in
the complex case.  The vectors are spanning, not necessarily orthonormal
or independent, and ambient_dim * max(1, len(vectors)) is at most
``MAX_ENTRIES`` (2**22); a file is at most ``MAX_DOCUMENT_BYTES`` long,
enough for any document ``write_subspace_file`` writes within that
bound.  Serialization is deterministic: sorted keys,
two-space indent, trailing newline, floats at 15 significant digits.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .linalg import Field
from .subspace import Subspace, _span

# The most entries a document may hold, ambient_dim * max(1, vectors):
# 2**22 entries are 64 MiB as complex128.  A document without vectors
# counts as one vector, so the ambient dimension is bounded too.
MAX_ENTRIES = 2**22


class SubspaceDocumentError(ValueError):
    """A subspace document failed validation; ``field_name`` points at
    the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


def _sigdigits(x: float) -> float:
    return float(f"{x:.15g}")


def encode_number(value, field: Field):
    if field is Field.COMPLEX:
        z = complex(value)
        return [_sigdigits(z.real), _sigdigits(z.imag)]
    return _sigdigits(float(np.real(value)))


def _decode_entry(entry: Any, field: Field, where: str):
    if field is Field.COMPLEX:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise SubspaceDocumentError(where, "complex entries must be [re, im] number pairs")
    elif not isinstance(entry, (int, float)) or isinstance(entry, bool):
        raise SubspaceDocumentError(where, "real entries must be numbers")
    # json reads NaN, Infinity, -Infinity and out-of-range literals such
    # as 1e400 as non-finite floats, and huge integer literals overflow
    # the conversion.
    try:
        value = complex(entry[0], entry[1]) if field is Field.COMPLEX else float(entry)
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SubspaceDocumentError(where, "entries must be finite (no NaN, Infinity or overflow)")
    return value


def parse_subspace_document(doc: Any) -> tuple[Field, int, np.ndarray]:
    """Validate a parsed JSON object and return (field, ambient_dim, M), M
    the column-major matrix whose columns are the vectors."""
    if not isinstance(doc, dict):
        raise SubspaceDocumentError("document", "expected a JSON object")
    if "field" not in doc:
        raise SubspaceDocumentError("field", "missing")
    if doc["field"] not in ("real", "complex"):
        raise SubspaceDocumentError("field", f"expected 'real' or 'complex', got {doc['field']!r}")
    field = Field.COMPLEX if doc["field"] == "complex" else Field.REAL
    if "ambient_dim" not in doc:
        raise SubspaceDocumentError("ambient_dim", "missing")
    n = doc["ambient_dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SubspaceDocumentError("ambient_dim", "must be a nonnegative integer")
    if "vectors" not in doc:
        raise SubspaceDocumentError("vectors", "missing")
    raw = doc["vectors"]
    if not isinstance(raw, list):
        raise SubspaceDocumentError("vectors", "must be a list of vectors")
    if n * max(1, len(raw)) > MAX_ENTRIES:
        raise SubspaceDocumentError(
            "vectors", f"need ambient_dim * max(1, len(vectors)) <= {MAX_ENTRIES}, got {n} * {max(1, len(raw))}"
        )
    rows = []
    for i, rv in enumerate(raw):
        if not isinstance(rv, list):
            raise SubspaceDocumentError(f"vectors[{i}]", "must be a list of entries")
        if len(rv) != n:
            raise SubspaceDocumentError(
                f"vectors[{i}]", f"has {len(rv)} entries, ambient_dim is {n}"
            )
        rows.append([_decode_entry(entry, field, f"vectors[{i}][{j}]") for j, entry in enumerate(rv)])
    # One conversion, of the rows; every entry is a finite number by now.
    # Its transpose is the column-major matrix, as stack_columns gives it.
    M = np.array(rows, dtype=field.dtype).reshape(len(rows), n).T
    return field, n, M


def load_subspace_file(path: str) -> tuple[Subspace, np.ndarray]:
    """Read and validate a subspace document; returns the subspace and
    the matrix of its spanning vectors, as columns in the document's
    order (which carries the orientation)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > MAX_DOCUMENT_BYTES:  # refused before any of it is read
                raise SubspaceDocumentError(
                    "document", f"need at most {MAX_DOCUMENT_BYTES} bytes, the file has {size}"
                )
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SubspaceDocumentError("document", f"invalid JSON: {exc}") from exc
    field, _, M = parse_subspace_document(doc)
    return _span(M, field), M


def subspace_document(V: Subspace) -> dict:
    vectors = [
        [encode_number(V.basis[i, j], V.field) for i in range(V.ambient_dim)]
        for j in range(V.dim)
    ]
    return {
        "field": V.field.value,
        "ambient_dim": V.ambient_dim,
        "vectors": vectors,
    }


def dump_json(obj: Any) -> str:
    """Deterministic JSON serialization used on every CLI exit path."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_subspace_file(path: str, V: Subspace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(subspace_document(V)))


def _document_bytes(vectors: list) -> int:
    """The length of a document of these encoded vectors as
    ``write_subspace_file`` writes it, at the largest ambient dimension
    (the most digits) and under the longer field name."""
    return len(dump_json({"field": "complex", "ambient_dim": MAX_ENTRIES, "vectors": vectors}))


# The longest document write_subspace_file writes within MAX_ENTRIES, in
# dump_json's own layout, indentation included.  Each entry is at most as
# long as a complex one whose parts each have a sign, 15 significant
# digits, a point and a three-digit exponent.  The document has at most
# MAX_ENTRIES entries, and at most isqrt(MAX_ENTRIES) vectors, since a
# subspace has at most ambient_dim of them.
_LONGEST_ENTRY = encode_number(complex(-1.23456789012345e-300, -1.23456789012345e-300), Field.COMPLEX)
_ONE_ENTRY_BYTES = _document_bytes([[_LONGEST_ENTRY]])
_ENTRY_BYTES = _document_bytes([[_LONGEST_ENTRY] * 2]) - _ONE_ENTRY_BYTES
_VECTOR_BYTES = _document_bytes([[_LONGEST_ENTRY]] * 2) - _ONE_ENTRY_BYTES - _ENTRY_BYTES
MAX_DOCUMENT_BYTES = (
    _ONE_ENTRY_BYTES + (MAX_ENTRIES - 1) * _ENTRY_BYTES + (math.isqrt(MAX_ENTRIES) - 1) * _VECTOR_BYTES
)
