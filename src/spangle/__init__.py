"""Angles between real or complex subspaces.

Directed (Grassmann) angles, complementary and oriented angles with
phase, principal angles and bases, Gram-determinant formulas, the metric
structure they induce, and an exhaustive exterior-algebra oracle for
verifying all of it.

The exports below are resolved on first access (PEP 562), so importing
the package, or one of its modules, loads only the modules that are
used: the command line's angle commands never load the verify stack.
"""

import importlib

_MODULE_EXPORTS = {
    "angles": (
        "AngleReport",
        "OrientedAngle",
        "OrientedSubspace",
        "VectorAngles",
        "angle_from_complement",
        "angle_report",
        "complementary_angle",
        "grassmann_angle",
        "max_symmetrized_angle",
        "min_symmetrized_angle",
        "oriented_angle",
        "oriented_from_spanning",
        "projection_factor",
        "real_complex_relation",
        "vector_angles",
    ),
    "gram": (
        "ProjectionAngleMode",
        "angle_from_gram",
        "angle_from_gram_equal_dim",
        "angle_from_projection_matrix",
        "complementary_from_gram",
    ),
    "identities": (
        "AngularRange",
        "ComplexifiabilityVerdict",
        "FeasibilityReport",
        "IdentityResult",
        "OrientedSumCheck",
        "angular_range",
        "characterize_principal_partition",
        "check_coordinate_identity",
        "check_line_partition",
        "check_oriented_sum",
        "check_principal_coordinate",
        "complexifiability_obstruction",
        "direct_sum_angle",
        "partition_angle_product",
        "theta_pair_feasibility",
    ),
    "linalg": ("Field", "det"),
    "metrics": (
        "TriangleCase",
        "TriangleTag",
        "TriangleWitness",
        "asymmetric_distance",
        "classify_triangle_equality",
        "directed_hausdorff",
        "fubini_study",
        "geodesic_point",
        "hausdorff",
    ),
    "principal": (
        "Partition",
        "PrincipalDecomposition",
        "intersect",
        "is_partially_orthogonal",
        "is_principal_partition",
        "principal_angles",
        "principal_decomposition",
    ),
    "sampling": ("haar_subspace", "random_unitary"),
    "subspace": (
        "Subspace",
        "complement",
        "from_basis_matrix",
        "from_spanning",
        "full_space",
        "is_subspace_of",
        "project_subspace",
        "project_vector",
        "realify",
        "spans_equal",
        "sum_subspace",
        "zero_subspace",
    ),
}

# Exported name -> the module that defines it.  The modules themselves are
# exported too, under their own names.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_EXPORTS])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
