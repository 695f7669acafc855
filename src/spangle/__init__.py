"""Angles between real or complex subspaces.

Directed (Grassmann) angles, complementary angles, oriented angles with
phase, principal angles and bases, Gram-determinant formulas, the metric
structure they induce, and an exhaustive exterior-algebra oracle for
verifying all of it.
"""

from .angles import (
    AngleReport,
    OrientedAngle,
    OrientedSubspace,
    VectorAngles,
    angle_from_complement,
    angle_report,
    complementary_angle,
    grassmann_angle,
    max_symmetrized_angle,
    min_symmetrized_angle,
    oriented_angle,
    oriented_from_spanning,
    projection_factor,
    real_complex_relation,
    vector_angles,
)
from .gram import (
    ProjectionAngleMode,
    angle_from_gram,
    angle_from_projection_matrix,
    complementary_from_gram,
)
from .identities import (
    AngularRange,
    ComplexifiabilityVerdict,
    FeasibilityReport,
    IdentityResult,
    OrientedSumCheck,
    angular_range,
    characterize_principal_partition,
    check_coordinate_identity,
    check_line_partition,
    check_oriented_sum,
    check_principal_coordinate,
    complexifiability_obstruction,
    direct_sum_angle,
    partition_angle_product,
    theta_pair_feasibility,
)
from .linalg import Field, det, orthonormalize, svd
from .metrics import (
    TriangleCase,
    TriangleTag,
    TriangleWitness,
    asymmetric_distance,
    classify_triangle_equality,
    directed_hausdorff,
    fubini_study,
    geodesic_point,
    hausdorff,
)
from .principal import (
    Partition,
    PrincipalDecomposition,
    is_partially_orthogonal,
    is_principal_partition,
    principal_angles,
    principal_decomposition,
)
from .sampling import haar_subspace, random_unitary
from .subspace import (
    Subspace,
    complement,
    from_basis_matrix,
    from_spanning,
    full_space,
    intersect,
    is_subspace_of,
    project_subspace,
    project_vector,
    realify,
    spans_equal,
    sum_subspace,
    zero_subspace,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
