"""Confocal quadrics and ellipsoidal billiards in pseudo-Euclidean spaces.

The package models the confocal pencil through an ellipsoid in a space of
signature (k, l), classifies lines and pencil members, traces billiard
trajectories with the pseudo-Euclidean reflection law, and decides
periodicity both analytically (rank conditions on square-root series
coefficients) and by simulation.
"""

from .billiard import (
    ClosureReport,
    Trajectory,
    arc_hit_counts,
    closure_test,
    direction_with_caustics,
    line_quadric_intersections,
    rectangle_ratio,
    reflect_at_boundary,
    trace,
    trajectory_from_dict,
    trajectory_to_dict,
)
from .confocal import (
    CausticSet,
    ConfocalFamily,
    GeneralizedJacobi,
    INF,
    InterlacingReport,
    Line,
    caustics,
    evaluate_quadric,
    integrals_F,
    interlacing_report,
    jacobi_coordinates,
    jacobi_polynomial,
    tangency_polynomial,
    trajectory_type_from_caustics,
)
from .errors import (
    NumericalError,
    PblError,
    ValidationError,
)
from .metric import (
    LineType,
    MDistance,
    Signature,
    dot,
    line_type,
    mdistance,
    pseudo_cross,
    pseudo_normal,
    reflect_direction,
    sq_norm,
)
from .periodicity import (
    PonceletReport,
    build_P1,
    cayley_condition,
    cayley_matrix,
    count_axis_ratios,
    find_periodic_caustics,
    find_periodic_caustics_plane,
    lightlike_period,
    numerical_rank,
    poncelet_verify,
    rotation_vector,
    sqrt_series,
)
from .relativistic import (
    ConicClassification,
    FocalResidual,
    GeomType3,
    RelType,
    cusp_edge_lambda,
    decorated_coordinates,
    focal_residual,
    geometric_type_3d,
    relativistic_conic_classify,
    relativistic_type,
    tropic_cone_residual,
    tropic_partials,
    tropic_point,
    tropic_surface_normal,
    tropic_tangent_norm_sq,
)

__version__ = "0.1.0"
