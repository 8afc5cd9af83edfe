"""Avalanche polynomials of rooted plane trees.

Exact-arithmetic tools for the subtree-size labeling of plane trees:
the avalanche polynomial of a tree, the distribution of avalanche sizes
over all plane trees with n edges (computed three independent ways),
its exact moments and asymptotics, and the inverse problem of
reconstructing a tree from a polynomial, including the 3-partition
reduction instances.
"""

from .distribution import (
    DEFAULT_ENUM_CAP,
    CurvePoint,
    DistributionRecord,
    EnumerationCapExceeded,
    MomentReport,
    closed_coefficient,
    distribution_by_closed_form,
    distribution_by_enumeration,
    distribution_by_recurrence,
    first_moment_total,
    functional_equation_mismatch,
    mean_exact,
    moment_report,
    normalized_curve,
    recurrence_polys,
    variance_exact,
    verify_functional_equation,
)
from .inverse import (
    DEFAULT_BUDGET,
    ExtractionError,
    InstanceValidationError,
    InverseResult,
    PartitionError,
    ThreePartitionInstance,
    build_reduction_tree,
    extract_partition,
    reduction_poly,
    scaled_reduction_poly,
    solve_general,
    solve_height2,
    validate_instance,
)
from .polyalg import Poly, Series, catalan
from .tree import (
    LabeledTree,
    PlaneTree,
    TreeParseError,
    avalanche_poly,
    dyck_words,
    enumerate_trees,
    label_tree,
    parse_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "Series",
    "catalan",
    "PlaneTree",
    "LabeledTree",
    "TreeParseError",
    "parse_tree",
    "label_tree",
    "avalanche_poly",
    "enumerate_trees",
    "dyck_words",
    "DistributionRecord",
    "MomentReport",
    "CurvePoint",
    "EnumerationCapExceeded",
    "DEFAULT_ENUM_CAP",
    "distribution_by_enumeration",
    "distribution_by_recurrence",
    "distribution_by_closed_form",
    "recurrence_polys",
    "closed_coefficient",
    "first_moment_total",
    "mean_exact",
    "variance_exact",
    "moment_report",
    "functional_equation_mismatch",
    "verify_functional_equation",
    "normalized_curve",
    "ThreePartitionInstance",
    "InverseResult",
    "InstanceValidationError",
    "PartitionError",
    "ExtractionError",
    "DEFAULT_BUDGET",
    "validate_instance",
    "solve_height2",
    "solve_general",
    "scaled_reduction_poly",
    "reduction_poly",
    "build_reduction_tree",
    "extract_partition",
]
