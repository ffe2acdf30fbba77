"""Minimum blocking sets for non-crossing perfect matchings of a convex polygon.

The library enumerates the simple perfect matchings of the complete
geometric graph on a convex polygon with 2m vertices, generates all
minimum blocking sets from their canonical caterpillar parameters,
parses and counts them, and confirms the characterization against an
independent brute-force search at small m.
"""

from .blockers import (
    BlockerSpec,
    BoundaryCase,
    CaterpillarReport,
    StructuralViolation,
    classify_boundary_set,
    count_blockers,
    count_blockers_by_spine,
    enumerate_blocker_specs,
    enumerate_blockers,
    generate_blocker,
    parse_blocker,
    restrict_blocker,
    validate_caterpillar,
)
from .errors import InfeasibilityError, InputError, ResourceLimitError, StructureError
from .geometry import (
    Edge,
    PolygonContext,
    are_parallel,
    edge_class,
    edge_order,
    edges_cross,
    parallel_class,
)
from .matchings import (
    TriangularSpec,
    catalan_number,
    enumerate_spms,
    first_avoiding_spm,
    is_spm,
    parallel_spm,
    spm_pairs,
    triangular_spm,
    triangular_spm_from_blocks,
)
from .oracle import (
    OracleResult,
    SpmFamilyIndex,
    build_family_index,
    find_minimum_blockers,
    is_blocking_set,
    missed_spms,
)
from .render import RenderSpec, render_figure
from .verify import VerificationReport, verify_special_blockers, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "BlockerSpec",
    "BoundaryCase",
    "CaterpillarReport",
    "Edge",
    "InfeasibilityError",
    "InputError",
    "OracleResult",
    "PolygonContext",
    "RenderSpec",
    "ResourceLimitError",
    "SpmFamilyIndex",
    "StructuralViolation",
    "StructureError",
    "TriangularSpec",
    "VerificationReport",
    "are_parallel",
    "build_family_index",
    "catalan_number",
    "classify_boundary_set",
    "count_blockers",
    "count_blockers_by_spine",
    "edge_class",
    "edge_order",
    "edges_cross",
    "enumerate_blocker_specs",
    "enumerate_blockers",
    "enumerate_spms",
    "find_minimum_blockers",
    "first_avoiding_spm",
    "generate_blocker",
    "is_blocking_set",
    "is_spm",
    "missed_spms",
    "parallel_class",
    "parallel_spm",
    "parse_blocker",
    "render_figure",
    "restrict_blocker",
    "spm_pairs",
    "triangular_spm",
    "triangular_spm_from_blocks",
    "validate_caterpillar",
    "verify_special_blockers",
    "verify_theorem",
]
