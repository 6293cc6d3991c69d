"""Irregular labelings of grid graphs under sliding-window coverings.

The package constructs vertex, edge, and total labelings of m-by-n grid
graphs whose width-c window weights are pairwise distinct, verifies
arbitrary labelings against arbitrary covering families, computes the
matching lower/upper bounds and closed-form strengths, and certifies
optimality on small instances with an exhaustive backtracking search.
"""

from .bounds import (
    BoundReport,
    closed_form_strength,
    grid_bound_report,
    lower_bound,
    upper_bound_exponent,
)
from .construct import (
    Labeling,
    LabelingKind,
    TotalVariant,
    ceil_div,
    construct_edge_labeling,
    construct_for_kind,
    construct_total_labeling,
    construct_vertex_labeling,
    window_denominator,
)
from .covering import (
    CoverFamily,
    CoveringCheck,
    enumerate_windows,
    is_edge_covering,
)
from .errors import (
    FormatError,
    GridirrError,
    IncompleteLabelingError,
    InvalidEdgeError,
    InvalidParameterError,
    MalformedFamilyError,
    ResourceLimitError,
    ScopeError,
    StrayLabelError,
)
from .grid import (
    Edge,
    Element,
    Graph,
    GridSpec,
    Vertex,
    format_element,
    graph_from_elements,
    grid_dims,
    make_grid,
    require_window_scope,
)
from .report import StrengthReport, strength_report
from .search import (
    SearchResult,
    family_lower_bound,
    min_strength,
)
from .verify import (
    RangeViolation,
    Verdict,
    WeightCollision,
    WeightProfile,
    subgraph_weight,
    verify_irregular,
    weight_profile,
)

__all__ = [
    "BoundReport",
    "CoverFamily",
    "CoveringCheck",
    "Edge",
    "Element",
    "FormatError",
    "Graph",
    "GridSpec",
    "GridirrError",
    "IncompleteLabelingError",
    "InvalidEdgeError",
    "InvalidParameterError",
    "Labeling",
    "LabelingKind",
    "MalformedFamilyError",
    "RangeViolation",
    "ResourceLimitError",
    "ScopeError",
    "SearchResult",
    "StrayLabelError",
    "StrengthReport",
    "TotalVariant",
    "Verdict",
    "Vertex",
    "WeightCollision",
    "WeightProfile",
    "ceil_div",
    "closed_form_strength",
    "construct_edge_labeling",
    "construct_for_kind",
    "construct_total_labeling",
    "construct_vertex_labeling",
    "enumerate_windows",
    "family_lower_bound",
    "format_element",
    "graph_from_elements",
    "grid_bound_report",
    "grid_dims",
    "is_edge_covering",
    "lower_bound",
    "make_grid",
    "min_strength",
    "require_window_scope",
    "strength_report",
    "subgraph_weight",
    "upper_bound_exponent",
    "verify_irregular",
    "weight_profile",
    "window_denominator",
]

__version__ = "0.1.0"
