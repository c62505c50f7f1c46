"""circgraph: construct, recognize, and machine-verify circular graphs.

Circular graphs are the bipartite incidence graphs of point/circle
structures in which every circle carries at least three points and any
three distinct points lie on exactly one circle. The package builds the
named families, classifies arbitrary bipartite graphs, checks the
structural laws that circular graphs obey, decides isomorphism via
canonical labeling, and exhaustively enumerates the small cases.
"""

__version__ = "0.1.0"

from .canonical import CanonicalForm, IsoCertificate, are_isomorphic, canonical_form
from .census import CensusEntry, enumerate_circular, enumerate_circular_trees
from .circular import (
    CheckReport,
    CheckStatus,
    CircularClassification,
    Verdict,
    Violation,
    ViolationKind,
    check_linear_axioms,
    classify,
    run_all_checks,
    verify_distance_profile,
    verify_metric_bounds,
    verify_point_degrees,
    verify_w_pair_bound,
)
from .constructions import (
    Design,
    block_label,
    derive_linear,
    from_design,
    neighborhood_graph,
    star,
    triangular,
)
from .graphs import (
    UNREACHABLE,
    BipartiteError,
    BipartiteGraph,
    Distance,
    GraphError,
    MetricSummary,
    SimpleGraph,
    as_simple,
    common_neighbors,
    connected_components,
    disjoint_union,
    distance,
    induced_subgraph,
    metric_summary,
)

__all__ = [
    "__version__",
    "BipartiteError",
    "BipartiteGraph",
    "CanonicalForm",
    "CensusEntry",
    "CheckReport",
    "CheckStatus",
    "CircularClassification",
    "Design",
    "Distance",
    "GraphError",
    "IsoCertificate",
    "MetricSummary",
    "SimpleGraph",
    "UNREACHABLE",
    "Verdict",
    "Violation",
    "ViolationKind",
    "are_isomorphic",
    "as_simple",
    "block_label",
    "canonical_form",
    "check_linear_axioms",
    "classify",
    "common_neighbors",
    "connected_components",
    "derive_linear",
    "disjoint_union",
    "distance",
    "enumerate_circular",
    "enumerate_circular_trees",
    "from_design",
    "induced_subgraph",
    "metric_summary",
    "neighborhood_graph",
    "run_all_checks",
    "star",
    "triangular",
    "verify_distance_profile",
    "verify_metric_bounds",
    "verify_point_degrees",
    "verify_w_pair_bound",
]
