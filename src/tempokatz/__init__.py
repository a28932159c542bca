"""Walk-based centrality measures for temporal networks.

Builds the block upper-triangular edge-space transition matrix M of a
sequence of graph snapshots, as one product of the stacked incidence
matrices, and evaluates analytic-function walk weightings on it: in the
standard setting, and with backtracking forbidden in space, in time, or both.
A resolvent (Katz) weighting factors each snapshot's diagonal block of
I - alpha M once per call and back-substitutes; other weightings sum the
series with sparse products.  Node-level fast paths are provided for Katz
total communicability in the standard and NBT-in-space modes.
"""

from .centrality import (
    CentralityVector,
    ParameterError,
    communicability_matrix,
    dynamic_katz_node_level,
    nbt_space_katz_node_level,
    temporal_f_subgraph_centrality,
    temporal_f_total_communicability,
)
from .line_space import (
    Mode,
    global_source_target,
    global_transition,
    hashimoto_matrix,
    line_graph_matrix,
    source_target_matrices,
)
from .matfun import (
    CoefficientFunction,
    apply_series,
    exponential,
    from_coefficient_file,
    monomial,
    partial_op,
    polynomial,
    resolvent,
    resolvent_solve,
)
from .oracle import (
    WalkCountTensor,
    enumerate_temporal_walks,
    functional_equation_residual,
    homogeneous_symmetric,
    weighted_walk_sum,
)
from .spectral import AlphaBound, alpha_bound, deg_matrices, nbt_radius, spectral_radius
from .temporal_graph import (
    ParseError,
    ParseReport,
    Snapshot,
    TemporalNetwork,
    ValidationError,
    adjacency_matrix,
    parse_temporal_edgelist,
    to_edgelist,
)

__version__ = "0.1.0"
