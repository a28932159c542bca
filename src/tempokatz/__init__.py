"""Walk-based centrality measures for temporal networks.

Works with the block upper-triangular edge-space transition matrix M of a
sequence of graph snapshots, built from edge arrays each snapshot compiles
once, and evaluates analytic-function walk weightings of it: in the
standard setting, and with backtracking forbidden in space, in time, or both.
A resolvent (Katz) weighting never forms M: it factors one system per
snapshot and back-substitutes, coupling the snapshots through running node
sums.  That system is the n x n I - alpha A_t in the standard and NBT-in-time
modes, and the Hashimoto block I - alpha B_t in edge space in the NBT-in-space
and NBT-both modes, whose node-level cubic carries a spurious factor
(1 - alpha^2).  Other weightings sum the series with sparse products on M.
Node-level fast paths are provided for Katz total communicability in the
standard and NBT-in-space modes.
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
    deg_matrices,
    enumerate_temporal_walks,
    functional_equation_residual,
    homogeneous_symmetric,
    weighted_walk_sum,
)
from .spectral import AlphaBound, alpha_bound, nbt_radius, spectral_radius
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
