"""Walk-based centrality measures for temporal networks.

Works with the block upper-triangular edge-space transition matrix M of a
sequence of graph snapshots, built from the edge arrays the parser makes,
and evaluates analytic-function walk weightings of it: in the
standard setting, and with backtracking forbidden in space, in time, or both.
A resolvent (Katz) weighting never forms M: it factors one system per
snapshot and back-substitutes from the last snapshot to the first, coupling
the snapshots through running node sums (and, where reversals across
snapshots are forbidden, running sums over directed pairs).  The system is
n x n, I - alpha A_t or the non-backtracking cubic, and every mode solves it
for the same node increment, except in NBT-both and in NBT-in-space for
alpha > 1/2, which factor the Hashimoto block.  Other weightings sum the
series with sparse products on M.
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
from .spectral import AlphaBound, alpha_bound, spectral_radius
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
