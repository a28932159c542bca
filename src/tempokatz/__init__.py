"""Walk-based centrality measures for temporal networks.

Works with the block upper-triangular edge-space transition matrix M of a
sequence of graph snapshots, built from the edge arrays the parser makes,
and evaluates analytic-function walk weightings of it: in the
standard setting, and with backtracking forbidden in space, in time, or both.
A resolvent (Katz) weighting never forms M: it factors one system per
snapshot and back-substitutes from the last snapshot to the first, coupling
the snapshots through running node sums (and, where reversals across
snapshots are forbidden, running sums over directed pairs).  The system is
I - alpha A_t or the non-backtracking cubic on the snapshot's distinct
sources, and every mode solves it for the same node increment while
alpha <= 1/2; above, NBT-in-space and NBT-both factor the Hashimoto block.
Other weightings sum their series with products by M that never
form it either (``line_space.TransitionOperator``): cumulative sums along
each source's edges, sorted by snapshot.

Importing the package loads none of its modules: each name it exports,
and each module's own name, loads that module on first use (PEP 562).
``tempokatz.cli`` imports a module only in the commands that run it:
``validate`` loads ``temporal_graph`` alone, ``dump-matrix`` adds
``line_space``, ``check-alpha`` adds ``spectral``, and ``rank`` adds
``centrality`` and ``matfun``.  No command calls a plain ``np.unique``,
which imports ``numpy.ma`` on numpy 2.

Numpy alone runs parsing (``validate``), ``alpha_bound`` (``check-alpha``),
``dump-matrix``, which writes the coordinates read from the parser's edge
arrays, the series weightings, and the Katz measures while the systems
they factor above 200 rows, with the solves of every column to follow,
add up to at most the dense work of inverting one 1024-row system
(``matfun.DENSE_WORK_MAX``).  SciPy loads for the sparse LU of those
systems beyond it, and in ``oracle``, the tests' referees: the brute-force
walk oracle and the SciPy matrices (``global_transition``,
``spectral_radius``, ``resolvent_solve`` and the like, which the package
and its modules forward by name).
"""

import importlib

__version__ = "0.1.0"

#: the exported names by the module that defines them; the brute-force walk
#: oracle and the SciPy matrices are referees for tests and demos that no
#: command uses
_EXPORTS = {
    "centrality": (
        "CentralityVector", "ParameterError", "communicability_matrix",
        "dynamic_katz_node_level", "nbt_space_katz_node_level",
        "temporal_f_subgraph_centrality", "temporal_f_total_communicability",
    ),
    "line_space": ("Mode",),
    "matfun": (
        "CoefficientFunction", "apply_series", "exponential", "from_coefficient_file",
        "monomial", "partial_op", "polynomial", "resolvent",
    ),
    "spectral": ("AlphaBound", "alpha_bound"),
    "temporal_graph": (
        "ParseError", "ParseReport", "Snapshot", "TemporalNetwork", "ValidationError",
        "_referees", "parse_temporal_edgelist", "to_edgelist",
    ),
    "oracle": (
        "WalkCountTensor", "deg_matrices", "enumerate_temporal_walks",
        "functional_equation_residual", "homogeneous_symmetric", "weighted_walk_sum",
        "adjacency_matrix", "source_target_matrices", "line_graph_matrix", "hashimoto_matrix",
        "global_source_target", "global_transition", "spectral_radius", "resolvent_solve",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = importlib.import_module(f".{module}", __name__)
    return found if module == name else getattr(found, name)
