"""Each command imports only the modules it runs, and the package resolves
its names on first use (PEP 562).  The module checks run in fresh
interpreters, since this test process has every module loaded already."""

import json

from conftest import FIG_NETWORK, python, reciprocated_tree

#: every name the package exported by importing it eagerly, by the module
#: that defines it, and the referees it forwards to ``oracle``
EXPORTS = {
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

# the names of EXPORTS (argv[1]) through `from tempokatz import`, module by
# module: each is the object of the package's attribute and of its module,
# which is the package's attribute too; after the import and after each
# module's names, the package's modules loaded
FIRST_USE = """
import json
import sys

import tempokatz

print(sorted(k[10:] for k in sys.modules if k.startswith("tempokatz.")))
for module, names in json.loads(sys.argv[1]).items():
    for name in names:
        exec(f"from tempokatz import {name} as found")
        defining = sys.modules[f"tempokatz.{module}"]
        assert found is getattr(tempokatz, name) is getattr(defining, name)
    assert getattr(tempokatz, module) is defining
    print(sorted(k[10:] for k in sys.modules if k.startswith("tempokatz.")))
"""


def test_each_name_loads_its_module_on_first_use():
    # importing the package loads none of its modules; the names of each
    # module load it and the modules it imports, and no other.  An unknown
    # name still raises AttributeError naming the module:
    # test_oracle.py::test_forwarded_names_are_the_oracle_functions
    order = ("temporal_graph", "line_space", "spectral", "matfun", "centrality", "oracle")
    result = python(FIRST_USE, json.dumps({module: EXPORTS[module] for module in order}))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [str(sorted(order[:k])) for k in range(len(order) + 1)]


# the console script's call of each argument list of a JSON list, its output
# moved to stderr; then stdout lists the tempokatz and numpy modules loaded
MODULES = """
import contextlib
import json
import sys

from tempokatz.cli import main

with contextlib.redirect_stdout(sys.stderr):
    code = max(main(argv) for argv in json.loads(sys.argv[1]))
print(" ".join(sorted(k for k in sys.modules if k.split(".")[0] in ("tempokatz", "numpy"))))
sys.exit(code)
"""


def loaded(runs):
    result = python(MODULES, json.dumps(runs))
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # the worked network; a 250-row A with a 3-cycle, whose radius takes the
    # strongly connected components; and a reciprocated tree of 300 edges,
    # whose Hashimoto block nbt-both factors dense above 1/2
    fig, wide, tree, coeffs = (tmp_path / f for f in ("fig.txt", "wide.txt", "tree.txt", "c.txt"))
    fig.write_text(FIG_NETWORK)
    wide.write_text("%n 250\n0 1 1\n1 2 1\n2 0 1\n")
    tree.write_text(reciprocated_tree(151))
    coeffs.write_text("1\n1\n0.5\n")
    modes = ("standard", "nbt-space", "nbt-time", "nbt-both")
    validate = loaded([["validate", str(fig)]])
    assert "tempokatz.temporal_graph" in validate
    engine = {"tempokatz.line_space", "tempokatz.matfun", "tempokatz.spectral", "tempokatz.centrality"}
    assert not validate & engine
    numpy = {k for k in validate if k.split(".")[0] == "numpy"}
    check = loaded(
        [["check-alpha", str(path), "--mode", mode] for path in (fig, wide) for mode in modes]
    )
    assert "tempokatz.spectral" in check
    assert not check & {"tempokatz.matfun", "tempokatz.centrality"}
    # no numpy module that validate does not load: on numpy 2 a plain
    # np.unique imports numpy.ma, which numpy 1 loads with numpy itself
    assert {k for k in check if k.split(".")[0] == "numpy"} <= numpy
    runs = [
        ["rank", str(path), "--alpha", "0.3", "--function", function, "--mode", mode,
         "--measure", measure]
        for path in (fig, wide)
        for function in ("katz", "exponential", f"coeffs:{coeffs}")
        for mode in modes
        for measure in ("tc", "sc")
    ]
    runs += [
        ["rank", str(tree), "--alpha", "0.75", "--mode", mode] for mode in ("nbt-space", "nbt-both")
    ]
    runs += [["dump-matrix", str(fig), "M", "--mode", mode] for mode in modes]
    runs += [["dump-matrix", str(fig), which] for which in ("L", "R", "A:1", "W:1", "B:1")]
    rest = loaded(runs)
    assert {"tempokatz.matfun", "tempokatz.centrality"} <= rest
    assert {k for k in rest if k.split(".")[0] == "numpy"} <= numpy
