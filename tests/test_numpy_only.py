"""SciPy loads only in the functions that call it: importing the package and
``tempokatz validate`` run on numpy alone, and ``dump-matrix`` loads
``scipy.sparse`` without its solvers.  Each check runs in a fresh
interpreter, since this test process has SciPy loaded already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# a finder ahead of every other that refuses scipy and each of its submodules
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""

# the console script's call, its output moved to stderr; then stdout lists
# the scipy modules left loaded
MAIN = """
import contextlib
import sys

import tempokatz
from tempokatz.cli import main

with contextlib.redirect_stdout(sys.stderr):
    code = main(sys.argv[1:])
print(" ".join(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
sys.exit(code)
"""


@pytest.fixture
def edges(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 1\n1 0 1\n0 1 1\n1 2 2\n")
    return str(path)


def python(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_import_and_validate_without_scipy(edges):
    result = python(BLOCK_SCIPY + MAIN, "validate", edges)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == ["n = 3", "N = 2", "m = 3", "duplicates_collapsed = 1"]


def test_validate_leaves_no_scipy_module_loaded(edges):
    result = python(MAIN, "validate", edges)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


@pytest.mark.parametrize("which", ["M", "B:1"])
def test_dump_matrix_loads_sparse_arrays_only(edges, which):
    result = python(MAIN, "dump-matrix", edges, which)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "scipy.sparse" in loaded
    assert not loaded & {"scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph"}
