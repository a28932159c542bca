"""Check one benchmark result row, read as JSON from stdin.

Usage: perfbench/run.py ... | tail -n 1 | python3 check_bench_row.py TRACE WORKLOAD

The row must parse without NaN or Infinity, read ``"correct": true``, have
attempted calls and 0 failed, and carry a finite value for every metric
that BENCHMARK.json lists for the trace setting: ``end_to_end`` at 0,
``per_layer`` at 1.  Exits 1 with a message naming what is missing
otherwise.
"""

import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def reject(constant):
    raise ValueError(f"{constant} in the result row")


def finite(value):
    return type(value) in (int, float) and math.isfinite(value)


def main(trace, workload):
    row = json.loads(sys.stdin.read(), parse_constant=reject)
    kind = "per_layer" if trace == "1" else "end_to_end"
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())[kind]]
    values = {k: v.get("value") for k, v in row["metrics"].items()}
    missing = [n for n in names if not finite(values.get(n))]
    if row["correct"] is not True or row["failed"] != 0 or not row["attempted"] or missing:
        sys.exit(f"{workload} trace {trace}: bad row, missing or non-finite {missing}: {row}")


if __name__ == "__main__":
    main(*sys.argv[1:])
