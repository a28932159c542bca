"""The CI smoke step's row checker (.github/scripts/check_bench_row.py)
accepts a complete, correct benchmark row and rejects every defect it
names: NaN, a missing metric, a failed or no call, a wrong result, a line
that is not JSON."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKER = ROOT / ".github" / "scripts" / "check_bench_row.py"
NAMES = {
    trace: [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer"))
}


def row(trace, **changes):
    metrics = {name: {"value": 0.5, "unit": "s"} for name in NAMES[trace]}
    return {"correct": True, "failed": 0, "attempted": 12, "metrics": metrics, **changes}


def check(text, trace):
    return subprocess.run(
        [sys.executable, str(CHECKER), trace, "long-horizon"], input=text,
        capture_output=True, text=True,
    ).returncode


@pytest.mark.parametrize("trace", ["0", "1"])
def test_checker_accepts_a_complete_row(trace):
    assert check(json.dumps(row(trace)), trace) == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_checker_rejects_each_defect(trace):
    name = NAMES[trace][0]
    drop = row(trace)
    del drop["metrics"][NAMES[trace][-1]]
    for bad in (
        json.dumps(row(trace, correct=False)),
        json.dumps(row(trace, failed=1)),
        json.dumps(row(trace, attempted=0)),
        json.dumps(drop),
        json.dumps(row(trace)).replace('"value": 0.5', '"value": NaN', 1),
        json.dumps(row(trace)).replace('"value": 0.5', '"value": null', 1),
        json.dumps(row("1" if trace == "0" else "0")),
        f"traced rounds 1; {name}",
    ):
        assert check(bad, trace) == 1, bad
