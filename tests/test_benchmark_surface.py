"""The benchmark's traced run (perfbench/layers.py) calls the package by
name: every function a layer metric times must exist and take the keywords
it is called with, or its metric goes missing from the traced row."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import run

    return layers, run


def test_every_layer_metric_finds_its_calls(bench, tmp_path):
    layers, run = bench
    ctx = layers.Context(run.Plan(run.WORKLOADS["long-horizon"], 1, tmp_path))
    tracer = layers.Tracer()
    for metric, prepare, after in layers.LAYERS:
        try:
            thunk = prepare(ctx)
        except layers.Missing as exc:
            pytest.fail(f"{metric}: {exc} is not in the package")
        result = ctx.call(tracer, metric, thunk)
        if after is not None and result is not None:
            after(ctx, result)
    assert layers._radius_iterations(ctx) >= 0
    assert (ctx.failed, ctx.errors) == (0, [])
    assert ctx.attempted == len(layers.LAYERS)
    assert "line_space.nnz_M" in ctx.counts and "matfun.series_terms" in ctx.counts
