"""The benchmark's traced round, run here in process: perfbench's
``Tracer`` wraps names in ``skelgrow.cli``, ``skelgrow.search`` and
``LabeledSkeleton``, so a renamed, removed or bypassed name would drop its
per-layer metrics, and a non-finite one would make the result line
unreadable as JSON. This reads ``perfbench/tracing.py`` and
``BENCHMARK.json`` and changes neither.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from skelgrow.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
# Computed by perfbench/run.py itself, not by the tracer.
RUN_METRICS = {"trace.overhead_s", "output.changed_trees"}


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.mark.parametrize("scorer", ["heuristic", "override"])
def test_traced_skeletonize_reports_every_per_layer_metric(tmp_path,
                                                           scorer):
    """A ``skeletonize`` of a small tree under the tracer, with the
    heuristic or with synth's oracle override table (the ``oracle-corpus``
    scorer), reports every per-layer metric BENCHMARK.json names, all
    finite, and writes the same ``skeleton.json`` as an untraced run.
    The cache counters read no hit after the cold run; a warm rerun into
    the same directory adds one graph cache hit and, with the heuristic,
    one score cache hit (override scores are not cached)."""
    (tmp_path / "spec.json").write_text(json.dumps(
        {"n_leaders": 2, "leader_height": 1.0, "seed": 1}))
    # The override table is keyed to the graph of synth's own seed.
    (tmp_path / "cfg.json").write_text(json.dumps({"K": 20, "seed": 1}))
    synth = tmp_path / "synth"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(synth)]) == EXIT_OK
    warm_hits = [1, 1]
    if scorer == "override":
        scorer = f"override:{synth / 'override.json'}"
        warm_hits = [1, 0]

    def skeletonize(out):
        assert main(["skeletonize", "--cloud", str(synth / "cloud.ply"),
                     "--config", str(tmp_path / "cfg.json"),
                     "--scorer", scorer, "--out", str(out)]) == EXIT_OK
        return (out / "skeleton.json").read_bytes()

    untraced = skeletonize(tmp_path / "untraced")
    tracer = _tracer()
    tracer.install()
    try:
        traced = skeletonize(tmp_path / "traced")
        cold = tracer.metrics()
        warm = skeletonize(tmp_path / "traced")
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    hits = ("cli.graph_cache_hits", "cli.score_cache_hits")
    assert [cold[name][0] for name in hits] == [0, 0]
    assert [metrics[name][0] for name in hits] == warm_hits

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]} - RUN_METRICS
    assert sorted(names - set(metrics)) == []
    json.dumps({name: value for name, (value, _) in metrics.items()},
               allow_nan=False)
    assert traced == warm == untraced
