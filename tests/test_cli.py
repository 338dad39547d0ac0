"""End-to-end command-line behavior and exit codes."""

import json
from argparse import Namespace

import pytest

from skelgrow.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK,
                          EXIT_STALLED, _parse_scorer, cmd_bench, main)
from skelgrow.edge_scoring import GRID_ALONG, GRID_LATERAL
from skelgrow.errors import ConfigError
from skelgrow.search import SearchContext

_SMALL_SPEC = {"n_leaders": 2, "leader_height": 1.0, "seed": 1}


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = _write_json(out / "spec.json", _SMALL_SPEC)
    assert main(["synth", "--spec", spec, "--out", str(out)]) == EXIT_OK
    return out


def test_synth_outputs(synth_dir, tmp_path):
    for name in ("cloud.ply", "truth.json", "override.json"):
        assert (synth_dir / name).exists()
    # Re-running with the same spec is byte-identical.
    spec = _write_json(tmp_path / "spec.json", _SMALL_SPEC)
    assert main(["synth", "--spec", spec, "--out", str(tmp_path)]) == EXIT_OK
    for name in ("cloud.ply", "truth.json", "override.json"):
        assert (tmp_path / name).read_bytes() == \
            (synth_dir / name).read_bytes()


def test_synth_invalid_spec_value(tmp_path):
    spec = _write_json(tmp_path / "spec.json", {"n_leaders": 0})
    assert main(["synth", "--spec", spec,
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_synth_unknown_spec_key(tmp_path):
    spec = _write_json(tmp_path / "spec.json", {"n_trunks": 2})
    assert main(["synth", "--spec", spec,
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_skeletonize_missing_cloud(tmp_path):
    code = main(["skeletonize", "--cloud", str(tmp_path / "nope.ply"),
                 "--out", str(tmp_path)])
    assert code == EXIT_IO


def test_skeletonize_invalid_config(synth_dir, tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"alpha_conf": 1.0})
    code = main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_end_to_end_skeletonize_and_eval(synth_dir, tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"K": 50, "seed": 1})
    out = tmp_path / "run"
    code = main([
        "skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
        "--config", cfg,
        "--scorer", f"override:{synth_dir / 'override.json'}",
        "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "skeleton.json").exists()
    assert (out / "skeleton.ply").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["best_score"] > 0
    assert manifest["config"]["K"] == 50

    report = tmp_path / "report.json"
    code = main(["eval", "--skeleton", str(out / "skeleton.json"),
                 "--reference", str(out / "skeleton.json"),
                 "--out", str(report)])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["global"]["distance"] == 0
    assert doc["global"]["ratio"] == 0.0


@pytest.mark.parametrize("kind", ["graph", "scores"])
def test_truncated_cache_is_rebuilt(synth_dir, tmp_path, kind):
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    out = tmp_path / "run"
    argv = ["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
            "--config", cfg, "--out", str(out)]
    assert main(argv) == EXIT_OK
    first = (out / "skeleton.json").read_bytes()
    (cache,) = out.glob(f"cache_{kind}_*.json")
    data = cache.read_bytes()
    cache.write_bytes(data[:len(data) // 2])
    assert main(argv) == EXIT_OK
    assert (out / "skeleton.json").read_bytes() == first
    assert cache.read_bytes() == data  # rewritten in full
    assert not list(out.glob("*.tmp"))


def _zero_weight_model(path, bias):
    """A one-layer model that gives every edge sigmoid(bias)."""
    n_in = GRID_ALONG * GRID_LATERAL + 4
    return _write_json(path, {"layers": [
        {"rows": 1, "cols": n_in, "weights": [0.0] * n_in, "bias": [bias]}]})


def test_edited_model_file_is_rescored(synth_dir, tmp_path):
    """Scores cached for a model are not reused once its file changes: with
    every edge below alpha_conf the rerun stalls like a fresh run does."""
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    model = tmp_path / "model.json"

    def run(out):
        return main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                     "--config", cfg, "--scorer", f"model:{model}",
                     "--out", str(tmp_path / out)])

    _zero_weight_model(model, 5.0)
    assert run("run") == EXIT_OK
    _zero_weight_model(model, -5.0)
    assert run("fresh") == EXIT_STALLED
    assert run("run") == EXIT_STALLED
    assert len(list((tmp_path / "run").glob("cache_scores_*.json"))) == 2


def test_override_scores_are_not_cached(synth_dir, tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    out = tmp_path / "run"
    assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--config", cfg,
                 "--scorer", f"override:{synth_dir / 'override.json'}",
                 "--out", str(out)]) == EXIT_OK
    assert list(out.glob("cache_graph_*.json"))
    assert not list(out.glob("cache_scores_*.json"))


def test_skeletonize_builds_one_search_context(synth_dir, tmp_path,
                                               monkeypatch):
    """The search and the side-branch step share one set of per-edge
    tables: a run constructs ``SearchContext`` once."""
    built = []
    init = SearchContext.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SearchContext, "__init__", counting_init)
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK
    assert len(built) == 1


def test_eval_empty_reference(synth_dir, tmp_path):
    empty = _write_json(tmp_path / "empty.json", {
        "base": 0, "nodes": [{"id": 0, "pos": [0, 0, 0]}], "edges": []})
    one = _write_json(tmp_path / "one.json", {
        "base": 0,
        "nodes": [{"id": 0, "pos": [0, 0, 0]}, {"id": 1, "pos": [0, 0, 1]}],
        "edges": [{"parent": 0, "child": 1, "label": "Trunk"}]})
    assert main(["eval", "--skeleton", one,
                 "--reference", empty]) == EXIT_DATA


def test_eval_with_corrections(tmp_path):
    skel = _write_json(tmp_path / "skel.json", {
        "base": 0,
        "nodes": [{"id": n, "pos": [0, 0, 0.1 * n]} for n in range(3)],
        "edges": [{"parent": 0, "child": 1, "label": "Trunk"},
                  {"parent": 1, "child": 2, "label": "Leader"}]})
    ref = _write_json(tmp_path / "ref.json", {
        "base": 0,
        "nodes": [{"id": n, "pos": [0, 0, 0.1 * n]} for n in range(3)],
        "edges": [{"parent": 0, "child": 1, "label": "Trunk"},
                  {"parent": 1, "child": 2, "label": "Support"}]})
    # The correction relabels the reference to match the skeleton.
    script = _write_json(tmp_path / "fix.json", {"operations": [
        {"op": "relabel", "parent": 1, "child": 2, "label": "Leader"}]})
    report = tmp_path / "report.json"
    code = main(["eval", "--skeleton", skel, "--reference", ref,
                 "--corrections", script, "--out", str(report)])
    assert code == EXIT_OK
    assert json.loads(report.read_text())["global"]["distance"] == 0


def test_eval_bad_correction_step(tmp_path):
    skel = _write_json(tmp_path / "skel.json", {
        "base": 0,
        "nodes": [{"id": 0, "pos": [0, 0, 0]}, {"id": 1, "pos": [0, 0, 1]}],
        "edges": [{"parent": 0, "child": 1, "label": "Trunk"}]})
    script = _write_json(tmp_path / "fix.json", [
        {"op": "remove-edge", "parent": 8, "child": 9}])
    assert main(["eval", "--skeleton", skel, "--reference", skel,
                 "--corrections", script]) == EXIT_DATA


def test_bench_requires_sizes():
    args = Namespace(sizes=[], config=None, seed=None, out="unused.csv")
    with pytest.raises(ConfigError):
        cmd_bench(args)


def test_parse_scorer():
    assert _parse_scorer("heuristic") == ("heuristic",)
    assert _parse_scorer("model:m.json") == ("model", "m.json")
    assert _parse_scorer("override:o.json") == ("override", "o.json")
    with pytest.raises(ConfigError):
        _parse_scorer("model:")
    with pytest.raises(ConfigError):
        _parse_scorer("bogus")
