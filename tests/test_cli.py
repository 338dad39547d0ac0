"""End-to-end command-line behavior and exit codes."""

import functools
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import skelgrow
from skelgrow import cli, search
from conftest import (conf_from_dict, make_graph, recomputed_score,
                      uniform_conf)
from skelgrow.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK,
                          EXIT_STALLED, _grow_skeleton, _parse_scorer,
                          cmd_bench, main)
from skelgrow.cloud import PointCloud, _write_ply, export_cloud, load_cloud
from skelgrow.config import SearchConfig
from skelgrow.edge_scoring import GRID_ALONG, GRID_LATERAL
from skelgrow.errors import ConfigError
from skelgrow.search import SearchContext, run_search
from skelgrow.seeds import SeedSet
from skelgrow.spatial import GridIndex
from skelgrow.values import write_json

_SMALL_SPEC = {"n_leaders": 2, "leader_height": 1.0, "seed": 1}
#: test_golden's digest of this tree's skeleton (override, K=50, seed 1).
ORACLE_2_LEADERS = \
    "f24180a5595fe024259315543f40c9364749150807a7e6f9545a59ded989e69c"


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _cache_outcomes(out):
    """{kind: outcome} from the run manifest, after checking that each
    named cache file exists."""
    caches = json.loads((out / "run_manifest.json").read_text())["caches"]
    for entry in caches.values():
        assert entry["file"] is None or (out / entry["file"]).exists()
    return {kind: entry["outcome"] for kind, entry in caches.items()}


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


@pytest.mark.parametrize("doc", [
    {"n_leaders": 2.5}, {"leader_spacing": math.nan},
    {"gap_probability": 3}, {"points_per_meter": 0}, {"gap_length": 0},
    {"noise_sigma": -0.01}, {"n_side_branches": -1}, {"seed": -1},
    {"seed": True}, {"allow_junction_gaps": True}, [{"n_leaders": 2}]],
    ids=["float-int", "nan", "gap-probability", "density", "gap-length",
         "noise", "side-branches", "seed", "bool-seed", "junction-gaps-key",
         "list-root"])
def test_synth_spec_it_cannot_honour_rejected(tmp_path, doc, capsys):
    """Each bad spec exits 3 with nothing written."""
    spec = _write_json(tmp_path / "spec.json", doc)
    out = tmp_path / "out"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: invalid configuration")
    assert not out.exists()


@pytest.mark.parametrize("spec", [None, _SMALL_SPEC], ids=["default", "file"])
def test_synth_negative_seed_rejected(tmp_path, spec):
    args = [] if spec is None else [
        "--spec", _write_json(tmp_path / "spec.json", spec)]
    out = tmp_path / "out"
    assert main(["synth", *args, "--seed", "-1",
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_skeletonize_missing_cloud(tmp_path):
    code = main(["skeletonize", "--cloud", str(tmp_path / "nope.ply"),
                 "--out", str(tmp_path)])
    assert code == EXIT_IO


def test_skeletonize_invalid_config(synth_dir, tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"alpha_conf": 1.0})
    code = main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("doc", [{"c_turn": "abc"}, {"r_super": math.inf},
                                 {"c_grow": math.nan}],
                         ids=["str", "inf", "nan"])
def test_skeletonize_config_value_not_a_number(synth_dir, tmp_path, doc):
    cfg = _write_json(tmp_path / "cfg.json", doc)
    code = main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--scorer", f"override:{synth_dir / 'override.json'}",
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
    assert manifest["threads"] == 1 and manifest["threads_used"] == 1
    assert manifest["graph"] == {
        "components": 1, "base_component_size": manifest["n_superpoints"],
        "tips_outside_base_component": 0}

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
    other = {"graph": "scores", "scores": "graph"}[kind]
    assert _cache_outcomes(out) == {kind: "rebuilt", other: "hit"}
    assert cache.read_bytes() == data  # rewritten in full
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("values", [
    lambda n: [0.5] * 10, lambda n: [5.0] * n, lambda n: [10**400] * n],
    ids=["ten-values", "all-five", "huge-int"])
def test_score_cache_out_of_range_is_rebuilt(synth_dir, tmp_path, values):
    """A score cache of the wrong length, or with every score at 5.0 or at
    an int too large for a float, is checked like an override table and
    rebuilt, not used."""
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    out = tmp_path / "run"
    argv = ["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
            "--config", cfg, "--out", str(out)]
    assert main(argv) == EXIT_OK
    cold = (out / "skeleton.json").read_bytes()
    (cache,) = out.glob("cache_scores_*.json")
    doc = json.loads(cache.read_text())
    doc["values"] = values(len(doc["values"]))
    cache.write_text(json.dumps(doc))
    assert main(argv) == EXIT_OK
    assert _cache_outcomes(out) == {"graph": "hit", "scores": "rebuilt"}
    assert (out / "skeleton.json").read_bytes() == cold


@pytest.mark.parametrize("tamper", [
    lambda doc: doc["edges"].append([7, 7]),
    lambda doc: doc["edges"].append([3, 0]),
    lambda doc: doc["edges"].append(doc["edges"][-1]),
    lambda doc: doc["edges"].insert(0, [-1, 0]),
    lambda doc: doc["edges"][-1].__setitem__(1, doc["edges"][-1][1] + 0.0),
    lambda doc: doc["positions"][3].__setitem__(0, math.nan),
    lambda doc: doc["positions"][3].__setitem__(0, "0.5"),
    lambda doc: doc.update(positions=[["0", "0", "0"], [True, "1e-1", 0]],
                           edges=[[0, 1]])],
    ids=["self-loop", "reversed", "duplicate", "negative-id", "float-id",
         "nan-position", "str-coordinate", "str-and-bool-graph"])
def test_graph_cache_failing_its_checks_is_rebuilt(synth_dir, tmp_path,
                                                   tamper):
    """A graph cache with a self-loop, a reversed or repeated edge, an
    edge end that is negative or a float, or a position that is NaN or
    holds a string or a bool is rebuilt, not used."""
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    out = tmp_path / "run"
    argv = ["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
            "--config", cfg, "--out", str(out)]
    assert main(argv) == EXIT_OK
    cold = (out / "skeleton.json").read_bytes()
    (cache,) = out.glob("cache_graph_*.json")
    doc = json.loads(cache.read_text())
    tamper(doc)
    cache.write_text(json.dumps(doc))
    assert main(argv) == EXIT_OK
    assert _cache_outcomes(out)["graph"] == "rebuilt"
    assert (out / "skeleton.json").read_bytes() == cold


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
    assert _cache_outcomes(out) == {"graph": "miss", "scores": "none"}


def test_skeletonize_builds_one_cloud_index(synth_dir, tmp_path,
                                            monkeypatch):
    """A cold run builds one neighbour index over the cloud, shared by the
    superpoint cover and the scoring (plus one over the superpoints for
    the dense edges), and misses both caches; a warm rerun hits both
    caches and builds none."""
    built = []
    init = GridIndex.__init__

    def counting_init(self, points, r):
        built.append(len(points))
        init(self, points, r)

    monkeypatch.setattr(GridIndex, "__init__", counting_init)
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    out = tmp_path / "run"
    argv = ["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
            "--config", cfg, "--out", str(out)]
    assert main(argv) == EXIT_OK
    n_superpoints = json.loads(
        (out / "run_manifest.json").read_text())["n_superpoints"]
    assert built == [len(load_cloud(synth_dir / "cloud.ply")), n_superpoints]
    assert _cache_outcomes(out) == {"graph": "miss", "scores": "miss"}
    first = (out / "skeleton.json").read_bytes()

    built.clear()
    assert main(argv) == EXIT_OK
    assert built == []
    assert _cache_outcomes(out) == {"graph": "hit", "scores": "hit"}
    assert (out / "skeleton.json").read_bytes() == first


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(synth_dir, tmp_path, threads, capsys):
    out = tmp_path / "run"
    assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--threads", threads, "--out", str(out)]) == EXIT_CONFIG
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("points", ["0", "-5"])
def test_points_below_one_rejected_before_any_output(synth_dir, tmp_path,
                                                     points, capsys):
    """Both commands check --points before they read or write a file."""
    out = tmp_path / "run"
    assert main(["skeletonize", "--cloud", str(tmp_path / "absent.ply"),
                 "--points", points, "--out", str(out)]) == EXIT_CONFIG
    assert "--points must be at least 1" in capsys.readouterr().err
    spec = _write_json(tmp_path / "spec.json", _SMALL_SPEC)
    assert main(["synth", "--spec", spec, "--points", points,
                 "--out", str(out)]) == EXIT_CONFIG
    assert "--points must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [{"crop.min": [5, 5, 5]},
                                 {"crop.max": [5, 5, 5]},
                                 {"crop.min": [0, 0, 1],
                                  "crop.max": [9, 9, 0]}],
                         ids=["min-only", "max-only", "inverted"])
def test_skeletonize_bad_crop_box_rejected(synth_dir, tmp_path, doc):
    cfg = _write_json(tmp_path / "cfg.json", doc)
    out = tmp_path / "run"
    assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_crop_box_lowers_superpoint_count(synth_dir, tmp_path):
    """A two-corner crop that cuts the top fifth off the cloud leaves
    fewer superpoints, and the manifest records the box."""
    points = load_cloud(synth_dir / "cloud.ply").points
    lo = [float(x) - 1.0 for x in points.min(axis=0)]
    hi = [float(x) + 1.0 for x in points.max(axis=0)]
    hi[2] = float(points[:, 2].min() + 0.8 * np.ptp(points[:, 2]))

    def n_superpoints(name, doc):
        cfg = _write_json(tmp_path / f"{name}.json", {"K": 20, **doc})
        out = tmp_path / name
        assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                     "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        return manifest["n_superpoints"], manifest["crop"]

    full, crop = n_superpoints("full", {})
    assert crop == {"min": None, "max": None}
    cropped, crop = n_superpoints("cropped", {"crop.min": lo, "crop.max": hi})
    assert crop == {"min": lo, "max": hi}
    assert 0 < cropped < full


def test_base_node_and_base_point(synth_dir, tmp_path):
    """--base-node N grows from node N, and --base-point grows from the
    superpoint nearest the point."""
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})

    def skeleton(name, *base_args):
        out = tmp_path / name
        assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                     "--config", cfg, *base_args,
                     "--out", str(out)]) == EXIT_OK
        return json.loads((out / "skeleton.json").read_text())

    default = skeleton("default")
    # The child of the default base: not the lowest superpoint.
    node = next(e["child"] for e in default["edges"]
                if e["parent"] == default["base"])
    assert skeleton("node", "--base-node", str(node))["base"] == node
    pos = next(n["pos"] for n in default["nodes"] if n["id"] == node)
    point = [str(x + 0.01) for x in pos]
    assert skeleton("point", "--base-point", *point)["base"] == node


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_base_point_rejected_before_any_output(tmp_path, value,
                                                          capsys):
    out = tmp_path / "run"
    assert main(["skeletonize", "--cloud", str(tmp_path / "absent.ply"),
                 "--base-point", "0", value, "0",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "--base-point must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cache_from_other_code_is_missed(synth_dir, tmp_path, monkeypatch):
    """Both cache keys include a digest of the package's sources: once it
    changes, a warm rerun misses both caches."""
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    out = tmp_path / "run"
    argv = ["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
            "--config", cfg, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert _cache_outcomes(out) == {"graph": "hit", "scores": "hit"}
    monkeypatch.setattr(cli, "_code_digest", lambda: "other code")
    assert main(argv) == EXIT_OK
    assert _cache_outcomes(out) == {"graph": "miss", "scores": "miss"}
    assert len(list(out.glob("cache_graph_*.json"))) == 2


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


def test_nan_override_score_rejected(synth_dir, tmp_path, capsys):
    doc = json.loads((synth_dir / "override.json").read_text())
    doc["scores"][min(doc["scores"])] = float("nan")
    override = _write_json(tmp_path / "override.json", doc)
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--config", cfg, "--scorer", f"override:{override}",
                 "--out", str(tmp_path / "run")]) == EXIT_DATA
    assert "override scores must lie in [0, 1]" in capsys.readouterr().err


def test_override_for_other_r_super_names_the_key(synth_dir, tmp_path,
                                                  capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"r_super": 0.12})
    assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--config", cfg,
                 "--scorer", f"override:{synth_dir / 'override.json'}",
                 "--out", str(tmp_path / "run")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "override file missing" in err and "r_super" in err


def test_override_with_keys_for_absent_edges_rejected(synth_dir, tmp_path,
                                                      capsys):
    """A table with every edge of the graph and more was written for
    another graph."""
    doc = json.loads((synth_dir / "override.json").read_text())
    doc["scores"]["99998-99999"] = 0.5
    override = _write_json(tmp_path / "override.json", doc)
    assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--seed", "1", "--scorer", f"override:{override}",
                 "--out", str(tmp_path / "run")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "1 keys for edges the graph lacks: ['99998-99999']" in err
    assert "r_super" in err


@pytest.mark.parametrize("score", [None, True, "0.5", "list-root"],
                         ids=["null-score", "bool-score", "str-score",
                              "list-root"])
def test_malformed_override_document_rejected(synth_dir, tmp_path, score,
                                              capsys):
    """The graph's own table with one score that is not a number, or that
    table's scores as a list."""
    doc = json.loads((synth_dir / "override.json").read_text())
    if score == "list-root":
        doc = list(doc["scores"].values())
    else:
        doc["scores"][min(doc["scores"])] = score
    override = _write_json(tmp_path / "override.json", doc)
    assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--seed", "1", "--scorer", f"override:{override}",
                 "--out", str(tmp_path / "run")]) == EXIT_DATA
    assert "error: override" in capsys.readouterr().err


@pytest.mark.parametrize("layer", [
    {"cols": GRID_ALONG * GRID_LATERAL + 4},
    {"rows": 1, "cols": GRID_ALONG * GRID_LATERAL + 4,
     "weights": ["w"] * (GRID_ALONG * GRID_LATERAL + 4), "bias": [0.0]},
    {"rows": 1.5, "cols": GRID_ALONG * GRID_LATERAL + 4, "weights": [],
     "bias": [0.0]},
    {"rows": 1, "cols": GRID_ALONG * GRID_LATERAL + 4,
     "weights": [0.0] * (GRID_ALONG * GRID_LATERAL + 4), "bias": [math.nan]},
    {"rows": 1, "cols": GRID_ALONG * GRID_LATERAL + 4,
     "weights": ["0.5"] * (GRID_ALONG * GRID_LATERAL + 4), "bias": [0.0]},
    {"rows": 1, "cols": GRID_ALONG * GRID_LATERAL + 4,
     "weights": [0.0] * (GRID_ALONG * GRID_LATERAL + 4), "bias": [True]},
    "layer",
    # The row written as its transpose: 516 lists of 1.
    {"rows": 1, "cols": GRID_ALONG * GRID_LATERAL + 4,
     "weights": [[0.0]] * (GRID_ALONG * GRID_LATERAL + 4), "bias": [0.0]}],
    ids=["no-rows", "str-weights", "float-rows", "nan-bias",
         "numeric-str-weights", "bool-bias", "str-layer", "transposed"])
def test_malformed_model_document_rejected(synth_dir, tmp_path, layer,
                                           capsys):
    for name, doc in (("layer", {"layers": [layer]}), ("root", [layer])):
        model = _write_json(tmp_path / f"{name}.json", doc)
        assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                     "--scorer", f"model:{model}",
                     "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert "invalid configuration" in capsys.readouterr().err


def test_tips_outside_base_component_warned(caplog):
    """Two vertical chains with no edge between them: the second chain's
    tip is cut off from the base, which the manifest and a warning say."""
    positions = [(0.0, 0.0, 0.15 * k) for k in range(5)]
    positions += [(1.0, 0.0, 0.15 * k) for k in range(1, 5)]
    graph = make_graph(positions, [(k, k + 1) for k in range(4)]
                       + [(k, k + 1) for k in range(5, 8)])
    with caplog.at_level(logging.WARNING, logger="skelgrow"):
        _, info = _grow_skeleton(graph, uniform_conf(graph), "lowest-z",
                                 SearchConfig(K=5), {})
    assert info["graph"] == {"components": 2, "base_component_size": 5,
                             "tips_outside_base_component": 1}
    assert info["tip_outcomes"] == {4: "reached",
                                    8: "outside_base_component"}
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("1 of 2 tips lie outside the base's "
                                  "component")


def _assert_tip_4_abandoned(monkeypatch, caplog, empty):
    """A chain from the base up to tip 4, tip 9 beside it and tip 8 cut off
    by a gap, searched with every scan toward ``tip`` from ``cand`` empty
    where ``empty(tip, cand)`` holds: the best skeleton reaches tip 9, and
    tip 4 is abandoned, told apart from tip 8, and named in a warning."""
    positions = [(0.0, 0.0, 0.15 * k) for k in range(5)]
    positions += [(1.0, 0.0, 0.15 * k) for k in range(1, 5)]
    positions += [(0.15, 0.0, 0.3)]
    graph = make_graph(positions, [(k, k + 1) for k in range(4)]
                       + [(k, k + 1) for k in range(5, 8)] + [(2, 9)])
    real_prior, real_eligible = search.PathPrior, search.eligible_pairs
    tip_of = {}

    def prior(ctx, tip):
        built = real_prior(ctx, tip)
        tip_of[built] = tip
        return built

    def eligible(cand, prior, ctx):
        if empty(tip_of[prior], cand):
            return []
        return real_eligible(cand, prior, ctx)

    monkeypatch.setattr(search, "PathPrior", prior)
    monkeypatch.setattr(search, "eligible_pairs", eligible)
    with caplog.at_level(logging.WARNING, logger="skelgrow"):
        skeleton, info = run_search(graph, uniform_conf(graph),
                                    SeedSet(tips=(4, 8, 9), base=0),
                                    SearchConfig(K=5))
    assert sorted(skeleton.edges()) == [(0, 1), (1, 2), (2, 9)]
    assert info["tip_outcomes"] == {4: "abandoned_reachable",
                                    8: "outside_base_component",
                                    9: "reached"}
    assert "abandoned_tips" not in info
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert len(warnings) == 2
    assert warnings[0].startswith("1 of 3 tips lie outside the base's "
                                  "component")
    assert warnings[1] == ("the skeleton abandons tips [4] although the "
                           "base's component of the dense graph holds them")


def test_abandoned_reachable_tip_warned(monkeypatch, caplog):
    """Every scan toward tip 4 comes back empty, and scans toward tip 9
    do too while tip 4 is open, so each lineage abandons tip 4 before it
    grows to tip 9; ``tip_outcomes`` alone states each tip's fate, with no
    list of abandoned tips in the manifest to disagree with it."""
    _assert_tip_4_abandoned(monkeypatch, caplog,
                            lambda tip, cand: tip == 4 or 4 in cand.open)


def test_final_winner_abandons_tip_4_and_reaches_tip_9(monkeypatch,
                                                       caplog):
    """Only the scans toward tip 4 come back empty, so every candidate of
    the final population has abandoned tip 4: the winner reaches tip 9,
    and tip 4 is ``abandoned_reachable`` and named in a warning."""
    _assert_tip_4_abandoned(monkeypatch, caplog, lambda tip, cand: tip == 4)


def test_final_winner_reaches_tip_past_a_costly_edge(chain_graph, caplog):
    """Growing from tip 2 on to tip 4 costs score (confidence 0 above node
    2), yet every lineage grows on to tip 4, so the winner of the final
    population reaches both tips with no warning. Its score is its own,
    below the best score of the snapshot that stopped at tip 2, which
    ``best_score_history`` still records; the manifest has no ``final_*``
    keys. With every confidence 0 no candidate ever scores above zero, and
    the winner is still the grown chain, not a stalled search."""
    conf = conf_from_dict(chain_graph, {(0, 1): 1.0, (1, 2): 1.0})
    cfg = SearchConfig(K=5)
    with caplog.at_level(logging.WARNING, logger="skelgrow"):
        skeleton, info = run_search(chain_graph, conf,
                                    SeedSet(tips=(2, 4), base=0), cfg)
    assert sorted(skeleton.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert info["reached_tips"] == [2, 4]
    assert info["tip_outcomes"] == {2: "reached", 4: "reached"}
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    ctx = SearchContext(chain_graph, conf, cfg)
    assert info["best_score"] == pytest.approx(
        recomputed_score(skeleton, ctx), rel=1e-9)
    assert info["best_score"] < max(info["best_score_history"])
    assert not [key for key in info if key.startswith("final_")]
    skeleton, info = run_search(chain_graph, uniform_conf(chain_graph, 0.0),
                                SeedSet(tips=(2, 4), base=0), cfg)
    assert sorted(skeleton.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert info["best_score"] < max(info["best_score_history"]) == 0.0


def test_default_tree_tip_outcomes(tmp_path):
    """The README's default tree: three of its nine tips lie outside the
    base's component, and the search reaches the other six. The manifest
    says so and counts the search's tip draws."""
    assert main(["synth", "--seed", "0", "--out", str(tmp_path)]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["skeletonize", "--cloud", str(tmp_path / "cloud.ply"),
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    outside = {"86", "109", "126"}
    assert manifest["tip_outcomes"] == {
        str(t): "outside_base_component" if str(t) in outside else "reached"
        for t in manifest["tips"]}
    assert len(manifest["tips"]) == 9
    assert manifest["tip_draws"] > 0


def test_search_counts_repeat_and_leave_the_skeleton(synth_dir, tmp_path):
    """Two runs record equal integer work counters in the manifest, and
    the skeleton stays the golden one."""
    cfg = _write_json(tmp_path / "cfg.json", {"K": 50, "seed": 1})
    manifests, skeletons = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                     "--config", cfg,
                     "--scorer", f"override:{synth_dir / 'override.json'}",
                     "--out", str(out)]) == EXIT_OK
        manifests.append(json.loads((out / "run_manifest.json").read_text()))
        skeletons.append((out / "skeleton.json").read_bytes())
    counts = manifests[0]["search_counts"]
    assert counts == manifests[1]["search_counts"]
    assert sorted(counts) == ["grows", "proposals", "resample_draws",
                              "scans"]
    assert all(type(v) is int and v > 0 for v in counts.values())
    assert counts["resample_draws"] <= manifests[0]["iterations"]
    assert skeletons[0] == skeletons[1]
    assert hashlib.sha256(skeletons[0]).hexdigest() == ORACLE_2_LEADERS


def test_eval_against_other_node_space(synth_dir, tmp_path):
    """A skeleton over superpoint ids evaluated against ``truth.json``
    (centreline node ids) is refused, not scored."""
    cfg = _write_json(tmp_path / "cfg.json", {"K": 20, "seed": 1})
    out = tmp_path / "run"
    assert main(["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
                 "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["eval", "--skeleton", str(out / "skeleton.json"),
                 "--reference", str(synth_dir / "truth.json")]) == EXIT_DATA


def test_eval_node_moved_beyond_tolerance(tmp_path):
    def doc(top):
        return {"base": 0,
                "nodes": [{"id": 0, "pos": [0, 0, 0]},
                          {"id": 1, "pos": [0, 0, top]}],
                "edges": [{"parent": 0, "child": 1, "label": "Trunk"}]}
    skel = _write_json(tmp_path / "skel.json", doc(1.0))
    near = _write_json(tmp_path / "near.json", doc(1.0 + 1e-7))
    far = _write_json(tmp_path / "far.json", doc(1.0 + 1e-5))
    assert main(["eval", "--skeleton", skel, "--reference", near]) == EXIT_OK
    assert main(["eval", "--skeleton", skel, "--reference", far]) == EXIT_DATA


_ONE_EDGE = {"base": 0,
             "nodes": [{"id": 0, "pos": [0, 0, 0]},
                       {"id": 1, "pos": [0, 0, 1]}],
             "edges": [{"parent": 0, "child": 1, "label": "Trunk"}]}


@pytest.mark.parametrize("doc", [
    {"base": 0, "edges": []}, [_ONE_EDGE], {**_ONE_EDGE, "base": [0]},
    {**_ONE_EDGE, "nodes": [{"id": 0, "pos": [0, 0]}]},
    {**_ONE_EDGE, "edges": [{"parent": 0, "label": "Trunk"}]},
    {**_ONE_EDGE, "edges": "0-1"},
    {**_ONE_EDGE, "nodes": [{"id": 0, "pos": [0, 0, 0]},
                            {"id": 1, "pos": [0, 0, math.nan]}]},
    {**_ONE_EDGE, "nodes": [{"id": 0, "pos": [0, 0, 0]},
                            {"id": 1, "pos": [0, math.inf, 1]}]},
    {**_ONE_EDGE, "nodes": [{"id": 0, "pos": [0, 0, 0]},
                            {"id": 1, "pos": [0, 0, 1]},
                            {"id": 1, "pos": [5, 5, 5]}]},
    {**_ONE_EDGE, "edges": [{"parent": 0, "child": 7, "label": "Trunk"}]},
    {"base": 0, "nodes": [{"id": 1, "pos": [0, 0, 1]}], "edges": []}],
    ids=["no-nodes", "list-root", "list-base", "short-pos", "no-child",
         "str-edges", "nan-pos", "inf-pos", "node-twice", "end-unlisted",
         "base-unlisted"])
def test_malformed_skeleton_document_rejected(tmp_path, doc, capsys):
    """Refused as the skeleton and as the reference alike."""
    good = _write_json(tmp_path / "good.json", _ONE_EDGE)
    bad = _write_json(tmp_path / "bad.json", doc)
    for argv in (["--skeleton", bad, "--reference", good],
                 ["--skeleton", good, "--reference", bad]):
        assert main(["eval", *argv]) == EXIT_DATA
        assert "invalid skeleton document" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[1.5], {"Trunk": None}, {"Trunk": "2"},
                                 {"Leader": -1.0}, {"Leader": math.nan}],
                         ids=["list-root", "null-value", "str-value",
                              "negative", "nan"])
def test_malformed_segment_stats_rejected(tmp_path, doc, capsys):
    good = _write_json(tmp_path / "good.json", _ONE_EDGE)
    stats = _write_json(tmp_path / "stats.json", doc)
    assert main(["eval", "--skeleton", good, "--reference", good,
                 "--stats", stats]) == EXIT_DATA
    assert "segment stats must be" in capsys.readouterr().err


def test_eval_none_edge_label_rejected(tmp_path, capsys):
    """"None" is not a label: the document is refused when it is parsed."""
    good = _write_json(tmp_path / "good.json", _ONE_EDGE)
    bad = _write_json(tmp_path / "bad.json", {
        **_ONE_EDGE,
        "edges": [{"parent": 0, "child": 1, "label": "None"}]})
    assert main(["eval", "--skeleton", bad, "--reference", good]) == EXIT_DATA
    assert "unknown label 'None'" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "{not json"],
                         ids=["missing", "not-json"])
@pytest.mark.parametrize("option", [
    "--config", "--spec", "--stats", "--corrections", "model:", "override:",
    "--skeleton", "--reference"])
def test_unreadable_input_file_exits_2(synth_dir, tmp_path, option, content,
                                       capsys):
    """Every JSON document a command reads fails alike, naming the file,
    when it is missing or is not JSON."""
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    good = _write_json(tmp_path / "good.json", _ONE_EDGE)
    run = ["skeletonize", "--cloud", str(synth_dir / "cloud.ply"),
           "--seed", "1", "--out", str(tmp_path / "run")]
    argv = {
        "--config": [*run, "--config", str(bad)],
        "--spec": ["synth", "--spec", str(bad), "--out", str(tmp_path)],
        "model:": [*run, "--scorer", f"model:{bad}"],
        "override:": [*run, "--scorer", f"override:{bad}"],
        "--skeleton": ["eval", "--skeleton", str(bad), "--reference", good],
        "--reference": ["eval", "--skeleton", good, "--reference", str(bad)],
    }.get(option, ["eval", "--skeleton", good, "--reference", good,
                   option, str(bad)])
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read input: ") and str(bad) in err


class _FailingRecords(np.ndarray):
    """PLY element records whose write fails, as on a full disk."""

    def tofile(self, fh):
        raise OSError("No space left on device")


@pytest.mark.parametrize("kind", ["json", "ply"])
def test_interrupted_write_keeps_previous_file(tmp_path, kind):
    """A write that fails partway leaves the file as it was and no
    temporary file beside it."""
    path = tmp_path / f"out.{kind}"
    if kind == "json":
        write_json(path, {"a": list(range(100))})
        # The list is written before the object that cannot be encoded.
        write = functools.partial(
            write_json, path, {"a": list(range(1000)), "z": object()})
        error = TypeError
    else:
        export_cloud(PointCloud(
            np.arange(30, dtype=np.float32).reshape(10, 3)), path)
        edges = np.zeros(2, dtype=[("vertex1", "<i4"), ("vertex2", "<i4")])
        write = functools.partial(
            _write_ply, path, vertex=np.zeros(10, dtype=[("x", "<f4")]),
            edge=edges.view(_FailingRecords))
        error = OSError
    before = path.read_bytes()
    with pytest.raises(error):
        write()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cli_import_leaves_out_scipy_stats():
    """``import skelgrow.cli`` in a fresh interpreter loads no scipy module:
    scipy is a test-only dependency."""
    src = str(Path(skelgrow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, skelgrow.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "[]"


def test_cli_import_leaves_out_synth_and_evaluation():
    """``import skelgrow.cli`` loads neither the generator nor the metrics,
    which skeletonizing never reads; the package still exports both."""
    src = str(Path(skelgrow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    lazy = ("skelgrow.synth", "skelgrow.evaluation")
    code = ("import sys, skelgrow.cli; "
            f"print(sorted(m for m in sys.modules if m in {lazy!r})); "
            "from skelgrow import (SynthSpec, generate, evaluate, "
            "edit_distance, EvalReport); "
            "print(SynthSpec.__module__, generate.__module__, "
            "evaluate.__module__, edit_distance.__module__, "
            "EvalReport.__module__)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    loaded, modules = done.stdout.strip().splitlines()
    assert loaded == "[]"
    assert modules.split() == ["skelgrow.synth"] * 2 + [
        "skelgrow.evaluation"] * 3


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


def test_eval_bad_correction_step(tmp_path, capsys):
    """Removing an absent edge fails its step, and so does naming edge
    (1, 2) by a bool or a float, which Python's dicts take for 1 and 2."""
    skel = _write_json(tmp_path / "skel.json", {
        "base": 0,
        "nodes": [{"id": n, "pos": [0, 0, 0.1 * n]} for n in range(3)],
        "edges": [{"parent": 0, "child": 1, "label": "Trunk"},
                  {"parent": 1, "child": 2, "label": "Support"}]})
    for op in ({"op": "remove-edge", "parent": 8, "child": 9},
               {"op": "relabel", "parent": True, "child": 2.0,
                "label": "Leader"},
               {"op": "relabel", "parent": 1, "child": 2.0,
                "label": "Leader"}):
        script = _write_json(tmp_path / "fix.json", [op])
        assert main(["eval", "--skeleton", skel, "--reference", skel,
                     "--corrections", script]) == EXIT_DATA
        assert "correction step 0" in capsys.readouterr().err


def test_bench_requires_sizes(tmp_path, capsys):
    """At least one size, each at least 1: an empty list is refused by the
    parser, and a size below 1 before any tree is built."""
    out = tmp_path / "bench.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "--out", str(out)])
    assert exc.value.code == 2
    assert main(["bench", "--sizes", "100", "-5", "--out", str(out)]) \
        == EXIT_CONFIG
    assert "--sizes must be at least 1, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_bench_builds_one_cloud_index(tmp_path, monkeypatch):
    """Per size, the superpoint cover and the scoring share one neighbour
    index over the cloud; the only other index is the one over the
    superpoints for the dense edges."""
    built = []
    init = GridIndex.__init__

    def counting_init(self, points, r):
        built.append(len(points))
        init(self, points, r)

    monkeypatch.setattr(GridIndex, "__init__", counting_init)
    out = tmp_path / "bench.csv"
    args = Namespace(sizes=[100], config=_write_json(tmp_path / "cfg.json",
                                                     {"K": 10}),
                     seed=None, out=str(out))
    assert cmd_bench(args) == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert len(built) == 2
    assert built[1] == int(row[1])  # n_superpoints
    assert built[0] > built[1]


def test_parse_scorer():
    assert _parse_scorer("heuristic") == ("heuristic",)
    assert _parse_scorer("model:m.json") == ("model", "m.json")
    assert _parse_scorer("override:o.json") == ("override", "o.json")
    with pytest.raises(ConfigError):
        _parse_scorer("model:")
    with pytest.raises(ConfigError):
        _parse_scorer("bogus")
