"""Golden outputs: the sha256 of ``skeleton.json`` and ``skeleton.ply`` from
``skelgrow skeletonize`` on fixed synthetic trees, of one ``skelgrow synth``
``cloud.ply`` and of one ``skelgrow eval`` report.

Each golden run also pins the search's trajectory from ``run_manifest.json``:
its iterations, tip draws, work counts and the sha256 of its best-score
history, so that a changed search cannot hide behind an unchanged skeleton.

A refactor must leave these bytes unchanged. A change that alters output on
purpose updates the digests here and shows in CHANGES.md that corpus
quality (criteria 6 and 7) did not get worse.
"""

import hashlib
import json

import pytest

from skelgrow.cli import EXIT_OK, main
from skelgrow.cloud import load_cloud, random_downsample
from skelgrow.skeleton import save_skeleton
from skelgrow.superpoints import build_graph
from skelgrow.synth import SynthSpec, generate

GOLDEN = [
    # Criterion 9's tree: oracle (override) scores.
    ({"n_leaders": 2, "leader_height": 1.0, "seed": 1}, {"K": 50, "seed": 1},
     "override",
     "f24180a5595fe024259315543f40c9364749150807a7e6f9545a59ded989e69c",
     "572a1eaeedfea895573229a2a7c5aa6547b08850eb3ebe1feb228eaf22e8fb48",
     (23, 942, {"scans": 724, "proposals": 1256, "grows": 621,
               "resample_draws": 17},
      "5a3c8dd97c10a1d492afaaa38826fe7c602a6b9feb23b08fbfbb8efb5c23484a")),
    # Heuristic scores on a tree with side branches (105 superpoints).
    ({"n_leaders": 4, "n_side_branches": 2, "seed": 0}, {"K": 20},
     "heuristic",
     "4656f108197fe32a396bd000cd14254c59bacf3ad699edee7926046f2f42b099",
     "99316e92c2cb232cc904f4ee434591a89d1f8304877c85ad30dce65611434d64",
     (46, 863, {"scans": 556, "proposals": 1153, "grows": 538,
               "resample_draws": 43},
      "738e953d9146a5d90fd5f44ff87602675f91d771dd35d54cde595f7a20fab919")),
    # The oracle-corpus tree clean-0 at K=200: its iterations hit the
    # k_max_rep cap in resampling.
    ({"n_leaders": 7, "leader_spacing": 0.35, "leader_height": 2.0,
      "seed": 0}, {"K": 200},
     "override",
     "8ce6aab11536281fece0b04055a236722fbf6c3ae92d6ba242169bb4b05cfeec",
     "e0475417e2870ac947168668abfd2769f9b4b669e0936b671d63c0e997f4124a",
     (127, 24912, {"scans": 22251, "proposals": 31714, "grows": 17359,
               "resample_draws": 115},
      "341acbf25bedd15fc66d4545f9d64be93ef5d4b56c478ab87142a31cc988eda0")),
    # A deep skeleton: 32 tips and 316 edges, heuristic scores.
    ({"n_leaders": 32, "seed": 0}, {"K": 100}, "heuristic",
     "ea02fa7ba820acf1ea02f05b4fd07a23ff57a55b2ac1494fa71157c1840ce534",
     "a56910a82ef9cc6df5137f30eb9202db32a6bcc969746d7772f706f7b466f51c",
     (330, 32773, {"scans": 24360, "proposals": 32225, "grows": 20247,
               "resample_draws": 318},
      "0017b559b3825d84344c867d535b714b49efa5612add16bef342253840871445")),
]


@pytest.fixture(scope="module", params=GOLDEN,
                ids=["oracle-2-leaders", "heuristic-side-branches",
                     "oracle-corpus-clean-0", "heuristic-wide-tree"])
def golden_run(request, tmp_path_factory):
    """(spec, skeletonize output directory, expected ``skeleton.json`` and
    ``skeleton.ply`` digests, expected trajectory) of one golden tree."""
    spec, config, scorer, digest, ply_digest, trajectory = request.param
    tmp_path = tmp_path_factory.mktemp("golden")
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    synth = tmp_path / "synth"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(synth)]) == EXIT_OK
    if scorer == "override":
        scorer = f"override:{synth / 'override.json'}"
    out = tmp_path / "run"
    assert main(["skeletonize", "--cloud", str(synth / "cloud.ply"),
                 "--config", str(tmp_path / "cfg.json"), "--scorer", scorer,
                 "--out", str(out)]) == EXIT_OK
    return spec, out, digest, ply_digest, trajectory


def test_skeleton_json_digest(golden_run):
    spec, out, digest, _, _ = golden_run
    data = (out / "skeleton.json").read_bytes()
    if spec.get("n_side_branches"):
        labels = [e["label"] for e in json.loads(data)["edges"]]
        assert "SideBranch" in labels
    assert hashlib.sha256(data).hexdigest() == digest


def test_skeleton_ply_digest(golden_run):
    """The label-coloured cloud: grey points, then the skeleton's nodes and
    edges."""
    _, out, _, ply_digest, _ = golden_run
    data = (out / "skeleton.ply").read_bytes()
    assert hashlib.sha256(data).hexdigest() == ply_digest


# ``cloud.ply`` of the first golden tree, as ``skelgrow synth`` writes it.
SYNTH_CLOUD_DIGEST = (
    "b602a99ecd072a8bd89cbf23ead8ca9b06db01af4f4a63e3b054daa22c6e4570")


def test_synth_cloud_ply_digest(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(GOLDEN[0][0]))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "synth")]) == EXIT_OK
    data = (tmp_path / "synth" / "cloud.ply").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SYNTH_CLOUD_DIGEST


def test_search_ends_within_node_and_tip_bound(golden_run):
    """Every iteration adds an edge or abandons a tip in each unfinished
    candidate, so the search, which has no iteration limit, ends within
    n_superpoints - 1 + len(tips) iterations."""
    _, out, _, _, _ = golden_run
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert 0 < manifest["iterations"] <= (
        manifest["n_superpoints"] - 1 + len(manifest["tips"]))


def test_search_trajectory(golden_run):
    """(iterations, tip draws, search counts, sha256 of the JSON list of
    best scores per iteration), as the manifest records them."""
    _, out, _, _, trajectory = golden_run
    manifest = json.loads((out / "run_manifest.json").read_text())
    history = json.dumps(manifest["best_score_history"]).encode()
    assert (manifest["iterations"], manifest["tip_draws"],
            manifest["search_counts"],
            hashlib.sha256(history).hexdigest()) == trajectory


# Heuristic skeleton of the side-branch tree against its reference skeleton,
# so the per-label segment counts cover several Leader and SideBranch runs.
EVAL_DIGEST = (
    "254034da1dc96d948602dd21b781841b78055979819f11ad75bfbea398f70a6b")


def test_eval_report_digest(tmp_path):
    spec = {"n_leaders": 4, "n_side_branches": 2, "seed": 0}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "cfg.json").write_text(json.dumps({"K": 20}))
    synth = tmp_path / "synth"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(synth)]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["skeletonize", "--cloud", str(synth / "cloud.ply"),
                 "--config", str(tmp_path / "cfg.json"),
                 "--out", str(out)]) == EXIT_OK
    # The graph skeletonize built: same cloud, --points, seed and r_super.
    cloud = random_downsample(load_cloud(synth / "cloud.ply"), 50000, 0)
    graph = build_graph(cloud, 0.10, 0)
    _, truth = generate(SynthSpec(**spec))
    reference, positions = truth.reference_skeleton(graph)
    save_skeleton(reference, positions, tmp_path / "reference.json")
    report = tmp_path / "report.json"
    assert main(["eval", "--skeleton", str(out / "skeleton.json"),
                 "--reference", str(tmp_path / "reference.json"),
                 "--out", str(report)]) == EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EVAL_DIGEST
