"""Golden outputs: the sha256 of ``skeleton.json`` from ``skelgrow
skeletonize`` on fixed synthetic trees.

A refactor must leave these bytes unchanged. A change that alters output on
purpose updates the digests here and shows in CHANGES.md that corpus
quality (criteria 6 and 7) did not get worse.
"""

import hashlib
import json

import pytest

from skelgrow.cli import EXIT_OK, main

GOLDEN = [
    # Criterion 9's tree: oracle (override) scores.
    ({"n_leaders": 2, "leader_height": 1.0, "seed": 1}, {"K": 50, "seed": 1},
     "override",
     "f24180a5595fe024259315543f40c9364749150807a7e6f9545a59ded989e69c"),
    # Heuristic scores on a tree with side branches (105 superpoints).
    ({"n_leaders": 4, "n_side_branches": 2, "seed": 0}, {"K": 20},
     "heuristic",
     "c6fec764885653edc912c51da0b24294cacea22408b9a5bd41844219e0d189c4"),
    # The oracle-corpus tree clean-0 at K=200: its iterations hit the
    # k_max_rep cap in resampling.
    ({"n_leaders": 7, "leader_spacing": 0.35, "leader_height": 2.0,
      "seed": 0}, {"K": 200},
     "override",
     "8ce6aab11536281fece0b04055a236722fbf6c3ae92d6ba242169bb4b05cfeec"),
]


@pytest.mark.parametrize("spec, config, scorer, digest", GOLDEN,
                         ids=["oracle-2-leaders", "heuristic-side-branches",
                              "oracle-corpus-clean-0"])
def test_skeleton_json_digest(tmp_path, spec, config, scorer, digest):
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
    data = (out / "skeleton.json").read_bytes()
    if spec.get("n_side_branches"):
        labels = [e["label"] for e in json.loads(data)["edges"]]
        assert "SideBranch" in labels
    assert hashlib.sha256(data).hexdigest() == digest
