"""Search-seed sweep of the benchmark's dense trees: how often a K=20
search abandons a reachable tip, and what that costs in matched edges.

Usage (from the root of a checkout):

    python3 tools/dense_sweep.py [--json PATH]

For each tree of perfbench's ``dense-scan`` workload (``dense-8000`` and
``dense-16000``) it writes the tree's inputs with ``skelgrow synth``, then
builds the superpoint graph and its heuristic edge scores once, with the
tree's own seed and ``--points``, as ``skelgrow skeletonize`` does. On
that fixed graph it runs base, tips, population search and side branches
with search seeds 0-19 at the tree's K, all in this process. Per tree it
prints:

- the runs that abandon a tip in the base's component
  (``abandoned_reachable`` in ``tip_outcomes``), with their seeds;
- the median and minimum matched edges over the runs, counted with
  ``perfbench/checks.py``'s ``matched_edges`` against ``truth.json``.

``--json PATH`` also writes one record per run. The figures are
deterministic; the whole sweep takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import logging
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from checks import load_truth, matched_edges  # noqa: E402
from skelgrow import cli  # noqa: E402
from skelgrow.cloud import load_cloud, random_downsample  # noqa: E402
from skelgrow.config import SearchConfig  # noqa: E402
from skelgrow.edge_scoring import score_all_edges  # noqa: E402
from skelgrow.skeleton import skeleton_to_dict  # noqa: E402
from skelgrow.spatial import GridIndex  # noqa: E402
from skelgrow.superpoints import build_graph  # noqa: E402

SEARCH_SEEDS = range(20)


def sweep(tree: workloads.Tree, where: Path,
          records: list[dict]) -> str:
    """One summary line per tree; appends one record per run to
    ``records``."""
    (where / "spec.json").write_text(json.dumps(tree.spec))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["synth", "--spec", str(where / "spec.json"),
                       "--points", str(tree.points), "--out", str(where)])
    if rc != 0:
        raise SystemExit(f"synth failed for {tree.name} with exit {rc}")
    cfg = SearchConfig(**{**tree.config, "seed": tree.seed})
    cloud = random_downsample(load_cloud(where / "cloud.ply"), tree.points,
                              cfg.seed)
    index = GridIndex(cloud.points, cfg.r_super)
    graph = build_graph(cloud, cfg.r_super, cfg.seed, index)
    conf = score_all_edges(cloud, graph, ("heuristic",), cfg, index)
    truth = load_truth(where / "truth.json")

    abandoned = []
    matched = []
    for seed in SEARCH_SEEDS:
        skeleton, info = cli._grow_skeleton(
            graph, conf, "lowest-z", dataclasses.replace(cfg, seed=seed), {})
        lost = [int(t) for t, outcome in info["tip_outcomes"].items()
                if outcome == "abandoned_reachable"]
        if lost:
            abandoned.append(seed)
        positions = {n: graph.positions[n].tolist() for n in skeleton.nodes}
        matched.append(matched_edges(skeleton_to_dict(skeleton, positions),
                                     truth)[0])
        records.append({"tree": tree.name, "seed": seed,
                        "matched_edges": matched[-1], "lost_tips": lost})
    return (f"{tree.name}: {len(abandoned)}/{len(SEARCH_SEEDS)} runs abandon "
            f"a reachable tip (seeds {abandoned}); matched edges median "
            f"{statistics.median(matched):g}, min {min(matched)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path,
                        help="also write one record per run to this file")
    args = parser.parse_args(argv)
    records: list[dict] = []
    # The search warns about every abandoned tip; the summary counts them.
    logging.getLogger("skelgrow").setLevel(logging.ERROR)
    with tempfile.TemporaryDirectory() as tmp:
        for tree in workloads.WORKLOADS["dense-scan"]:
            where = Path(tmp) / tree.name
            where.mkdir()
            print(sweep(tree, where, records), flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
