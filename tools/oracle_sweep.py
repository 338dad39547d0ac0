"""Search-seed sweep of the clean corpus with oracle scores: how well, and
how reliably, a K=200 search recovers each tree.

Usage (from the root of a checkout):

    python3 tools/oracle_sweep.py [--json PATH]

The trees are acceptance criterion 6's 20 clean corpus trees
(``n_leaders`` 7-9, spacing 0.35 m, height 2 m, tree seeds 0-19, no
gaps). Each tree's superpoint graph, oracle confidences and reference
skeleton are built once, as criterion 6 builds them; on that fixed graph
``cli._grow_skeleton`` (tips, population search and side branches, the
path ``skelgrow skeletonize`` takes) then runs with search seeds 0-14 at
K=200, all in this process. It prints:

- the share of runs whose edit ratio against the reference is at most
  0.05, and the median and worst ratio over the runs;
- every (tree, seed) whose skeleton abandons a tip in the base's
  component (``abandoned_reachable`` in ``tip_outcomes``).

A run that raises scores 1.0, as in criterion 6. ``--json PATH`` also
writes one record per run. The figures are deterministic; the sweep takes
a few minutes.
"""

from __future__ import annotations

import argparse
import json
import logging
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from skelgrow.cli import _grow_skeleton  # noqa: E402
from skelgrow.config import SearchConfig  # noqa: E402
from skelgrow.errors import NoTipsError, SearchStalledError  # noqa: E402
from skelgrow.evaluation import edit_distance  # noqa: E402
from skelgrow.superpoints import build_graph  # noqa: E402
from skelgrow.synth import SynthSpec, generate  # noqa: E402

TREE_SEEDS = range(20)
SEARCH_SEEDS = range(15)
K = 200
GOOD_RATIO = 0.05


def sweep_tree(tree_seed: int) -> list[dict]:
    """One record per search seed of one clean corpus tree."""
    spec = SynthSpec(n_leaders=7 + tree_seed % 3, leader_spacing=0.35,
                     leader_height=2.0, seed=tree_seed, gap_probability=0.0)
    cloud, truth = generate(spec)
    cfg = SearchConfig(K=K, seed=tree_seed)
    graph = build_graph(cloud, cfg.r_super, tree_seed)
    conf = truth.oracle_confidences(graph)
    ref, _ = truth.reference_skeleton(graph)
    records = []
    for seed in SEARCH_SEEDS:
        cfg = SearchConfig(K=K, seed=seed)
        lost = []
        try:
            skel, info = _grow_skeleton(graph, conf, ref.base, cfg, {})
            _, ratio = edit_distance(skel, ref)
            lost = [int(t) for t, outcome in info["tip_outcomes"].items()
                    if outcome == "abandoned_reachable"]
        except (NoTipsError, SearchStalledError, ValueError):
            ratio = 1.0
        records.append({"tree": tree_seed, "seed": seed,
                        "ratio": float(ratio), "lost_tips": lost})
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path,
                        help="also write one record per run to this file")
    args = parser.parse_args(argv)
    # The search warns about every abandoned tip; the summary lists them.
    logging.getLogger("skelgrow").setLevel(logging.ERROR)
    records = []
    for tree_seed in TREE_SEEDS:
        records += sweep_tree(tree_seed)
    ratios = [r["ratio"] for r in records]
    good = sum(r <= GOOD_RATIO for r in ratios)
    lossy = [r for r in records if r["lost_tips"]]
    print(f"{good}/{len(records)} runs with edit ratio <= {GOOD_RATIO} "
          f"(share {good / len(records):.3f}); median ratio "
          f"{statistics.median(ratios):.3f}, worst {max(ratios):.3f}")
    print(f"{len(lossy)} runs abandon a reachable tip"
          + "".join(f"\n  tree {r['tree']} seed {r['seed']}: tips "
                    f"{r['lost_tips']}" for r in lossy))
    if args.json is not None:
        args.json.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
