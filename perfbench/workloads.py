"""The benchmark's workloads: which trees each one runs, and how.

Every workload runs a fixed set of synthetic trees. `--seed` only sets the
order in which a round visits them. Per-tree time and matched-edge counts
vary by a third or more from one generator seed to the next (the number
of tips found, and so of search iterations, changes), and a run in this
benchmark's time budget holds one to five trees, so trees drawn from
`--seed` could not give steady figures. Fixed trees also let every output
be fingerprinted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Tree:
    """One synthetic tree and how `skelgrow skeletonize` is run on it."""

    name: str
    spec: dict                      # SynthSpec fields, seed included
    config: dict = field(default_factory=dict)  # flat config file
    scorer: str = "heuristic"       # or "override" (synth's override.json)
    points: int = 50000             # --points
    # Exit code and fault name when the cold run fails every time because
    # of a known fault in the program.
    fault: tuple[int, str] | None = None
    # Also rerun warm with --threads 2, then again after truncating the
    # score cache.
    reruns: bool = False

    @property
    def seed(self) -> int:
        return self.spec["seed"]


TRUNCATED_CACHE_FAULT = (
    2, "truncated score cache is not rebuilt (exit 2)")
NO_TIPS_FAULT = (
    5, "occlusion gap disconnects the dense graph: NoTipsError (exit 5)")


def _corpus(seed: int, gap: float, **kw) -> Tree:
    """A tree of the acceptance-test corpus (criterion 6)."""
    kind = "gappy" if gap else "clean"
    return Tree(
        name=f"{kind}-{seed}",
        spec={"n_leaders": 7 + seed % 3, "leader_spacing": 0.35,
              "leader_height": 2.0, "gap_probability": gap, "seed": seed},
        config={"K": 200}, scorer="override", **kw)


# BENCHMARK.json lists only oracle-corpus and dense-scan; README.md says
# why the other two are run by hand only.
WORKLOADS: dict[str, list[Tree]] = {
    # The README flow: default SynthSpec, heuristic scorer, default config
    # (K=500). Search-bound: ranking, per-candidate RNG, resampling.
    "orchard-default": [Tree("default-0", {"seed": 0})],
    # 32 leaders at default spacing, K=100. Bound by skeleton size: many
    # priors, a large frontier, long lineages.
    "wide-tree": [Tree("wide-0", {"n_leaders": 32, "seed": 0},
                       config={"K": 100})],
    # Oracle scores make matched edges a sharp quality yardstick. Gappy
    # seeds 10 and 14 fail every time today.
    "oracle-corpus": [
        _corpus(0, 0.0), _corpus(1, 0.0), _corpus(0, 0.1),
        _corpus(10, 0.1, fault=NO_TIPS_FAULT),
        _corpus(14, 0.1, fault=NO_TIPS_FAULT),
    ],
    # 200k and 400k points with side branches, K=20: cloud I/O, superpoint
    # cover, raster scoring and the graph/score caches do most of the work.
    "dense-scan": [
        Tree(f"dense-{ppm}", {"n_side_branches": 2, "points_per_meter": ppm,
                              "seed": seed},
             config={"K": 20}, points=1_000_000, reruns=True)
        for seed, ppm in ((0, 8000), (1, 16000))
    ],
}


def round_order(workload: str, seed: int) -> list[Tree]:
    """The trees of one round, in the order `seed` gives them."""
    trees = list(WORKLOADS[workload])
    random.Random(seed).shuffle(trees)
    return trees
