"""Per-layer tracing: time and count calls into each module's public
functions while `skelgrow.cli.main` runs in this process.

The wrappers are installed on the names the callers look up (for example
`skelgrow.cli.build_graph`, `skelgrow.search.rank`) and removed afterwards;
the program's source is not touched. A function a later change removes is
skipped, and the metrics that need it are reported as absent.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def base_component(graph, nodes=None) -> tuple[int, int, int]:
    """(components, superpoints in the lowest superpoint's component,
    how many of `nodes` lie in it)."""
    n = graph.num_nodes
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                     shape=(n, n))
    count, comp = connected_components(adj, directed=False)
    base = comp[int(np.argmin(graph.positions[:, 2]))]
    inside = 0 if nodes is None else sum(comp[int(t)] == base for t in nodes)
    return count, int((comp == base).sum()), int(inside)


class Tracer:
    """Accumulates seconds, calls and counts per traced function."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self._undo: list = []

    def wrap(self, owner, name: str, key: str, on_result=None):
        """Replace `owner.name` by a timing wrapper filed under `key`."""
        orig = getattr(owner, name, None)
        if orig is None:
            return
        self.present.add(key)
        seconds, calls = self.seconds, self.calls

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - t0
                calls[key] += 1
            if on_result is not None:
                on_result(args, out)
            return out

        setattr(owner, name, traced)
        self._undo.append((owner, name, orig))

    def install(self):
        import skelgrow.cli as cli
        import skelgrow.search as search
        import skelgrow.skeleton as skeleton
        add = self.counts

        def on_cloud(args, cloud):
            add["cloud.points"] += len(cloud)

        def on_graph(args, graph):
            comps, reachable, _ = base_component(graph)
            add["superpoints.nodes"] += graph.num_nodes
            add["superpoints.edges"] += graph.num_edges
            add["superpoints.components"] += comps
            add["superpoints.reachable"] += reachable

        def on_scores(args, conf):
            graph, cfg = args[1], args[3]
            add["edge_scoring.edges"] += graph.num_edges
            add["edge_scoring.confident_edges"] += int(
                (np.asarray(conf.values) >= cfg.alpha_conf).sum())

        def on_tips(args, tips):
            _, _, inside = base_component(args[0], tips)
            add["seeds.tips"] += len(tips)
            add["seeds.tips_reachable"] += inside

        def on_search(args, out):
            info = out[1]
            add["search.iterations"] += info["iterations"]
            add["search.tips_reached"] += len(info["reached_tips"])

        def on_pairs(args, pairs):
            add["search.pairs"] += len(pairs)

        def on_side(args, skel):
            add["side_branches.edges"] += skel.num_edges - args[0].num_edges

        for owner, name, key, hook in (
                (cli, "load_cloud", "load_cloud", on_cloud),
                (cli, "random_downsample", "random_downsample", None),
                (cli, "_graph_with_scores", "graph_with_scores", None),
                (cli, "build_graph", "build_graph", on_graph),
                (cli, "graph_from_dict", "graph_from_dict", None),
                (cli, "score_all_edges", "score_all_edges", on_scores),
                # cli builds a ConfidenceMap itself only from a score cache.
                (cli, "ConfidenceMap", "score_cache_read", None),
                (cli, "find_tips", "find_tips", on_tips),
                (cli, "run_search", "run_search", on_search),
                (cli, "find_side_branches", "find_side_branches", on_side),
                (cli, "save_skeleton", "save_skeleton", None),
                (cli, "export_colored", "export_colored", None),
                (search, "SearchContext", "SearchContext", None),
                (search, "PathPrior", "PathPrior", None),
                (search, "rank", "rank", None),
                (search, "eligible_pairs", "eligible_pairs", on_pairs),
                (search, "resample", "resample", None),
                (search, "grow_candidate", "grow_candidate", None),
                (skeleton.LabeledSkeleton, "attach", "attach", None)):
            self.wrap(owner, name, key, hook)

    def remove(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (value, unit); absent ones are left out."""
        s, n, c, have = self.seconds, self.calls, self.counts, self.present
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit, *needs):
            if all(k in have for k in needs):
                out[name] = (float(value), unit)

        put("cloud.load_s", s["load_cloud"], "s", "load_cloud")
        put("cloud.downsample_s", s["random_downsample"], "s",
            "random_downsample")
        put("cloud.points", c["cloud.points"], "count", "load_cloud")
        put("cloud.export_s", s["save_skeleton"] + s["export_colored"], "s",
            "save_skeleton", "export_colored")
        for key in ("nodes", "edges", "components", "reachable"):
            put(f"superpoints.{key}", c[f"superpoints.{key}"], "count",
                "build_graph")
        put("superpoints.build_s", s["build_graph"], "s", "build_graph")
        put("edge_scoring.score_s", s["score_all_edges"], "s",
            "score_all_edges")
        put("edge_scoring.edges", c["edge_scoring.edges"], "count",
            "score_all_edges")
        put("edge_scoring.confident_edges", c["edge_scoring.confident_edges"],
            "count", "score_all_edges")
        if c["edge_scoring.edges"]:
            put("edge_scoring.us_per_edge",
                1e6 * s["score_all_edges"] / c["edge_scoring.edges"], "us",
                "score_all_edges")
        put("cli.graph_cache_hits", n["graph_from_dict"], "count",
            "graph_from_dict")
        put("cli.score_cache_hits", n["score_cache_read"], "count",
            "score_cache_read")
        put("cli.cache_s",
            s["graph_with_scores"] - s["build_graph"] - s["score_all_edges"]
            - s["load_cloud"] - s["random_downsample"], "s",
            "graph_with_scores", "build_graph", "score_all_edges",
            "load_cloud", "random_downsample")
        put("seeds.tips_s", s["find_tips"], "s", "find_tips")
        put("seeds.tips", c["seeds.tips"], "count", "find_tips")
        put("seeds.tips_reachable", c["seeds.tips_reachable"], "count",
            "find_tips")
        put("search.s", s["run_search"], "s", "run_search")
        put("search.iterations", c["search.iterations"], "count",
            "run_search")
        put("search.tips_reached", c["search.tips_reached"], "count",
            "run_search")
        if c["search.iterations"]:
            put("search.iter_ms",
                1e3 * s["run_search"] / c["search.iterations"], "ms",
                "run_search")
        put("search.context_s", s["SearchContext"], "s", "SearchContext")
        put("search.priors_s", s["PathPrior"], "s", "PathPrior")
        for key, fn in (("rank", "rank"), ("eligible", "eligible_pairs"),
                        ("resample", "resample"), ("grow", "grow_candidate")):
            put(f"search.{key}_s", s[fn], "s", fn)
        for key, fn in (("rank", "rank"), ("eligible", "eligible_pairs"),
                        ("grow", "grow_candidate")):
            put(f"search.{key}_calls", n[fn], "count", fn)
        put("search.pairs", c["search.pairs"], "count", "eligible_pairs")
        parts = ("SearchContext", "PathPrior", "rank", "eligible_pairs",
                 "resample", "grow_candidate")
        put("search.body_s", s["run_search"] - sum(s[p] for p in parts), "s",
            "run_search", *parts)
        if c["search.pairs"]:
            put("search.grow_per_pair",
                n["grow_candidate"] / c["search.pairs"], "ratio",
                "grow_candidate", "eligible_pairs")
        put("skeleton.attach_calls", n["attach"], "count", "attach")
        put("skeleton.attach_s", s["attach"], "s", "attach")
        put("side_branches.s", s["find_side_branches"], "s",
            "find_side_branches")
        put("side_branches.edges", c["side_branches.edges"], "count",
            "find_side_branches")
        return out
