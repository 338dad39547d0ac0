"""Command-line entry point: skeletonize / synth / eval / bench.

A command exits 0 on success and otherwise with the exit code that
``errors`` gives its failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

from .cloud import (crop_cloud, export_cloud, export_colored, load_cloud,
                    random_downsample)
from .config import PipelineConfig, SearchConfig, load_config
from .edge_scoring import (ConfidenceMap, DenseModel, check_scores,
                           load_override, score_all_edges)
from .errors import (CloudFormatError, ConfigError, EvalError,
                     SearchStalledError, SkelgrowError)
from .seeds import SeedSet, find_tips, resolve_base
from .search import run_search
from .side_branches import find_side_branches
from .skeleton import load_skeleton, save_skeleton
from .spatial import GridIndex
from .superpoints import build_graph, graph_from_dict, graph_to_dict
from .values import (dataclass_from_json, is_point, read_json,
                     read_json_bytes, replaced, write_json)

log = logging.getLogger("skelgrow")

EXIT_OK = 0
EXIT_IO = CloudFormatError.exit_code
EXIT_CONFIG = ConfigError.exit_code
EXIT_DATA = SkelgrowError.exit_code
EXIT_STALLED = SearchStalledError.exit_code


def _setup_logging():
    level = os.environ.get("SKELGROW_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")


def _parse_scorer(spec: str):
    if spec == "heuristic":
        return ("heuristic",)
    for kind in ("model", "override"):
        prefix = kind + ":"
        if spec.startswith(prefix):
            path = spec[len(prefix):]
            if not path:
                raise ConfigError(f"--scorer {kind}: missing path")
            return (kind, path)
    raise ConfigError(
        f"--scorer must be heuristic, model:PATH or override:PATH; "
        f"got {spec!r}")


def _load_pipeline_config(args) -> PipelineConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(
            cfg, search=dataclasses.replace(cfg.search, seed=args.seed))
    return cfg


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


@functools.cache
def _code_digest() -> str:
    """Digest of the package's own sources, part of every cache key so
    that a cache written by other code is not reused."""
    return _digest(*(path.read_bytes() for path in
                     sorted(Path(__file__).parent.glob("*.py"))))


def _check_at_least_one(**options: int) -> None:
    for name, value in options.items():
        if value < 1:
            raise ConfigError(f"--{name} must be at least 1, got {value}")


def _prepare_cloud(args, cfg: PipelineConfig):
    cloud = load_cloud(args.cloud)
    if cfg.crop_min is not None:
        cloud = crop_cloud(cloud, cfg.crop_min, cfg.crop_max)
    return random_downsample(cloud, args.points, cfg.search.seed)


def _read_cache(path: Path, parse, caches: dict, kind: str):
    """``parse`` of the cached JSON document, or None when there is none.
    A cache that fails to parse or lacks its keys is rebuilt like a missing
    one. Records the file name and the outcome (hit, miss or rebuilt) as
    ``caches[kind]``."""
    outcome, value = "miss", None
    if path.exists():
        try:
            outcome, value = "hit", parse(read_json(path))
        except (ValueError, LookupError, TypeError, SkelgrowError) as exc:
            log.warning("rebuilding unreadable cache %s: %s", path.name, exc)
            outcome = "rebuilt"
    caches[kind] = {"file": path.name, "outcome": outcome}
    return value


def _graph_with_scores(args, cfg: PipelineConfig, out: Path, timings: dict,
                       caches: dict):
    """Build (or reuse cached) superpoint graph and edge scores."""
    scorer = _parse_scorer(args.scorer)
    t0 = time.perf_counter()
    cloud = _prepare_cloud(args, cfg)
    timings["load_seconds"] = time.perf_counter() - t0
    # The cloud's neighbour index, built by the first stage that needs it.
    index = functools.cache(
        lambda: GridIndex(cloud.points, cfg.search.r_super))

    # The cloud's bytes already reflect the crop and the downsampling.
    key = _digest(_code_digest(), cloud.points.tobytes(),
                  cfg.search.r_super, cfg.search.seed)
    graph_cache = out / f"cache_graph_{key}.json"
    t0 = time.perf_counter()
    graph = _read_cache(graph_cache, lambda doc: graph_from_dict(
        doc, cfg.search.r_super), caches, "graph")
    if graph is not None:
        log.info("reusing cached superpoint graph %s", graph_cache.name)
    else:
        graph = build_graph(
            cloud, cfg.search.r_super, cfg.search.seed, index())
        write_json(graph_cache, graph_to_dict(graph))
    timings["superpoints_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if scorer[0] == "override":
        # Overrides are read from their file on every run; nothing to cache.
        table = load_override(scorer[1])
        conf = score_all_edges(cloud, graph, ("override", table), cfg.search)
        caches["scores"] = {"file": None, "outcome": "none"}
    else:
        # A model is keyed by its file's bytes, not its path, so editing it
        # rescores and moving it does not; its weights come from the same
        # bytes.
        model = b""
        if scorer[0] == "model":
            model, doc = read_json_bytes(scorer[1])
            scorer = ("model", DenseModel.from_dict(doc))
        score_key = _digest(key, scorer[0], model)
        score_cache = out / f"cache_scores_{score_key}.json"
        # A cached vector passes the checks an override table does.
        conf = _read_cache(score_cache, lambda doc: ConfidenceMap(
            values=check_scores(doc["values"], graph.num_edges,
                                "score cache")), caches, "scores")
        if conf is not None:
            log.info("reusing cached edge scores %s", score_cache.name)
        else:
            conf = score_all_edges(cloud, graph, scorer, cfg.search, index())
            write_json(score_cache, {"values": conf.values.tolist()})
    timings["scoring_seconds"] = time.perf_counter() - t0
    return cloud, graph, conf


def _grow_skeleton(graph, conf: ConfidenceMap, base_spec, cfg: SearchConfig,
                   timings: dict):
    """Base, tips, population search and side branches over a scored
    graph; returns (skeleton, search manifest)."""
    base = resolve_base(graph, base_spec)
    tips = [t for t in find_tips(graph, conf, cfg) if t != base]
    t0 = time.perf_counter()
    skeleton, info = run_search(graph, conf, SeedSet(tuple(tips), base), cfg)
    timings["search_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    skeleton = find_side_branches(skeleton, graph, conf, cfg)
    timings["side_branch_seconds"] = time.perf_counter() - t0
    return skeleton, info


def cmd_skeletonize(args) -> int:
    _check_at_least_one(threads=args.threads, points=args.points)
    # argparse reads "nan" and "inf" as floats; neither names a superpoint.
    if args.base_point is not None and not is_point(args.base_point):
        raise ConfigError(
            f"--base-point must be finite, got {args.base_point}")
    cfg = _load_pipeline_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict = {}
    caches: dict = {}
    cloud, graph, conf = _graph_with_scores(args, cfg, out, timings, caches)

    if args.base_node is not None:
        base_spec = args.base_node
    elif args.base_point is not None:
        base_spec = tuple(args.base_point)
    else:
        base_spec = "lowest-z"
    skeleton, info = _grow_skeleton(graph, conf, base_spec, cfg.search,
                                    timings)

    positions = {n: tuple(float(x) for x in graph.positions[n])
                 for n in skeleton.nodes}
    save_skeleton(skeleton, positions, out / "skeleton.json")
    export_colored(cloud, skeleton, positions, out / "skeleton.ply")
    info.update({
        "seed": cfg.search.seed,
        "threads": args.threads,
        "threads_used": 1,  # no stage runs in parallel yet
        "config": {f.name: getattr(cfg.search, f.name)
                   for f in dataclasses.fields(SearchConfig)},
        "crop": {"min": cfg.crop_min, "max": cfg.crop_max},
        "points": args.points,
        "scorer": args.scorer,
        "timings": timings,
        "caches": caches,
        "n_superpoints": graph.num_nodes,
        "n_edges": graph.num_edges,
    })
    write_json(out / "run_manifest.json", info)
    print(f"skeleton with {skeleton.num_edges} edges -> "
          f"{out / 'skeleton.json'}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import synth
    _check_at_least_one(points=args.points)
    raw = read_json(args.spec) if args.spec else {}
    if args.seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": args.seed}
    spec = dataclass_from_json(synth.SynthSpec, raw, "synth spec")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cloud, truth = synth.generate(spec)
    export_cloud(cloud, out / "cloud.ply")
    write_json(out / "truth.json", truth.polyline_skeleton_dict())
    # Oracle scores are keyed to the superpoint graph that skeletonize
    # will rebuild from the emitted cloud with the same seed and radius.
    search_cfg = SearchConfig(seed=spec.seed)
    graph_cloud = random_downsample(cloud, args.points, search_cfg.seed)
    graph = build_graph(graph_cloud, search_cfg.r_super, search_cfg.seed)
    write_json(out / "override.json",
               {"scores": truth.oracle_override_table(graph)})
    print(f"synthetic tree ({len(cloud)} points, "
          f"{graph.num_nodes} superpoints) -> {out}")
    return EXIT_OK


def _check_node_space(positions: dict, ref_positions: dict) -> None:
    """Raise EvalError when a node id in both documents lies at two places:
    the skeletons then number different node sets, and their edit distance
    means nothing."""
    moved = sorted(n for n in positions.keys() & ref_positions.keys()
                   if math.dist(positions[n], ref_positions[n]) > 1e-6)
    if moved:
        raise EvalError(
            f"{len(moved)} node ids lie at different positions in the "
            f"skeleton and the reference (first: node {moved[0]}); they are "
            f"not over the same node space")


def cmd_eval(args) -> int:
    from .evaluation import (SegmentStats, apply_corrections, evaluate,
                             load_script)
    skeleton, positions = load_skeleton(args.skeleton)
    reference, ref_positions = load_skeleton(args.reference)
    _check_node_space(positions, ref_positions)
    if args.corrections:
        script = load_script(args.corrections)
        reference = apply_corrections(reference, script)
    stats = None
    if args.stats:
        stats = SegmentStats.from_dict(read_json(args.stats))
    report = evaluate(skeleton, reference, stats)
    if args.out:
        write_json(args.out, report.to_dict())
    print(report.table())
    return EXIT_OK


def _bench_spec(target_superpoints: int, seed: int):
    """Synthetic tree (a SynthSpec) sized so the superpoint count lands
    near the target.

    One superpoint covers roughly 2 * r_super = 0.2 m of centerline, so
    total branch length scales with the target.
    """
    from . import synth
    total_length = 0.2 * target_superpoints
    n_leaders = max(2, round((total_length - 3.0) / 2.4))
    return synth.SynthSpec(n_leaders=n_leaders, seed=seed)


def cmd_bench(args) -> int:
    from . import synth
    _check_at_least_one(sizes=min(args.sizes))
    cfg = _load_pipeline_config(args)
    rows = []
    for size in args.sizes:
        spec = _bench_spec(size, cfg.search.seed)
        cloud, _truth = synth.generate(spec)
        t0 = time.perf_counter()
        index = GridIndex(cloud.points, cfg.search.r_super)
        graph = build_graph(cloud, cfg.search.r_super, cfg.search.seed, index)
        conf = score_all_edges(cloud, graph, ("heuristic",), cfg.search,
                               index)
        preprocess = time.perf_counter() - t0
        t0 = time.perf_counter()
        skeleton, _ = _grow_skeleton(graph, conf, "lowest-z", cfg.search, {})
        search = time.perf_counter() - t0
        rows.append({
            "target_size": size,
            "n_superpoints": graph.num_nodes,
            "n_edges": graph.num_edges,
            "n_skeleton_edges": skeleton.num_edges,
            "preprocess_seconds": round(preprocess, 4),
            "search_seconds": round(search, 4),
            "total_seconds": round(preprocess + search, 4),
        })
        log.info("bench size %d: %s", size, rows[-1])
    with replaced(args.out, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{len(rows)} bench rows -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelgrow",
        description="Labeled tree skeletons from trellis point clouds.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("skeletonize", help="cloud -> labeled skeleton")
    ps.add_argument("--cloud", required=True)
    ps.add_argument("--config")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--points", type=int, default=50000,
                    help="downsample target (default 50000)")
    ps.add_argument("--scorer", default="heuristic",
                    help="heuristic | model:PATH | override:PATH")
    base = ps.add_mutually_exclusive_group()
    base.add_argument("--base-node", type=int)
    base.add_argument("--base-point", type=float, nargs=3,
                      metavar=("X", "Y", "Z"))
    ps.add_argument("--out", required=True)
    ps.add_argument("--threads", type=int, default=1,
                    help="worker cap; does not change results")
    ps.set_defaults(func=cmd_skeletonize)

    pg = sub.add_parser("synth", help="generate a synthetic tree")
    pg.add_argument("--spec", help="SynthSpec JSON file")
    pg.add_argument("--seed", type=int)
    pg.add_argument("--points", type=int, default=50000)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_synth)

    pe = sub.add_parser("eval", help="edit-distance report")
    pe.add_argument("--skeleton", required=True)
    pe.add_argument("--reference", required=True)
    pe.add_argument("--corrections")
    pe.add_argument("--stats", help="segment-stats JSON")
    pe.add_argument("--out", help="write the report JSON here")
    pe.set_defaults(func=cmd_eval)

    pb = sub.add_parser("bench", help="runtime scaling measurement")
    pb.add_argument("--sizes", type=int, nargs="+", required=True)
    pb.add_argument("--config")
    pb.add_argument("--seed", type=int)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SkelgrowError as exc:
        print(f"error: {exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {CloudFormatError.prefix}{exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
