"""Command-line entry point: skeletonize / synth / eval / bench.

Exit codes: 0 success, 2 I/O or parse failure, 3 invalid configuration,
4 data-model violation, 5 stalled search.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import synth
from .cloud import (crop_cloud, export_cloud, export_colored, load_cloud,
                    random_downsample)
from .config import PipelineConfig, SearchConfig, load_config
from .edge_scoring import ConfidenceMap, score_all_edges
from .errors import (AttachmentError, CloudFormatError, ConfigError,
                     CorrectionError, EvalError, ModelFormatError,
                     NoTipsError, OverrideError, SearchStalledError,
                     SkelgrowError)
from .evaluation import (SegmentStats, apply_corrections, evaluate,
                         load_script)
from .seeds import SeedSet, find_tips, resolve_base
from .search import run_search
from .side_branches import find_side_branches
from .skeleton import load_skeleton, save_skeleton, skeleton_to_dict
from .superpoints import build_graph, graph_from_dict, graph_to_dict

log = logging.getLogger("skelgrow")

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_DATA = 4
EXIT_STALLED = 5


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
        import dataclasses
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


def _prepare_cloud(args, cfg: PipelineConfig):
    cloud = load_cloud(args.cloud)
    if cfg.crop_min is not None and cfg.crop_max is not None:
        cloud = crop_cloud(cloud, cfg.crop_min, cfg.crop_max)
    return random_downsample(cloud, args.points, cfg.search.seed)


def _read_cache(path: Path, parse):
    """``parse`` of the cached JSON document, or None on a miss. A cache
    that fails to parse or lacks its keys is a miss, so it is rebuilt."""
    if not path.exists():
        return None
    try:
        return parse(json.loads(path.read_text()))
    except (ValueError, LookupError, TypeError, SkelgrowError) as exc:
        log.warning("rebuilding unreadable cache %s: %s", path.name, exc)
        return None


def _write_cache(path: Path, doc) -> None:
    """Write through a temporary file in the same directory and rename it,
    so an interrupted run never leaves a partial cache behind."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _graph_with_scores(args, cfg: PipelineConfig, out: Path, timings: dict):
    """Build (or reuse cached) superpoint graph and edge scores."""
    scorer = _parse_scorer(args.scorer)
    t0 = time.perf_counter()
    cloud = _prepare_cloud(args, cfg)
    timings["load_seconds"] = time.perf_counter() - t0

    key = _digest(cloud.points.tobytes(), cfg.search.r_super,
                  cfg.search.seed, args.points, cfg.crop_min, cfg.crop_max)
    graph_cache = out / f"cache_graph_{key}.json"
    t0 = time.perf_counter()
    graph = _read_cache(graph_cache, graph_from_dict)
    if graph is not None:
        log.info("reusing cached superpoint graph %s", graph_cache.name)
    else:
        graph = build_graph(cloud, cfg.search.r_super, cfg.search.seed)
        _write_cache(graph_cache, graph_to_dict(graph))
    timings["superpoints_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if scorer[0] == "override":
        # Overrides are read from their file on every run; nothing to cache.
        conf = score_all_edges(cloud, graph, scorer, cfg.search)
    else:
        # A model is keyed by its file's bytes, so editing it rescores.
        model = [Path(scorer[1]).read_bytes()] if scorer[0] == "model" else []
        score_cache = out / f"cache_scores_{_digest(key, scorer, *model)}.json"
        conf = _read_cache(score_cache, lambda doc: ConfidenceMap(
            values=np.asarray(doc["values"]), provenance=doc["provenance"]))
        if conf is not None:
            log.info("reusing cached edge scores %s", score_cache.name)
        else:
            conf = score_all_edges(cloud, graph, scorer, cfg.search)
            _write_cache(score_cache,
                         {"values": [float(v) for v in conf.values],
                          "provenance": conf.provenance})
    timings["scoring_seconds"] = time.perf_counter() - t0
    return cloud, graph, conf


def cmd_skeletonize(args) -> int:
    cfg = _load_pipeline_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict = {}
    cloud, graph, conf = _graph_with_scores(args, cfg, out, timings)

    if args.base_node is not None:
        base_spec = args.base_node
    elif args.base_point is not None:
        base_spec = tuple(args.base_point)
    else:
        base_spec = "lowest-z"
    base = resolve_base(graph, base_spec)
    tips = [t for t in find_tips(graph, conf, cfg.search) if t != base]
    seeds = SeedSet(tips=tuple(tips), base=base)

    t0 = time.perf_counter()
    manifest: dict = {}
    skeleton, info = run_search(graph, conf, seeds, cfg.search,
                                manifest=manifest)
    timings["search_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    skeleton = find_side_branches(skeleton, graph, conf, cfg.search)
    timings["side_branch_seconds"] = time.perf_counter() - t0

    positions = {n: tuple(float(x) for x in graph.positions[n])
                 for n in skeleton.nodes}
    save_skeleton(skeleton, positions, out / "skeleton.json")
    export_colored(cloud, skeleton, positions, out / "skeleton.ply")
    info.update({
        "seed": cfg.search.seed,
        "threads": args.threads,
        "config": {f.name: getattr(cfg.search, f.name)
                   for f in dataclass_fields(SearchConfig)},
        "crop": {"min": cfg.crop_min, "max": cfg.crop_max},
        "points": args.points,
        "scorer": args.scorer,
        "timings": timings,
        "n_superpoints": graph.num_nodes,
        "n_edges": graph.num_edges,
    })
    with open(out / "run_manifest.json", "w") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"skeleton with {skeleton.num_edges} edges -> "
          f"{out / 'skeleton.json'}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.spec:
        try:
            with open(args.spec) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CloudFormatError(f"cannot read spec {args.spec}: {exc}")
        known = {f.name for f in dataclass_fields(synth.SynthSpec)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown synth keys: {sorted(unknown)}")
        try:
            spec = synth.SynthSpec(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc))
    else:
        spec = synth.SynthSpec(seed=args.seed or 0)
    if args.seed is not None:
        import dataclasses
        spec = dataclasses.replace(spec, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cloud, truth = synth.generate(spec)
    export_cloud(cloud, out / "cloud.ply")
    with open(out / "truth.json", "w") as fh:
        json.dump(truth.polyline_skeleton_dict(), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    # Oracle scores are keyed to the superpoint graph that skeletonize
    # will rebuild from the emitted cloud with the same seed and radius.
    search_cfg = SearchConfig(seed=spec.seed)
    graph_cloud = random_downsample(cloud, args.points, search_cfg.seed)
    graph = build_graph(graph_cloud, search_cfg.r_super, search_cfg.seed)
    with open(out / "override.json", "w") as fh:
        json.dump({"scores": truth.oracle_override_table(graph)}, fh)
        fh.write("\n")
    print(f"synthetic tree ({len(cloud)} points, "
          f"{graph.num_nodes} superpoints) -> {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    skeleton, _ = load_skeleton(args.skeleton)
    reference, _ = load_skeleton(args.reference)
    if args.corrections:
        script = load_script(args.corrections)
        reference = apply_corrections(reference, script)
    stats = None
    if args.stats:
        with open(args.stats) as fh:
            stats = SegmentStats.from_dict(json.load(fh))
    report = evaluate(skeleton, reference, stats)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(report.table())
    return EXIT_OK


def _bench_spec(target_superpoints: int, seed: int) -> synth.SynthSpec:
    """Synthetic tree sized so the superpoint count lands near the target.

    One superpoint covers roughly 2 * r_super = 0.2 m of centerline, so
    total branch length scales with the target.
    """
    total_length = 0.2 * target_superpoints
    n_leaders = max(2, round((total_length - 3.0) / 2.4))
    return synth.SynthSpec(n_leaders=n_leaders, seed=seed)


def cmd_bench(args) -> int:
    if not args.sizes:
        raise ConfigError("bench needs at least one size")
    cfg = _load_pipeline_config(args)
    rows = []
    for size in args.sizes:
        spec = _bench_spec(size, cfg.search.seed)
        cloud, _truth = synth.generate(spec)
        t0 = time.perf_counter()
        graph = build_graph(cloud, cfg.search.r_super, cfg.search.seed)
        conf = score_all_edges(cloud, graph, ("heuristic",), cfg.search)
        base = resolve_base(graph, "lowest-z")
        tips = [t for t in find_tips(graph, conf, cfg.search) if t != base]
        preprocess = time.perf_counter() - t0
        t0 = time.perf_counter()
        skeleton, _ = run_search(graph, conf,
                                 SeedSet(tips=tuple(tips), base=base),
                                 cfg.search)
        skeleton = find_side_branches(skeleton, graph, conf, cfg.search)
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
    with open(args.out, "w", newline="") as fh:
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
    except (ConfigError, ModelFormatError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CloudFormatError, FileNotFoundError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AttachmentError, OverrideError, CorrectionError, EvalError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NoTipsError, SearchStalledError) as exc:
        print(f"error: search stalled: {exc}", file=sys.stderr)
        return EXIT_STALLED
    except SkelgrowError as exc:  # remaining package errors are data-model
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
