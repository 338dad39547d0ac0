"""Paired runs of two skelgrow checkouts, a parent and a change.

Usage (from the root of a checkout):

    python3 tools/paired_runs.py --parent ../parent --change . \
        --workload oracle-corpus --pairs 10
    python3 tools/paired_runs.py --parent ../parent --change . \
        --workload dense-scan --pairs 4 --warm
    python3 tools/paired_runs.py --parent ../parent --change . \
        --bench 100 200 400 --pairs 10
    python3 tools/paired_runs.py --parent ../parent --change . \
        --pytest "tests/test_acceptance.py -k criterion_08" --pairs 10

Each side's ``src/``, ``tests/`` and ``pyproject.toml`` are copied under
``--work`` into directories whose paths have the same length, and every
output path of one side has the length of the other side's: a process's
peak RSS can move by megabytes with the lengths of its paths. The runs
alternate, the parent first in even pairs and the change first in odd
ones, one process at a time.

- Trees (``--workload``, the trees of ``perfbench/workloads.py``): the
  inputs are made once with the change's ``skelgrow synth``. Each pair runs
  ``skelgrow skeletonize`` on every tree, cold into a fresh directory and,
  with ``--warm``, again into the same one (graph and score caches hit).
  Wall seconds come from ``time.monotonic`` around the process and peak RSS
  from ``os.wait4``. Every pair runs to the end; the summary then lists
  each tree, pair and mode where the sides write different
  ``skeleton.json`` or disagree on the search trajectory in
  ``run_manifest.json`` (its ``iterations``, ``tip_draws``,
  ``search_counts`` and ``best_score_history``), and the script exits 1
  if there is any. The summary also gives each side's median seconds per
  stage, from the manifest's ``timings`` and ``prior_seconds``, and names
  every tree and pair whose sides' manifest ``tip_outcomes`` differ, tip
  by tip; those differences alone do not change the exit code, since a
  change may alter outcomes on purpose.
- ``--bench SIZES``: ``skelgrow bench --sizes SIZES`` at K=100 (as
  acceptance criterion 8 runs it); reports each side's failed runs, each
  size's median preprocessing share and its count of runs at or above
  criterion 8's 0.20 bound, and, per side, the median preprocessing and
  search seconds and the largest share, the margin left to that bound. A
  failed run is recorded with its exit code and no rows.
- ``--pytest ARGS``: ``python -m pytest -q ARGS`` in each side's copy;
  reports its passes and failures.

Every run writes its own log. The last 20 lines of each failed run's log
go into its ``--json`` record and into the summary (runs with the same
lines are listed together); the work directory is removed at the end.

This script imports no numpy: the ``ru_maxrss`` of a child can never be
below its parent's high-water mark when it was started, so a parent that
loaded numpy would hide the children's peaks under its own. It prints a
summary per tree (or size); ``--json PATH`` also writes every run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (numpy-free: the trees only)

SIDES = ("parent", "change")
# run_manifest.json keys that both sides must agree on.
TRAJECTORY = ("iterations", "tip_draws", "search_counts",
              "best_score_history")
# The manifest's stage timings ("<stage>_seconds"), in pipeline order.
STAGES = ("load", "superpoints", "scoring", "search", "side_branch")
LAUNCH = ("import sys; from skelgrow.cli import main; "
          "sys.exit(main(sys.argv[1:]))")
# Log lines kept from each failed run.
TAIL = 20


def _copy_side(checkout: Path, dest: Path) -> Path:
    for part in ("src", "tests"):
        if (checkout / part).is_dir():
            shutil.copytree(checkout / part, dest / part, ignore=
                            shutil.ignore_patterns("__pycache__"))
    if (checkout / "pyproject.toml").is_file():
        shutil.copy(checkout / "pyproject.toml", dest)
    if not (dest / "src" / "skelgrow" / "cli.py").is_file():
        raise SystemExit(f"no skelgrow sources under {checkout}")
    return dest


def _spawn(side: Path, argv: list[str], log: str) -> dict:
    """The exit code ``rc``, wall ``seconds`` and ``peak_rss_mb`` of one
    process run in ``side``, with its output in ``side/logs/<log>.log``;
    a failed run also gives its last TAIL lines as ``log_tail``."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    path = side / "logs" / f"{log}.log"
    path.parent.mkdir(exist_ok=True)
    with open(path, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], stdout=fh,
                                stderr=subprocess.STDOUT, env=env, cwd=side)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
    run = {"rc": os.waitstatus_to_exitcode(status), "seconds": wall,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if run["rc"] != 0:
        lines = path.read_text(errors="replace").splitlines()
        run["log_tail"] = lines[-TAIL:]
    return run


def _prepare(tree, side: Path, inp: Path) -> None:
    inp.mkdir(parents=True)
    (inp / "spec.json").write_text(json.dumps(tree.spec))
    (inp / "config.json").write_text(json.dumps(tree.config))
    run = _spawn(side, ["-c", LAUNCH, "synth", "--spec",
                        str(inp / "spec.json"), "--points", str(tree.points),
                        "--out", str(inp)], f"synth-{tree.name}")
    if run["rc"] != 0:
        raise SystemExit("\n".join([
            f"synth failed for {tree.name} with exit {run['rc']}:",
            *run["log_tail"]]))


def _skeletonize(tree, inp: Path, out: Path) -> list[str]:
    scorer = tree.scorer
    if scorer == "override":
        scorer = f"override:{inp / 'override.json'}"
    return ["-c", LAUNCH, "skeletonize", "--cloud", str(inp / "cloud.ply"),
            "--config", str(inp / "config.json"), "--seed", str(tree.seed),
            "--points", str(tree.points), "--scorer", scorer,
            "--out", str(out)]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest(out: Path) -> dict:
    path = out / "run_manifest.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _run_trees(args, sides: dict, work: Path) -> list[dict]:
    trees = [t for t in workloads.WORKLOADS[args.workload]
             if not args.trees or t.name in args.trees]
    inputs = work / "in"
    for tree in trees:
        _prepare(tree, sides["change"], inputs / tree.name)
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for tree in trees:
            for name in order:
                out = sides[name] / "out" / tree.name
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir(parents=True)
                argv = _skeletonize(tree, inputs / tree.name, out)
                for mode in ("cold", "warm") if args.warm else ("cold",):
                    run = _spawn(sides[name], argv,
                                 f"{tree.name}-{pair}-{mode}")
                    manifest = _manifest(out) if run["rc"] == 0 else {}
                    stages = {}
                    if manifest:
                        stages = {stage: manifest["timings"][
                            f"{stage}_seconds"] for stage in STAGES}
                        stages["prior"] = manifest["prior_seconds"]
                    trajectory = [manifest.get(key) for key in TRAJECTORY]
                    runs.append({
                        "pair": pair, "tree": tree.name, "side": name,
                        "mode": mode, **run, "stages": stages,
                        "tip_outcomes": manifest.get("tip_outcomes"),
                        # Digests of what both sides must agree on.
                        "skeleton.json": _digest(
                            (out / "skeleton.json").read_bytes())
                        if run["rc"] == 0 else None,
                        "search trajectory": _digest(
                            json.dumps(trajectory).encode())})
    return runs


def _run_bench(args, sides: dict, work: Path) -> list[dict]:
    cfg = work / "bench_cfg.json"
    cfg.write_text(json.dumps({"K": 100}))
    runs = []
    for pair in range(args.pairs):
        for name in SIDES if pair % 2 == 0 else SIDES[::-1]:
            out = sides[name] / "bench.csv"
            out.unlink(missing_ok=True)
            run = _spawn(
                sides[name], ["-c", LAUNCH, "bench", "--sizes",
                              *map(str, args.bench), "--config", str(cfg),
                              "--out", str(out)], f"bench-{pair}")
            # One record per process, then one per size of a run that
            # succeeded.
            runs.append({"pair": pair, "side": name, "tree": "bench",
                         "mode": "exit", **run})
            if run["rc"] != 0:
                continue
            with open(out, newline="") as fh:
                for row in csv.DictReader(fh):
                    runs.append({
                        "pair": pair, "side": name, "rc": run["rc"],
                        "tree": f"size-{row['target_size']}",
                        "mode": "bench",
                        "seconds": float(row["total_seconds"]),
                        "preprocess_seconds":
                            float(row["preprocess_seconds"]),
                        "search_seconds": float(row["search_seconds"]),
                        "preprocess_share": float(row["preprocess_seconds"])
                        / float(row["total_seconds"])})
    return runs


def _run_pytest(args, sides: dict, work: Path) -> list[dict]:
    runs = []
    for pair in range(args.pairs):
        for name in SIDES if pair % 2 == 0 else SIDES[::-1]:
            run = _spawn(
                sides[name], ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                              *args.pytest.split()], f"pytest-{pair}")
            runs.append({"pair": pair, "side": name, "tree": "pytest",
                         "mode": "pytest", **run})
    return runs


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(runs: list[dict]) -> list[str]:
    lines = []
    keys = dict.fromkeys((r["tree"], r["mode"]) for r in runs)
    for tree, mode in keys:
        rows = [r for r in runs if (r["tree"], r["mode"]) == (tree, mode)]
        by = {s: {r["pair"]: r for r in rows if r["side"] == s}
              for s in SIDES}
        pairs = sorted(set(by["parent"]) & set(by["change"]))
        line = f"{tree:>12} {mode:>6}:"
        if mode in ("pytest", "exit"):
            fails = {s: sum(by[s][p]["rc"] != 0 for p in pairs)
                     for s in SIDES}
            lines.append(f"{line} failed runs parent {fails['parent']} / "
                         f"change {fails['change']} of {len(pairs)}")
            continue
        if not pairs:
            lines.append(f"{line} no pair in which both sides ran")
            continue
        sec = {s: [by[s][p]["seconds"] for p in pairs] for s in SIDES}
        ratios = [c / p for p, c in zip(sec["parent"], sec["change"])]
        lo, hi = _quartiles(sec["parent"])
        line += (f" s parent {statistics.median(sec['parent']):.3f} "
                 f"(q {lo:.3f}-{hi:.3f}) change "
                 f"{statistics.median(sec['change']):.3f}; ratio "
                 f"{statistics.median(ratios):.3f}, change faster in "
                 f"{sum(x < 1 for x in ratios)}/{len(ratios)}")
        if mode == "bench":
            share = {s: statistics.median(by[s][p]["preprocess_share"]
                                          for p in pairs) for s in SIDES}
            over = {s: sum(by[s][p]["preprocess_share"] >= 0.20
                           for p in pairs) for s in SIDES}
            line += (f"; preprocess share parent {share['parent']:.3f} "
                     f"change {share['change']:.3f} (runs >= 0.20: "
                     f"{over['parent']} / {over['change']})")
        else:
            rss = {s: statistics.median(by[s][p]["peak_rss_mb"]
                                        for p in pairs) for s in SIDES}
            line += (f"; peak MB parent {rss['parent']:.2f} change "
                     f"{rss['change']:.2f}")
        lines.append(line)
        if mode in ("cold", "warm"):
            lines += _stage_lines(by, pairs)
        elif mode == "bench":
            lines += _margin_lines(by, pairs)
    return lines


def _margin_lines(by: dict, pairs: list[int]) -> list[str]:
    """Each side's median preprocessing and search seconds and its largest
    preprocessing share: how close its runs come to criterion 8's 0.20."""
    lines = []
    for side in SIDES:
        runs = [by[side][p] for p in pairs]
        lines.append(
            f"{'':>20}{side:>7} median s: preprocess "
            f"{statistics.median(r['preprocess_seconds'] for r in runs):.4f}"
            f", search "
            f"{statistics.median(r['search_seconds'] for r in runs):.4f}; "
            f"largest share "
            f"{max(r['preprocess_share'] for r in runs):.3f}")
    return lines


def _stage_lines(by: dict, pairs: list[int]) -> list[str]:
    """Each side's median seconds per stage over its successful runs."""
    lines = []
    for side in SIDES:
        stages = [by[side][p]["stages"] for p in pairs
                  if by[side][p]["stages"]]
        if stages:
            lines.append(f"{'':>20}{side:>7} median s: " + ", ".join(
                f"{name} {statistics.median(s[name] for s in stages):.4f}"
                for name in (*STAGES, "prior")))
    return lines


def outcome_lines(runs: list[dict]) -> list[str]:
    """One line per tree, pair and mode whose sides' ``tip_outcomes``
    differ, giving each differing tip as ``tip parent/change``."""
    seen: dict[tuple, dict] = {}
    for r in runs:
        if "tip_outcomes" in r:
            seen.setdefault((r["tree"], r["pair"], r["mode"]), {})[
                r["side"]] = r["tip_outcomes"] or {}
    lines = []
    for (tree, pair, mode), by in seen.items():
        parent, change = by.get("parent", {}), by.get("change", {})
        tips = sorted(set(parent) | set(change), key=int)
        diff = [f"{t} {parent.get(t)}/{change.get(t)}" for t in tips
                if parent.get(t) != change.get(t)]
        if diff:
            lines.append(f"{tree:>12} {mode:>6}: pair {pair} tip outcomes "
                         f"differ (parent/change): {', '.join(diff)}")
    if seen and not lines:
        lines.append("tip outcomes: the same on both sides in every run")
    return lines


def difference_lines(runs: list[dict]) -> list[str]:
    """One line per tree, pair and mode whose sides write different
    ``skeleton.json`` or search trajectories."""
    seen: dict[tuple, dict] = {}
    for r in runs:
        if "skeleton.json" in r:
            seen.setdefault((r["tree"], r["pair"], r["mode"]), {})[
                r["side"]] = r
    lines = []
    for (tree, pair, mode), by in seen.items():
        diff = [what for what in ("skeleton.json", "search trajectory")
                if by["parent"][what] != by["change"][what]]
        if diff:
            lines.append(f"{tree:>12} {mode:>6}: pair {pair} the sides "
                         f"differ in {' and '.join(diff)}")
    return lines


def failure_lines(runs: list[dict]) -> list[str]:
    """The last log lines of every failed run, once for each set of runs
    whose lines are the same."""
    tails: dict[tuple, dict] = {}
    for r in runs:
        if "log_tail" in r:
            tails.setdefault(tuple(r["log_tail"]), {}).setdefault(
                (r["side"], r["tree"], r["mode"]), []).append(r["pair"])
    lines = []
    for tail, where in tails.items():
        names = "; ".join(f"{side} {tree} {mode} pairs "
                          f"{','.join(map(str, pairs))}"
                          for (side, tree, mode), pairs in where.items())
        lines.append(f"failed ({names}), last lines of the log:")
        lines += [f"    | {line}" for line in tail]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    what.add_argument("--bench", type=int, nargs="+", metavar="SIZE")
    what.add_argument("--pytest", metavar="ARGS")
    parser.add_argument("--trees", nargs="*", help="tree names to keep")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--warm", action="store_true",
                        help="also rerun each tree into its warm output")
    parser.add_argument("--work", type=Path,
                        help="work directory (default: a temporary one)")
    parser.add_argument("--json", type=Path, help="write every run here")
    args = parser.parse_args(argv)
    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="paired-", dir=args.work))
    try:
        # "a" and "b": side directories of equal path length.
        sides = {name: _copy_side(checkout.resolve(), work / tag)
                 for name, checkout, tag in (("parent", args.parent, "a"),
                                             ("change", args.change, "b"))}
        if args.workload:
            runs = _run_trees(args, sides, work)
        elif args.bench:
            runs = _run_bench(args, sides, work)
        else:
            runs = _run_pytest(args, sides, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    differences = difference_lines(runs)
    for line in (summary(runs) + outcome_lines(runs) + failure_lines(runs)
                 + differences):
        print(line)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
