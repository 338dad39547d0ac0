"""End-to-end and per-layer benchmark of `skelgrow skeletonize`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload in turn
    python3 perfbench/run.py --write-fingerprints # refresh fingerprints.json

Run from the root of a source checkout; the program is imported from its
`src/` directory. Each workload generates its trees with `skelgrow synth`,
then runs one `skeletonize` process per operation, one at a time, and
checks every output. A run repeats whole rounds of the same operations
while another round still fits in `--seconds` (at least one round). The
last line of standard output is the JSON result; with `--trace 1` it
holds the per-layer metrics of one extra round traced in this process,
and the per-layer metrics are also merged into `results/trace.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from checks import load_truth, matched_edges, skeleton_problems
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"
FINGERPRINTS = BENCH / "fingerprints.json"
LAUNCH = BENCH / "launch.py"

#: Fewest interpreter set-up samples per run; bare imports top them up.
MIN_SETUP_SAMPLES = 3
#: Oracle-scored clean trees must place at least this share of their
#: skeleton edges on a same-label centreline.
CLEAN_MATCH_SHARE = 0.90


@dataclass
class Op:
    """One `skeletonize` process and what became of it."""

    tree: object                # workloads.Tree
    kind: str                   # cold | warm | truncated
    rc: int = 0
    wall: float = 0.0
    setup: float = 0.0
    rss_mb: float = 0.0
    digest: str = ""
    edges: int = 0
    matched: int = 0
    fault: str | None = None    # the known fault it failed by
    layer_counts: dict = field(default_factory=dict)  # traced runs

    @property
    def ok(self) -> bool:
        return self.rc == 0


@dataclass
class Run:
    workload: str
    ops: list[Op] = field(default_factory=list)
    rounds: int = 0
    setup_samples: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    per_layer: dict = field(default_factory=dict)
    trees: dict = field(default_factory=dict)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _prepare(tree, where: Path) -> Path:
    """Generate the tree's cloud, truth and override with `skelgrow synth`
    and write its config; returns the input directory."""
    import skelgrow.cli as cli
    inp = where / tree.name / "in"
    inp.mkdir(parents=True)
    (inp / "spec.json").write_text(json.dumps(tree.spec))
    (inp / "config.json").write_text(json.dumps(tree.config))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["synth", "--spec", str(inp / "spec.json"),
                       "--points", str(tree.points), "--out", str(inp)])
    if rc != 0:
        raise SystemExit(f"synth failed for {tree.name} with exit {rc}")
    return inp


def _argv(tree, inp: Path, out: Path, threads: int) -> list[str]:
    scorer = tree.scorer
    if scorer == "override":
        scorer = f"override:{inp / 'override.json'}"
    return ["skeletonize", "--cloud", str(inp / "cloud.ply"),
            "--config", str(inp / "config.json"), "--seed", str(tree.seed),
            "--points", str(tree.points), "--scorer", scorer,
            "--threads", str(threads), "--out", str(out)]


def _spawn(argv: list[str], stamp: Path, log: Path) -> tuple[int, float,
                                                             float, float]:
    """Run the launcher; returns (exit code, wall s, set-up s, peak MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    stamp.unlink(missing_ok=True)
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), str(stamp),
                                 *argv], stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - t0 if stamp.exists() else float("nan")
    return proc.returncode, wall, setup, usage.ru_maxrss / 1024.0


def _in_process(argv: list[str]) -> tuple[int, float]:
    import skelgrow.cli as cli
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, wall


def _truncate_score_cache(out: Path) -> bool:
    caches = sorted(out.glob("cache_scores_*.json"))
    for path in caches:
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
    return bool(caches)


def _run_tree(tree, inp: Path, out: Path, runner, run: Run,
              tag: str) -> list[Op]:
    """Every operation of one tree: a cold run into a fresh directory and,
    for trees with reruns, a warm --threads 2 rerun and a rerun after
    truncating the score cache. `runner(argv, name)` returns an Op."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    steps = [("cold", 1, tree.fault)]
    if tree.reruns:
        steps += [("warm", 2, None),
                  ("truncated", 1, workloads.TRUNCATED_CACHE_FAULT)]
    ops = []
    for kind, threads, fault in steps:
        where = f"{run.workload}/{tree.name}/{kind}{tag}"
        if kind == "truncated" and not _truncate_score_cache(out):
            run.problems.append(f"{where}: no score cache to truncate")
        op = runner(_argv(tree, inp, out, threads), kind)
        op.tree = tree
        ops.append(op)
        if fault is not None and op.rc == fault[0]:
            op.fault = fault[1]
            continue
        if op.rc != 0:
            run.problems.append(f"{where}: exit {op.rc}")
            continue
        skel = out / "skeleton.json"
        op.digest = _sha(skel)
        doc = json.loads(skel.read_text())
        op.edges = len(doc["edges"])
        run.problems += [f"{where}: {p}" for p in skeleton_problems(doc)]
        op.matched, on_truth = matched_edges(doc, load_truth(
            inp / "truth.json"))
        if on_truth < 1:
            run.problems.append(f"{where}: no edge on a truth centreline")
        clean_oracle = (tree.scorer == "override"
                        and not tree.spec.get("gap_probability"))
        if clean_oracle and op.matched < CLEAN_MATCH_SHARE * op.edges:
            run.problems.append(f"{where}: {op.matched}/{op.edges} edges "
                                f"matched, below {CLEAN_MATCH_SHARE:.0%}")
        if kind != "cold" and ops[0].digest != op.digest:
            run.problems.append(f"{where}: skeleton.json differs from the "
                                f"cold run")
    return ops


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(name)
    where = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(where, ignore_errors=True)
    try:
        trees = workloads.round_order(name, seed)
        inputs = {t.name: _prepare(t, where) for t in trees}

        def spawn(argv, kind):
            rc, wall, setup, rss = _spawn(argv, where / "stamp",
                                          where / "log.txt")
            run.setup_samples.append(setup)
            return Op(None, kind, rc, wall, setup, rss)

        t_start = time.monotonic()
        last = 0.0
        while run.rounds == 0 or (time.monotonic() - t_start + last
                                  <= seconds):
            t0 = time.monotonic()
            for tree in trees:
                run.ops += _run_tree(tree, inputs[tree.name],
                                     where / tree.name / "out", spawn, run,
                                     f" (round {run.rounds + 1})")
            run.rounds += 1
            last = time.monotonic() - t0
        while len(run.setup_samples) < MIN_SETUP_SAMPLES:
            spawn([], "setup")

        first = {(op.tree.name, op.kind): op.digest
                 for op in run.ops[:len(run.ops) // run.rounds]}
        for op in run.ops:
            if op.ok and op.digest != first[(op.tree.name, op.kind)]:
                run.problems.append(f"{name}/{op.tree.name}/{op.kind}: "
                                    f"output changed between rounds")
        if trace:
            _traced_round(run, trees, inputs, where, first, Tracer())
    finally:
        shutil.rmtree(where, ignore_errors=True)
    return run


def _traced_round(run: Run, trees, inputs, where: Path, untraced: dict,
                  tracer) -> None:
    """One more round in this process with every layer wrapped."""
    traced_cold = []

    def in_process(argv, kind):
        before = dict(tracer.counts)
        rc, wall = _in_process(argv)
        op = Op(None, kind, rc, wall)
        if kind == "cold" and rc == 0:
            traced_cold.append(op)
        op.layer_counts = {k: v - before.get(k, 0)
                           for k, v in tracer.counts.items()}
        return op

    tracer.install()
    try:
        ops = []
        for tree in trees:
            ops += _run_tree(tree, inputs[tree.name],
                             where / tree.name / "traced", in_process, run,
                             " (traced)")
    finally:
        tracer.remove()
    for op in ops:
        if op.ok and op.digest != untraced[(op.tree.name, op.kind)]:
            run.problems.append(f"{run.workload}/{op.tree.name}/{op.kind}: "
                                f"traced skeleton.json differs")
        if op.kind == "cold":
            run.trees[op.tree.name] = {
                "spec": op.tree.spec, "config": op.tree.config,
                "scorer": op.tree.scorer, "exit": op.rc,
                "skeleton_edges": op.edges, "matched_edges": op.matched,
                **{k: int(v) for k, v in op.layer_counts.items()}}
    metrics = tracer.metrics()
    untraced_work = [op.wall - op.setup for op in run.ops
                     if op.kind == "cold" and op.ok]
    if traced_cold and untraced_work:
        metrics["trace.overhead_s"] = (
            statistics.median(op.wall for op in traced_cold)
            - statistics.median(untraced_work), "s")
    metrics["output.changed_trees"] = (_changed_trees(run), "count")
    run.per_layer = metrics


def _fingerprints(run: Run) -> dict[str, str]:
    return {op.tree.name: op.digest for op in run.ops
            if op.kind == "cold" and op.ok}


def _changed_trees(run: Run) -> int:
    try:
        recorded = json.loads(FINGERPRINTS.read_text()).get(run.workload, {})
    except FileNotFoundError:
        recorded = {}
    now = _fingerprints(run)
    return sum(recorded.get(tree) != digest for tree, digest in now.items())


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    # tree_s takes each tree's median over rounds first, so that the
    # number of rounds a run fits does not change which tree it reports.
    cold: dict[str, list[float]] = {}
    for op in run.ops:
        if op.kind == "cold" and op.ok:
            cold.setdefault(op.tree.name, []).append(op.wall)
    done = [op for op in run.ops if op.ok]
    first_round = run.ops[:len(run.ops) // run.rounds]
    return {
        "tree_s": (statistics.median(statistics.median(walls)
                                     for walls in cold.values()), "s"),
        "edges_per_s": (sum(op.edges for op in done)
                        / sum(op.wall for op in done), "edges/s"),
        "matched_edges": (sum(op.matched for op in first_round
                              if op.kind == "cold" and op.ok), "edges"),
        "peak_rss_mb": (max(op.rss_mb for op in run.ops), "MB"),
        "setup_s": (statistics.median(run.setup_samples), "s"),
    }


def report(run: Run, seed: int, trace: bool) -> dict:
    """Print the human summary; return the JSON result."""
    failed = [op for op in run.ops if op.fault]
    print(f"workload {run.workload}, seed {seed}: {run.rounds} round(s), "
          f"{len(run.ops)} operations attempted, {len(failed)} failed")
    for fault in sorted({op.fault for op in failed}):
        names = sorted({op.tree.name + "/" + op.kind for op in failed
                        if op.fault == fault})
        print(f"  failed by known fault: {fault}: {', '.join(names)}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    result = {"correct": not run.problems, "attempted": len(run.ops),
              "failed": len(failed), "metrics": {}}
    if any(op.ok and op.kind == "cold" for op in run.ops):
        e2e = end_to_end(run)
        for key, (value, unit) in e2e.items():
            print(f"  {key} {value:.6g} {unit}")
        warm = [op.wall for op in run.ops if op.kind == "warm" and op.ok]
        if warm:
            print(f"  warm_tree_s {statistics.median(warm):.6g} s")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u)
                             in (run.per_layer if trace else e2e).items()}
    if trace:
        print(f"  output.changed_trees "
              f"{run.per_layer.get('output.changed_trees', (0,))[0]:.0f}")
        _record_trace(run, seed)
    return result


def _record_trace(run: Run, seed: int) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / "trace.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[run.workload] = {
        "seed": seed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(run.per_layer.items())},
        "trees": run.trees}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprints", action="store_true",
                        help="run one round of every workload and record "
                             "each skeleton.json's sha256")
    args = parser.parse_args(argv)
    if not (SRC / "skelgrow" / "cli.py").is_file():
        print(f"error: no skelgrow sources under {SRC}; run from the root "
              f"of a skelgrow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_fingerprints:
        doc = {}
        for name in workloads.WORKLOADS:
            run = run_workload(name, 0, 0.0, False)
            if run.problems:
                report(run, 0, False)
                return 1
            doc[name] = dict(sorted(_fingerprints(run).items()))
        FINGERPRINTS.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"fingerprints of {sum(map(len, doc.values()))} trees -> "
              f"{FINGERPRINTS.relative_to(ROOT)}")
        return 0
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    status = 0
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result = report(run, args.seed, bool(args.trace))
        print(json.dumps(result), flush=True)
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
