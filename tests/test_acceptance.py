"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Each test prints ``[criterion N] <name>: PASS|FAIL`` on the real stdout so
the lines survive pytest's capture. The synthetic-corpus fixtures are
shared between the recovery criteria to keep the total runtime bounded.
"""

import csv
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import conf_from_dict, make_graph
from skelgrow.cli import EXIT_OK, main
from skelgrow.cloud import PointCloud
from skelgrow.config import SearchConfig
from skelgrow.errors import AttachmentError, CorrectionError, NoTipsError, \
    SearchStalledError
from skelgrow.evaluation import (apply_corrections, compute_segment_stats,
                                 edit_distance, per_label_ratio)
from skelgrow.geometry import edge_cost, edge_score, grow_penalty, \
    turn_penalty
from skelgrow.labels import Label
from skelgrow.search import PathPrior, SearchContext, rank, run_search
from skelgrow.seeds import SeedSet, find_tips
from skelgrow.side_branches import find_side_branches
from skelgrow.skeleton import LabeledSkeleton
from skelgrow.superpoints import build_dense_edges, build_graph, \
    build_superpoints
from skelgrow.synth import SynthSpec, generate

CFG = SearchConfig()


@pytest.fixture
def criterion(capfd):
    """Context manager printing one pass/fail line past pytest's capture."""
    @contextmanager
    def _criterion(num, name):
        status = "FAIL"
        try:
            yield
            status = "PASS"
        finally:
            with capfd.disabled():
                print(f"[criterion {num:2d}] {name}: {status}", flush=True)
    return _criterion


# -- shared synthetic corpus ----------------------------------------------

def _run_corpus(gap_probability):
    """Oracle-scored recovery over 20 trees; a failed run scores 1.0."""
    results = []
    for seed in range(20):
        spec = SynthSpec(n_leaders=7 + seed % 3, leader_spacing=0.35,
                         leader_height=2.0, seed=seed,
                         gap_probability=gap_probability)
        cloud, truth = generate(spec)
        graph = build_graph(cloud, CFG.r_super, seed)
        conf = truth.oracle_confidences(graph)
        ref, _ = truth.reference_skeleton(graph)
        cfg = SearchConfig(K=200, seed=seed)
        tips = tuple(t for t in find_tips(graph, conf, cfg)
                     if t != ref.base)
        try:
            skel, _ = run_search(graph, conf,
                                 SeedSet(tips=tips, base=ref.base), cfg)
            skel = find_side_branches(skel, graph, conf, cfg)
            _, ratio = edit_distance(skel, ref)
        except (NoTipsError, SearchStalledError, ValueError):
            skel, ratio = None, 1.0
        results.append((seed, skel, ref, ratio))
    return results


@pytest.fixture(scope="module")
def corpus():
    t0 = time.monotonic()
    clean = _run_corpus(gap_probability=0.0)
    gappy = _run_corpus(gap_probability=0.1)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"corpus runs took {elapsed:.0f}s"
    return {"clean": clean, "gappy": gappy}


# -- criteria --------------------------------------------------------------

def test_criterion_01_scoring_formulas(criterion):
    with criterion(1, "scoring formulas match pinned values"):
        t0 = time.monotonic()
        assert edge_score(0.2, 0.0, 0.4) == pytest.approx(-0.2 / 1.5,
                                                          rel=1e-9)
        assert edge_score(0.2, 0.4, 0.4) == pytest.approx(0.0, abs=1e-12)
        assert edge_score(0.2, 1.0, 0.4) == pytest.approx(0.2, rel=1e-9)
        up, right = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        assert turn_penalty(up, right, Label.LEADER, Label.LEADER, CFG) \
            == pytest.approx(0.5 * (math.pi / 4) ** 2, rel=1e-9)
        assert turn_penalty(up, right, Label.LEADER, Label.SUPPORT,
                            CFG) == 0.0
        assert grow_penalty(up, Label.SUPPORT, CFG) == pytest.approx(
            0.3 * math.pi / 4, rel=1e-9)
        assert grow_penalty(right, Label.LEADER, CFG) == pytest.approx(
            0.3 * math.pi / 4, rel=1e-9)
        assert grow_penalty(up, Label.LEADER, CFG) == 0.0
        assert grow_penalty(right, Label.SUPPORT, CFG) == 0.0
        assert grow_penalty(up, Label.TRUNK, CFG) == 0.0
        assert edge_cost(up, right, 0.2, 0.5, CFG) == pytest.approx(
            0.1 + 0.5 * (math.pi / 4) ** 2, rel=1e-9)
        assert edge_cost(up, up, 0.2, 1.0, CFG) == 0.0
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_rank_statistic(criterion):
    with criterion(2, "rank statistic worked example"):
        got = rank([4, 5, 5, 3, 7])
        np.testing.assert_allclose(got, [0.4, 0.7, 0.7, 0.2, 1.0],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(rank([2, 2]), [0.75, 0.75])


def _brute_force_costs(ctx, tip):
    states = sorted(ctx.len_noconf)
    out_states = {}
    for (u, v) in states:
        out_states.setdefault(u, []).append((u, v))
    full = {}
    for start in states:
        minimum = math.inf
        stack = [(start, frozenset({start}), 0.0)]
        while stack:
            state, used, cost = stack.pop()
            if state[1] == tip:
                minimum = min(minimum, cost + ctx.len_noconf[state])
                continue
            for nxt in out_states.get(state[1], ()):
                if nxt in used:
                    continue
                step = (ctx.len_noconf[state]
                        + ctx.turn_pen_none(state[0], state[1], nxt[1]))
                stack.append((nxt, used | {nxt}, cost + step))
        if math.isfinite(minimum):
            full[start] = minimum
    return full


def test_criterion_03_path_priors(criterion):
    with criterion(3, "path priors equal the exhaustive minimum"):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            n = int(rng.integers(4, 9))
            positions = rng.uniform(0, 0.6, size=(n, 3))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if np.linalg.norm(positions[i] - positions[j]) <= 0.25]
            if not (1 <= len(edges) <= n + 2):
                continue
            graph = make_graph(positions, edges)
            conf = conf_from_dict(graph,
                                  {e: rng.uniform(0, 1) for e in edges})
            ctx = SearchContext(graph, conf, CFG)
            tip = int(rng.integers(n))
            prior = PathPrior(ctx, tip)
            expected = _brute_force_costs(ctx, tip)
            assert set(prior.cost) == set(expected)
            for state, cost in expected.items():
                assert prior.cost[state] == pytest.approx(cost, abs=1e-9)
            checked += 1
        assert time.monotonic() - t0 < 10.0


def test_criterion_04_superpoint_cover(criterion):
    with criterion(4, "superpoint cover and dense-edge oracle"):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        r = CFG.r_super
        for trial in range(100):
            n = int(rng.integers(1_000, 10_001))
            scale = rng.uniform(0.3, 1.0)
            pts = rng.uniform(0, scale, size=(n, 3)).astype(np.float32)
            cloud = PointCloud(pts)
            sps = build_superpoints(cloud, r, seed=trial)
            covered = np.zeros(n, dtype=bool)
            for sp in sps:
                covered[sp.member_indices] = True
                seed_pt = pts[sp.seed_index].astype(np.float64)
                members = pts[sp.member_indices].astype(np.float64)
                assert np.linalg.norm(members - seed_pt,
                                      axis=1).max() <= r + 1e-9
            assert covered.all()
            edges, lengths = build_dense_edges(sps, r)
            pos = np.asarray([sp.position for sp in sps])
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            expected = sorted(
                (i, j) for i in range(len(sps))
                for j in range(i + 1, len(sps)) if dist[i, j] <= 2 * r)
            assert [tuple(int(v) for v in e) for e in edges] == expected
            np.testing.assert_allclose(
                lengths, [dist[i, j] for i, j in expected], atol=1e-9)
        assert time.monotonic() - t0 < 30.0


def test_criterion_05_attachment_rules(criterion):
    with criterion(5, "attachment-rule fuzz over 1e5 operations"):
        t0 = time.monotonic()
        rng = np.random.default_rng(19)
        labels = (Label.TRUNK, Label.SUPPORT, Label.LEADER,
                  Label.SIDE_BRANCH)
        attaches = 0
        while attaches < 100_000:
            skel = LabeledSkeleton(0)
            next_node = 1
            for _ in range(int(rng.integers(5, 40))):
                nodes = sorted(skel.nodes)
                parent = nodes[int(rng.integers(len(nodes)))]
                lab = labels[int(rng.integers(len(labels)))]
                edge = (parent, next_node)
                verdict = skel.check_all(edge, lab)
                if verdict is None:
                    skel = skel.attach(edge, lab)
                    next_node += 1
                else:
                    with pytest.raises(AttachmentError):
                        skel.attach(edge, lab)
                attaches += 1
            assert skel.topology_violations() == []
            assert skel.label_violations() == []
        assert time.monotonic() - t0 < 60.0


def test_criterion_06_corpus_recovery(criterion, corpus):
    with criterion(6, "oracle-scored synthetic-tree recovery"):
        clean = np.array([r for _, _, _, r in corpus["clean"]])
        assert (clean <= 0.05).sum() >= 18, clean.round(3).tolist()
        gappy = np.array([r for _, _, _, r in corpus["gappy"]])
        assert np.median(gappy) <= 0.30, gappy.round(3).tolist()


def test_criterion_07_trunk_recovery(criterion, corpus):
    with criterion(7, "trunk recovered exactly on the median tree"):
        stats = compute_segment_stats(
            [ref for _, _, ref, _ in corpus["clean"]])
        ratios = []
        for _, skel, ref, _ in corpus["clean"]:
            if skel is None:
                ratios.append(1.0)
                continue
            _, ratio = per_label_ratio(skel, ref, Label.TRUNK, stats)
            ratios.append(1.0 if ratio is None else ratio)
        assert float(np.median(ratios)) == 0.0, ratios


def test_criterion_08_runtime_scaling(criterion, tmp_path):
    with criterion(8, "near-linear runtime scaling"):
        cfg = tmp_path / "bench_cfg.json"
        cfg.write_text(json.dumps({"K": 100}))
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "100", "200", "400",
                     "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        sizes = [float(r["n_superpoints"]) for r in rows]
        totals = [float(r["total_seconds"]) for r in rows]
        for row in rows:
            share = float(row["preprocess_seconds"]) / \
                float(row["total_seconds"])
            assert share < 0.20, rows
        slope = np.polyfit(np.log(sizes), np.log(totals), 1)[0]
        assert slope <= 1.5, (slope, rows)


def test_criterion_09_thread_invariance(criterion, tmp_path):
    with criterion(9, "output independent of the thread count"):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"n_leaders": 2, "leader_height": 1.0, "seed": 1}))
        synth_out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec),
                     "--out", str(synth_out)]) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 50, "seed": 1}))
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"run{threads}"
            code = main([
                "skeletonize", "--cloud", str(synth_out / "cloud.ply"),
                "--config", str(cfg),
                "--scorer", f"override:{synth_out / 'override.json'}",
                "--threads", threads, "--out", str(out)])
            assert code == EXIT_OK
            outputs.append((out / "skeleton.json").read_bytes())
        assert outputs[0] == outputs[1]


def _random_valid_skeleton(rng, size):
    labels = (Label.TRUNK, Label.SUPPORT, Label.LEADER, Label.SIDE_BRANCH)
    skel = LabeledSkeleton(0)
    next_node = 1
    while skel.num_edges < size:
        nodes = sorted(skel.nodes)
        parent = nodes[int(rng.integers(len(nodes)))]
        lab = labels[int(rng.integers(len(labels)))]
        if skel.check_all((parent, next_node), lab) is None:
            skel = skel.attach((parent, next_node), lab)
            next_node += 1
    return skel, next_node


def test_criterion_10_edit_distance(criterion):
    with criterion(10, "edit distance bounded by the edit script"):
        rng = np.random.default_rng(23)
        base = LabeledSkeleton(0).attach((0, 1), Label.TRUNK)
        assert edit_distance(base, base) == (0, 0.0)

        # Hand case: chains shifted by one node share two of three edges.
        def chain(b):
            s = LabeledSkeleton(b)
            for k in range(3):
                s = s.attach((b + k, b + k + 1), Label.TRUNK)
            return s
        dist, ratio = edit_distance(chain(0), chain(1))
        assert dist == 2 and ratio == pytest.approx(2 / 3)

        label_names = ["Trunk", "Support", "Leader", "SideBranch"]
        for _ in range(1000):
            skel, next_node = _random_valid_skeleton(
                rng, int(rng.integers(4, 12)))
            edited = skel
            applied = 0
            for _ in range(int(rng.integers(1, 5))):
                edges = sorted(edited.edge_labels)
                p, c = edges[int(rng.integers(len(edges)))]
                kind = int(rng.integers(3))
                if kind == 0:
                    op = {"op": "relabel", "parent": p, "child": c,
                          "label": label_names[int(rng.integers(4))]}
                elif kind == 1:
                    op = {"op": "remove-edge", "parent": p, "child": c}
                else:
                    op = {"op": "add-edge", "parent": c,
                          "child": next_node,
                          "label": label_names[int(rng.integers(4))]}
                    next_node += 1
                try:
                    candidate = apply_corrections(edited, [op])
                except CorrectionError:
                    continue
                if candidate != edited:
                    edited = candidate
                    applied += 1
            dist, _ = edit_distance(edited, skel)
            back, _ = edit_distance(skel, edited)
            assert dist == back
            assert dist <= applied
