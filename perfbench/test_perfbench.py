"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import instances  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, post_order, self_times, subsets_tried  # noqa: E402

from powerdom.bruteforce import _covers, solve_bf  # noqa: E402
from powerdom.planar import compute_levels  # noqa: E402
from powerdom.treedecomp import heuristic_td, to_nice  # noqa: E402


def _workload(name: str, seed: int, workdir: Path) -> worker.Workload:
    return worker.Workload(argparse.Namespace(workload=name, seed=seed, workdir=str(workdir)))


def test_instances_are_byte_identical_for_one_seed(tmp_path):
    for name in instances.WORKLOADS:
        a = _workload(name, 7, tmp_path / "a")
        b = _workload(name, 7, tmp_path / "b")
        for nm in a.instances:
            assert a.instances[nm] == b.instances[nm]
            assert instances.write_graph(a.instances[nm].graph) == instances.write_graph(b.instances[nm].graph)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_seeds_and_rounds_relabel_and_order_differently():
    assert instances.build("path:30", 1).graph != instances.build("path:30", 2).graph
    assert instances.build("path:30", 1, 0).graph != instances.build("path:30", 1, 1).graph
    assert instances.build("path:30", 1, 1) == instances.build("path:30", 1, 1)
    ops = instances.WORKLOADS["sparse-long"]
    assert instances.pass_order(ops, 1, 0) != instances.pass_order(ops, 2, 0)
    assert sorted(instances.pass_order(ops, 1, 0)) == list(range(len(ops)))


def test_pass_order_keeps_chains_in_order():
    ops = instances.WORKLOADS["cli-pipeline"]
    for seed in range(5):
        order = instances.pass_order(ops, seed, 3)
        assert sorted(order) == list(range(len(ops)))
        for i, j in itertools.combinations(range(len(ops)), 2):
            if ops[i].chain == ops[j].chain >= 0:
                assert order.index(i) < order.index(j)


@pytest.mark.parametrize("name,ell", [
    ("path:11", 2), ("grid:3,3", 1), ("pendant_cycle:5", 2),
    ("stacked:3,3", 1), ("spider:3,3", 2), ("attach_path:4,2", 2),
])
def test_relabelling_keeps_the_optimum(name, ell):
    plain = instances.build(name, 0).graph
    family, _, args = name.partition(":")
    original, _ = instances.FAMILIES[family](*(int(a) for a in args.split(",")))
    want = solve_bf(original, range(original.n), ell)[0]
    for seed in (0, 1, 2):
        g = instances.build(name, seed).graph
        assert solve_bf(g, range(g.n), ell)[0] == want
    assert plain.n == original.n and plain.m == original.m


def test_rotation_systems_give_peeling_levels():
    for seed in (0, 3):
        inst = instances.build("stacked:3,5", seed)
        levels = compute_levels(inst.graph, inst.rotation).level
        for v in range(15):
            assert levels[inst.perm[v]] == v // 3 + 1
        inst = instances.build("grid:3,5", seed)
        levels = compute_levels(inst.graph, inst.rotation).level
        for v in range(15):
            inner = 0 < v // 5 < 2 and 0 < v % 5 < 4
            assert levels[inst.perm[v]] == (2 if inner else 1)


def test_self_time_on_a_synthetic_span_tree():
    # op  [0, 10]
    #   a [1, 4]     b [5, 9]
    #     a1 [2, 3]    b1 [6, 7]  b2 [7, 8.5]
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b1", 6.0, 7.0, 3, 0],
        ["b2", 7.0, 8.5, 3, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)


@pytest.mark.parametrize("name,ell", [("path:9", 2), ("grid:2,4", 1), ("spider:3,2", 1)])
def test_subsets_tried_counts_the_search(name, ell):
    g = instances.build(name, 5).graph
    size, witness = solve_bf(g, range(g.n), ell)
    tmask = (1 << g.n) - 1
    tried = 0
    for s in range(1, size + 1):
        for combo in itertools.combinations(range(g.n), s):
            tried += 1
            if _covers(g.closed_masks(), combo, tmask, ell):
                break
        else:
            continue
        break
    assert subsets_tried(g.n, size, witness) == tried


def test_post_order_matches_the_solver():
    from powerdom import dpsolve

    if not hasattr(dpsolve, "_post_order"):
        pytest.skip("solver no longer exposes its post-order")
    for name in ("grid:3,4", "spider:3,4", "pendant_cycle:6"):
        ntd = to_nice(heuristic_td(instances.build(name, 2).graph))
        assert post_order(ntd) == dpsolve._post_order(ntd)


def _traced_ptas(name: str) -> dict:
    from powerdom import planar

    inst = instances.build(name, 4)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        levels = planar.compute_levels(inst.graph, inst.rotation)
        planar.ptas_detailed(inst.graph, levels, 1, 1)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert planar.solve_dp.__module__ == "powerdom.dpsolve"
    return tracer.layer_metrics(1, 1.0)


def test_block_counts_show_the_cache():
    grid = _traced_ptas("grid:3,5")
    assert (grid["planar.blocks_solved"], grid["planar.blocks_total"]) == (3, 5)
    for name in ("stacked:3,6", "stacked:3,8"):
        stacked = _traced_ptas(name)
        assert stacked["planar.blocks_solved"] == stacked["planar.blocks_total"] > 0
        assert stacked["planar.block_reuse_frac"] == 0
        assert stacked["dpsolve.states_total"] == sum(
            stacked[f"dpsolve.states.{k}"] for k in ("leaf", "insert", "forget", "join"))


def test_a_wrong_stored_optimum_fails_only_its_op(tmp_path):
    wl = _workload("ptas-planar", 1, tmp_path)
    wrong, right = instances.Op("ptas", "grid:3,4", 1), instances.Op("ptas", "grid:3,5", 1)
    wl.optima[wrong.key] += 1
    assert wl.run_ptas(wrong)[2] is not None
    assert wl.run_ptas(right)[2] is None
    dp = _workload("grid-width", 1, tmp_path)
    op = instances.Op("dp", "pendant_cycle:12", 3)
    assert dp.run_dp(op)[2] is None
    dp.optima[op.key] -= 1
    assert "stored optimum" in dp.run_dp(op)[2]


def test_output_checks_reject_bad_outputs():
    edges = [(0, 1), (1, 2)]
    good = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
    assert worker.td_problem(good, 3, edges) is None
    assert worker.td_problem("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n", 3, edges) is not None
    assert worker.td_problem("s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3 1\n1 2\n2 3\n", 3, edges) is not None
    assert worker.path_distances(5, (1, 4)) == [1, 0, 1, 1, 0]
