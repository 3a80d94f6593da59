import hashlib
import random

import pytest

from conftest import random_graph
from powerdom.bruteforce import solve_bf, solve_domset_bf
from powerdom.generators import (
    MinRepInstance,
    attach_paths,
    connector_arm,
    minrep_cover_bf,
    minrep_cover_check,
    minrep_to_pds,
    parse_minrep,
    pendant_cycle,
    spider,
)
from powerdom.graphs import Graph, GraphFormatError, emit_graph
from powerdom.propagation import INF, propagate


def test_spider_shape():
    g = spider(3, 4)
    assert g.n == 13
    assert g.degree(0) == 3
    # Every leg is a path: one degree-1 tip per leg, the rest degree 2.
    tips = [v for v in range(1, g.n) if g.degree(v) == 1]
    assert len(tips) == 3
    with pytest.raises(ValueError):
        spider(0, 2)
    with pytest.raises(ValueError):
        spider(2, 0)


def test_pendant_cycle_shape():
    g = pendant_cycle(5)
    assert g.n == 10 and g.m == 10
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [1] * 5 + [3] * 5
    with pytest.raises(ValueError):
        pendant_cycle(2)


def test_attach_paths_shape_and_identity_cases():
    g = Graph(3, [(0, 1), (1, 2)])
    assert attach_paths(g, 1) is g
    grown = attach_paths(g, 3)
    assert grown.n == 9
    assert grown.m == g.m + 3 * 2
    # Original adjacency survives untouched.
    assert grown.has_edge(0, 1) and grown.has_edge(1, 2)


def test_attach_paths_reduces_domination():
    rng = random.Random(31)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 5), 0.5)
        for ell in (2, 3):
            grown = attach_paths(g, ell)
            dom = solve_domset_bf(g)[0]
            pds = solve_bf(grown, range(grown.n), ell)[0]
            assert dom == pds, (g.edges, ell)


def test_connector_arm_one_way():
    g, roles = connector_arm()
    master, center = roles["master"], roles["center"]
    terminal = roles["terminal"]
    # Forward: an observed center releases beta, then the terminal.
    fwd = propagate(g, {master, center}, g.n)
    assert fwd.times[roles["beta"]] == 2
    assert fwd.times[terminal] == 3
    # Backward: an observed terminal releases nothing new, ever.
    back = propagate(g, {master, terminal}, g.n)
    assert back.times[center] == INF
    assert back.times[roles["beta"]] == INF


def test_minrep_cover_bf_toys():
    inst = MinRepInstance(1, 2, 1, 2, ((0, 0), (1, 1)))
    size, pick = minrep_cover_bf(inst)
    assert size == 2
    assert minrep_cover_check(inst, pick)
    # Picking group-mates that do not share an edge covers nothing.
    assert not minrep_cover_check(inst, {inst.a_id(0), inst.b_id(1)})


def test_minrep_parse_emit_round_trip():
    inst = MinRepInstance(2, 1, 1, 2, ((0, 0), (1, 1)))
    assert parse_minrep("minrep 2 1 1 2\ne 1 1\ne 2 2\n") == inst
    with pytest.raises(GraphFormatError):
        parse_minrep("e 1 1\n")
    with pytest.raises(GraphFormatError):
        parse_minrep("minrep 1 1 1\n")


def test_minrep_reduction_size_bound():
    inst = MinRepInstance(1, 2, 1, 2, ((0, 0), (1, 1)))
    g, info = minrep_to_pds(inst)
    assert g.n <= 4 + inst.n_elements + 10 * info.copies * len(inst.edges)
    assert len(info.roles) == g.n
    assert info.roles[info.w_star] == "w*"
    centers = [r for r in info.roles if r.endswith(".center")]
    assert len(centers) == info.copies * len(inst.super_edges())


def test_minrep_reduction_groups_edges_as_the_per_super_edge_filter():
    # A seeded random instance, its edges in shuffled order: each super-edge
    # keeps its edges in input order, as filtering the whole edge list per
    # super-edge gave, and `gen minrep` output is locked to the digest that
    # filtering version produced.
    rng = random.Random(97)
    pairs = [(a, b) for a in range(12) for b in range(12)]
    rng.shuffle(pairs)
    inst = MinRepInstance(3, 4, 4, 3, tuple(pairs[:40]))
    groups = inst.edges_by_super()
    assert tuple(groups) == inst.super_edges()
    for (i, j), edges in groups.items():
        assert edges == [(a, b) for a, b in inst.edges
                         if inst.group_of_a(a) == i and inst.group_of_b(b) == j]
    g, info = minrep_to_pds(inst)
    text = emit_graph(g, comments=[f"role {v + 1} {r}" for v, r in enumerate(info.roles)])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "60c87454b231e026faf6b4eb490710131d8566f6ce7a60e7c41147632e3244b1")


def test_minrep_reduction_optimum_is_cover_plus_one():
    inst = MinRepInstance(1, 1, 1, 1, ((0, 0),))
    cover, _ = minrep_cover_bf(inst)
    g, info = minrep_to_pds(inst)
    capped = solve_bf(g, range(g.n), g.n, size_cap=cover + 1, force=True)
    assert capped is not None and capped[0] == cover + 1
    assert solve_bf(g, range(g.n), g.n, size_cap=cover, force=True) is None
