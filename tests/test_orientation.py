import random

import pytest

from conftest import cycle_graph, path_graph, random_graph
from powerdom.graphs import Graph, GraphFormatError
from powerdom.orientation import (
    TimedOrientation,
    emit_orientation,
    orientation_from_trace,
    origin,
    parse_orientation,
    validate,
)
from powerdom.propagation import INF, is_feasible, propagate


def test_path_construction_validates():
    g = path_graph(3)
    to = orientation_from_trace(g, propagate(g, {0}, 2))
    assert to.directed == {(0, 1), (1, 2)}
    assert to.times == (0, 1, 2)
    assert validate(g, to, range(g.n)) is None
    assert origin(to) == {0}


def test_all_origins_mean_no_directed_edges():
    g = cycle_graph(4)
    to = orientation_from_trace(g, propagate(g, set(range(4)), 1))
    assert to.directed == frozenset()
    assert all(t == 0 for t in to.times)
    assert validate(g, to, range(g.n)) is None


def test_c4_tie_break_picks_smaller_witness():
    g = cycle_graph(4)
    to = orientation_from_trace(g, propagate(g, {0}, 2))
    # Node 2 is reachable from both sides in round 2; the smaller id wins.
    assert (1, 2) in to.directed
    assert (3, 2) not in to.directed


def test_double_in_degree_violates_p2():
    g = path_graph(3)
    to = TimedOrientation(frozenset({(0, 1), (2, 1)}), frozenset(), (0, 1, 0), 2)
    bad = validate(g, to, range(g.n))
    assert bad is not None and bad.prop == "P2" and bad.where == 1
    assert str(bad) == "P2 at node 2: label 1 but in-degree 2"


def test_unobserved_target_violates_p1():
    g = Graph(1, [])
    to = TimedOrientation(frozenset(), frozenset(), (INF,), 1)
    bad = validate(g, to, {0})
    assert bad is not None and bad.prop == "P1"
    # Dropping the node from the targets removes the complaint.
    assert validate(g, to, set()) is None


def test_infinity_node_with_edge_violates_p3():
    g = path_graph(2)
    to = TimedOrientation(frozenset({(0, 1)}), frozenset(), (0, INF), 1)
    bad = validate(g, to, set())
    assert bad is not None and bad.prop == "P3"


def test_origin_in_degree_violates_p4():
    g = path_graph(2)
    to = TimedOrientation(frozenset({(1, 0)}), frozenset(), (0, 0), 1)
    bad = validate(g, to, set())
    assert bad is not None and bad.prop == "P4"


def test_wrong_timing_violates_p5():
    g = path_graph(3)
    to = TimedOrientation(
        frozenset({(0, 1), (1, 2)}), frozenset(), (0, 1, 1), 2,
    )
    bad = validate(g, to, range(g.n))
    assert bad is not None and bad.prop == "P5" and bad.where == (1, 2)
    assert str(bad) == "P5 at edge 2->3: label 1, timing rule requires 2"


def test_edge_partition_is_enforced():
    g = path_graph(3)
    to = TimedOrientation(frozenset({(0, 1)}), frozenset(), (0, 1, INF), 1)
    with pytest.raises(ValueError, match=r"edge \(2, 3\) is missing"):
        validate(g, to, set())


def test_construct_and_validate_random():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.15, 0.8))
        s = {v for v in range(n) if rng.random() < 0.35}
        ell = rng.randint(1, n)
        to = orientation_from_trace(g, propagate(g, s, ell))
        assert validate(g, to, set()) is None
        assert origin(to) == frozenset(s)


def test_valid_orientations_certify_feasibility():
    # Random label guesses that happen to validate must be honest: their
    # origin really observes every finite-labeled node in time.
    rng = random.Random(5)
    hits = 0
    for _ in range(4000):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, 0.5)
        ell = rng.randint(1, 3)
        directed = set()
        undirected = set()
        for u, v in g.edges:
            roll = rng.random()
            if roll < 0.3:
                directed.add((u, v))
            elif roll < 0.6:
                directed.add((v, u))
            else:
                undirected.add((u, v))
        times = tuple(
            rng.choice([0, 1, 2, ell, INF]) for _ in range(n)
        )
        to = TimedOrientation(frozenset(directed), frozenset(undirected), times, ell)
        finite = {v for v in range(n) if times[v] != INF}
        if validate(g, to, finite) is None:
            hits += 1
            assert is_feasible(g, origin(to), finite, ell)
    assert hits > 50


def test_parse_emit_round_trip():
    g = path_graph(3)
    to = orientation_from_trace(g, propagate(g, {0}, 2))
    text = emit_orientation(to)
    back = parse_orientation(text, g.n, 2)
    assert back == to


def test_parse_rejects_garbage():
    with pytest.raises(GraphFormatError):
        parse_orientation("d 1\n", 3, 2)
    with pytest.raises(GraphFormatError):
        parse_orientation("t 1 maybe\n", 3, 2)
    with pytest.raises(GraphFormatError):
        parse_orientation("x 1 2\n", 3, 2)
