import random

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from powerdom.graphs import GraphFormatError
from powerdom.treedecomp import (
    TreeDecomposition,
    emit_td,
    heuristic_td,
    max_bag_edges,
    parse_td,
    to_nice,
    validate_td,
)


def test_tree_shape_enforced():
    with pytest.raises(ValueError):
        TreeDecomposition((), ())
    with pytest.raises(ValueError):
        TreeDecomposition((frozenset({0}), frozenset({1})), ())
    with pytest.raises(ValueError):
        TreeDecomposition(
            (frozenset({0}), frozenset({1}), frozenset({2})),
            ((0, 1), (0, 1)),
        )


def test_heuristic_widths():
    assert heuristic_td(path_graph(6)).width == 1
    assert heuristic_td(star_graph(5)).width == 1
    assert heuristic_td(cycle_graph(7)).width == 2
    assert heuristic_td(complete_graph(4)).width == 3


def test_heuristic_always_valid():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8))
        td = heuristic_td(g)
        assert validate_td(g, td) is None


def test_validate_catches_missing_pieces():
    g = path_graph(3)
    # Node 2 never appears.
    td = TreeDecomposition((frozenset({0, 1}),), ())
    bad = validate_td(g, td)
    assert bad is not None
    # Edge 1-2 is not inside any bag.
    td = TreeDecomposition((frozenset({0, 1}), frozenset({2})), ((0, 1),))
    assert validate_td(g, td) is not None
    # Node 0's bags are disconnected in the tree.
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        ((0, 1), (1, 2)),
    )
    assert validate_td(g, td) is not None


def assert_nice_form(td, ntd):
    """Local nice-form rules, one tree reached from the root, width kept,
    and every original bag present."""
    assert ntd.width == td.width
    for nd in ntd.nodes:
        if nd.kind == "leaf":
            assert not nd.children and len(nd.bag) == 1
        elif nd.kind == "insert":
            (c,) = nd.children
            assert nd.bag == ntd.nodes[c].bag | {nd.node}
            assert nd.node not in ntd.nodes[c].bag
        elif nd.kind == "forget":
            (c,) = nd.children
            assert nd.bag == ntd.nodes[c].bag - {nd.node}
            assert nd.node in ntd.nodes[c].bag
        else:
            a, b = nd.children
            assert ntd.nodes[a].bag == nd.bag == ntd.nodes[b].bag
    reached = [ntd.root]
    for i in reached:
        reached.extend(ntd.nodes[i].children)
    assert sorted(reached) == list(range(len(ntd.nodes)))
    nice_bags = {nd.bag for nd in ntd.nodes}
    assert all(b in nice_bags for b in td.bags)


def test_to_nice_invariants():
    rng = random.Random(29)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(1, 8), 0.45)
        td = heuristic_td(g)
        ntd = to_nice(td)
        assert validate_td(g, ntd.to_td()) is None
        assert_nice_form(td, ntd)


def test_to_nice_on_a_deep_path_decomposition():
    # 60,000 bags in a chain: deep enough to overflow a recursive
    # conversion, and long enough that a quadratic one never finishes.
    n = 60_000
    td = TreeDecomposition(
        tuple(frozenset({i, i + 1}) for i in range(n)),
        tuple((i, i + 1) for i in range(n - 1)),
    )
    ntd = to_nice(td)
    assert_nice_form(td, ntd)
    # One leaf and insert, then a forget and an insert per tree edge.
    assert len(ntd.nodes) == 2 * n
    assert ntd.nodes[ntd.root].bag == td.bags[0]


def test_max_bag_edges():
    g = cycle_graph(4)
    td = heuristic_td(g)
    assert max_bag_edges(g, td) >= 1


def test_parse_emit_round_trip():
    td = heuristic_td(cycle_graph(5))
    text = emit_td(td)
    assert text.splitlines()[0].startswith("s td ")
    back = parse_td(text)
    assert emit_td(back) == text


def test_parse_td_errors():
    with pytest.raises(GraphFormatError):
        parse_td("b 1 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_td("s td 2 1 3\nb 1 1\nb 2 2\n")
    with pytest.raises(GraphFormatError):
        parse_td("s td 2 1 3\nb 1 1\nb 2 2\n1 2\n3 1\n")
