import random

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    eliminate,
    path_graph,
    random_connected_graph,
    random_decomposition,
    random_graph,
    star_graph,
)
from powerdom.graphs import GraphFormatError
from powerdom.treedecomp import (
    TreeDecomposition,
    emit_td,
    heuristic_td,
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


def _naive_violation(g, td):
    """The first violated property straight from the definitions, checked
    in the order node range, nodes, edges, subtrees, naming nodes by their
    1-based ids; None if all hold."""
    for bag in td.bags:
        for v in bag:
            if not 0 <= v < g.n:
                return ("node-range", f"bag node {v + 1} outside 1..{g.n}")
    for v in range(g.n):
        if not any(v in bag for bag in td.bags):
            return ("node-missing", f"node {v + 1} is in no bag")
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return ("edge-uncovered", f"edge ({u + 1}, {v + 1}) is inside no bag")
    for v in range(g.n):
        holders = {i for i, bag in enumerate(td.bags) if v in bag}
        reached = {min(holders)}
        grew = True
        while grew:
            grew = False
            for i, j in td.tree:
                if i in holders and j in holders and (i in reached) != (j in reached):
                    reached |= {i, j}
                    grew = True
        if reached != holders:
            return ("disconnected", f"bags containing node {v + 1} do not form a subtree")
    return None


def _verdict(g, td):
    bad = validate_td(g, td)
    return None if bad is None else (bad.kind, bad.detail)


def _broken(rng, g, td):
    """td with one random fault: a node dropped from or added to a bag, an
    out-of-range node, or a tree edge moved to reconnect the two halves
    elsewhere."""
    bags = list(td.bags)
    tree = list(td.tree)
    fault = rng.choice(("drop", "add", "range", "rewire"))
    i = rng.randrange(len(bags))
    if fault == "drop" and bags[i]:
        bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
    elif fault == "add":
        bags[i] = bags[i] | {rng.randrange(g.n)}
    elif fault == "range":
        bags[i] = bags[i] | {rng.choice((-1, g.n))}
    elif tree:
        tree.pop(rng.randrange(len(tree)))
        side = {0}
        for _ in bags:
            side |= {b for a, b in tree if a in side} | {a for a, b in tree if b in side}
        other = [j for j in range(len(bags)) if j not in side]
        tree.append((rng.choice(sorted(side)), rng.choice(other)))
    return TreeDecomposition(tuple(bags), tuple(tree))


def test_validate_matches_naive_reference():
    rng = random.Random(31)
    kinds = set()
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.7))
        td = random_decomposition(rng, g)
        assert validate_td(g, td) is None
        for _ in range(rng.randint(1, 2)):
            td = _broken(rng, g, td)
        want = _naive_violation(g, td)
        assert _verdict(g, td) == want, (g.edges, td)
        kinds.add(want and want[0])
    assert kinds == {None, "node-range", "node-missing", "edge-uncovered", "disconnected"}


def test_validate_on_a_long_path_decomposition():
    n = 60_000
    g = path_graph(n + 1)
    bags = [frozenset({i, i + 1}) for i in range(n)]
    tree = tuple((i, i + 1) for i in range(n - 1))
    assert validate_td(g, TreeDecomposition(tuple(bags), tree)) is None
    bags[-1] = bags[-1] | {0}
    assert _verdict(g, TreeDecomposition(tuple(bags), tree)) == (
        "disconnected", "bags containing node 1 do not form a subtree")


def _reference_min_fill(g):
    """Plain min-fill elimination, least (fill, id) first, tree edges
    listed by parent then child, and the bags of lone components hung off
    the first of them."""

    def least_fill(nbrs):
        def fill(v):
            return sum(1 for a in nbrs[v] for b in nbrs[v] if a < b and b not in nbrs[a])

        return min(nbrs, key=lambda v: (fill(v), v))

    bags, tree, tops = eliminate(g, least_fill)
    tree.sort(key=lambda e: (e[1], e[0]))
    tree += [(tops[0], r) for r in tops[1:]]
    return TreeDecomposition(tuple(bags), tuple(tree))


def test_heuristic_matches_reference_min_fill():
    rng = random.Random(37)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 25), rng.choice((0.05, 0.15, 0.3, 0.6)))
        assert heuristic_td(g) == _reference_min_fill(g), g.edges


def assert_nice_form(td, ntd):
    """Local nice-form rules, empty leaves and an empty root, one tree
    reached from the root, width kept, and every original bag present."""
    assert ntd.width == td.width
    assert ntd.nodes[ntd.root].bag == frozenset()
    for nd in ntd.nodes:
        if nd.kind == "leaf":
            assert not nd.children and nd.bag == frozenset()
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
        edges = tuple((i, c) for i, nd in enumerate(ntd.nodes) for c in nd.children)
        assert validate_td(g, TreeDecomposition(tuple(nd.bag for nd in ntd.nodes), edges)) is None
        assert_nice_form(td, ntd)
    # Forty leaf bags holding all of K10 below one more: each leaf grows by
    # ten inserts, far more nice nodes than graph nodes and bags together.
    bag = frozenset(range(10))
    td = TreeDecomposition((bag,) * 41, tuple((0, i) for i in range(1, 41)))
    assert_nice_form(td, to_nice(td))


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
    # An empty leaf and two inserts, a forget and an insert per tree edge,
    # then two forgets down to the empty root.
    assert len(ntd.nodes) == 2 * n + 3
    assert ntd.nodes[ntd.root].bag == frozenset()


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
        parse_td("s td 2 1 3\nb 1 1\nb 2 2\n1 2\n1 2\n")
    # A bare bag line names its line instead of failing on a missing index.
    with pytest.raises(GraphFormatError) as exc:
        parse_td("s td 1 1 1\nb\n")
    assert exc.value.line == 2
