import random
from math import inf as INF

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    naive_times,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
)
from powerdom.bruteforce import solve_bf
from powerdom.dpsolve import (
    _bag_context,
    _greedy_upper_bound,
    _insert_table,
    _join_table,
    _leaf_table,
    _forget_table,
    _post_order,
    is_invalid_state,
    solve_dp,
    state_space_size,
)
from powerdom.generators import spider
from powerdom.graphs import Graph
from powerdom.propagation import is_feasible
from powerdom.treedecomp import TreeDecomposition, heuristic_td, to_nice


def test_state_space_size_examples():
    assert state_space_size(1, 0, 1) == 60
    assert state_space_size(2, 1, 2) == 43200
    assert state_space_size(3, 3, 3) == 216000000


def test_spider_identities():
    g = spider(3, 3)
    assert solve_dp(g, range(g.n), 3)[0] == 1
    assert solve_dp(g, range(g.n), 2)[0] == 3


def test_basic_inputs_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError):
        solve_dp(g, {5}, 1)
    with pytest.raises(ValueError):
        solve_dp(g, {0}, 0)
    # A decomposition of some other graph is refused.
    wrong = to_nice(heuristic_td(cycle_graph(4)))
    with pytest.raises(ValueError):
        solve_dp(g, {0}, 1, wrong)


def test_empty_targets():
    assert solve_dp(path_graph(3), set(), 2) == (0, frozenset())


def test_timing_leak_regression():
    # A pendant inserted above its hub after a long arm was forgotten used
    # to let a label-3 hub pretend its last neighbor was already checked.
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
    bags = (
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({0, 1}),
        frozenset({3, 4}),
        frozenset({4, 5}),
        frozenset({5, 6}),
    )
    td = TreeDecomposition(bags, ((0, 1), (1, 2), (1, 3), (3, 4), (4, 5)))
    bf = solve_bf(g, {1, 6}, 3)
    dp = solve_dp(g, {1, 6}, 3, to_nice(td))
    assert dp[0] == bf[0] == 2


def test_dense_shortcut_still_exact():
    for g in (complete_graph(5), star_graph(7)):
        opt, witness = solve_dp(g, range(g.n), 1)
        assert opt == 1
        assert is_feasible(g, witness, range(g.n), 1)


def test_stats_hook():
    g = cycle_graph(6)
    stats: dict = {}
    solve_dp(g, range(g.n), 1, stats=stats)
    assert stats["upper_bound"] >= 1
    assert stats["table_sizes"] and all(s >= 1 for s in stats["table_sizes"])
    # The singleton shortcut skips table building altogether.
    stats = {}
    solve_dp(star_graph(6), range(6), 1, stats=stats)
    assert stats["table_sizes"] == []


def _reference_greedy(g, targets, ell):
    """Add the node observing the most targets, lowest id among equals,
    until every target is observed; spreading by the naive oracle."""

    def hit(s):
        times = naive_times(g, s, ell)
        return sum(1 for v in targets if times[v] != INF)

    chosen: set[int] = set()
    while hit(chosen) < len(targets):
        gain = {v: hit(chosen | {v}) for v in range(g.n) if v not in chosen}
        chosen.add(max(gain, key=lambda v: (gain[v], -v)))
    return chosen


def test_greedy_bound_matches_reference_greedy():
    rng = random.Random(1618)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        ell = rng.randint(1, n)
        targets = frozenset(v for v in range(n) if rng.random() < 0.7) or frozenset({0})
        want = _reference_greedy(g, targets, ell)
        assert _greedy_upper_bound(g, targets, ell) == (len(want), frozenset(want))


def test_matches_bruteforce_exhaustive_small():
    seen = set()
    for n in range(2, 5):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(all_pairs)):
            edges = [p for i, p in enumerate(all_pairs) if mask >> i & 1]
            g = Graph(n, edges)
            key = (n, tuple(edges))
            if key in seen:
                continue
            seen.add(key)
            for ell in range(1, n):
                assert (
                    solve_dp(g, range(n), ell)[0]
                    == solve_bf(g, range(n), ell)[0]
                ), (n, edges, ell)


def test_matches_bruteforce_random_targets():
    rng = random.Random(2718)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.15, 0.8))
        ell = rng.randint(1, n - 1)
        targets = frozenset(v for v in range(n) if rng.random() < 0.6)
        opt_bf = solve_bf(g, targets, ell)[0]
        opt_dp, witness = solve_dp(g, targets, ell)
        assert opt_dp == opt_bf, (g.edges, sorted(targets), ell)
        assert len(witness) == opt_dp
        assert is_feasible(g, witness, targets, ell)


def test_explicit_decomposition_paths():
    # Drive the join case deliberately: a star decomposition of a star graph
    # forces a branching bag, and a path decomposition exercises the chain.
    g = star_graph(5)
    bags = tuple(frozenset({0, i}) for i in range(1, 5))
    td = TreeDecomposition(bags, ((0, 1), (0, 2), (0, 3)))
    assert solve_dp(g, range(g.n), 1, to_nice(td))[0] == 1
    g2 = path_graph(6)
    bags2 = tuple(frozenset({i, i + 1}) for i in range(5))
    td2 = TreeDecomposition(bags2, tuple((i, i + 1) for i in range(4)))
    for ell in (1, 2):
        assert (
            solve_dp(g2, range(6), ell, to_nice(td2))[0]
            == solve_bf(g2, range(6), ell)[0]
        )


def test_tables_never_hold_invalid_states():
    # Rebuild the solver's tables with its own building blocks and audit
    # every surviving entry against the validity predicate.
    rng = random.Random(424)
    for _ in range(12):
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n, 0.5)
        ell = rng.randint(1, n - 1)
        targets = frozenset(range(n))
        ntd = to_nice(heuristic_td(g))
        ub, _ = _greedy_upper_bound(g, targets, ell)
        adj_mask = [0] * n
        for v in range(n):
            for w in g.adjacency[v]:
                adj_mask[v] |= 1 << w
        eb = [ell] * n
        contexts = [_bag_context(g, nd.bag, targets, ell) for nd in ntd.nodes]
        seen = [0] * len(ntd.nodes)
        tables = [None] * len(ntd.nodes)
        for i in _post_order(ntd):
            nd = ntd.nodes[i]
            mask = 0
            for v in nd.bag:
                mask |= 1 << v
            for c in nd.children:
                mask |= seen[c]
            seen[i] = mask
            if nd.kind == "leaf":
                tables[i] = _leaf_table(contexts[i], ub, adj_mask, mask, eb)
            elif nd.kind == "insert":
                tables[i] = _insert_table(
                    g, contexts[i], contexts[nd.children[0]],
                    tables[nd.children[0]], nd.node, ub, adj_mask, mask, eb,
                )
            elif nd.kind == "forget":
                tables[i] = _forget_table(
                    contexts[i], contexts[nd.children[0]],
                    tables[nd.children[0]], nd.node,
                )
            else:
                tables[i] = _join_table(
                    contexts[i], tables[nd.children[0]], tables[nd.children[1]],
                    ub, adj_mask, mask,
                )
            for state in tables[i].entries:
                assert not is_invalid_state(contexts[i], state)
