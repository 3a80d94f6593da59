import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, naive_times, path_graph, random_graph
from powerdom.bruteforce import _covers
from powerdom.generators import spider
from powerdom.graphs import Graph
from powerdom.propagation import INF, is_feasible, propagate, spread


def bfs_depth(g: Graph, root: int) -> list[int]:
    depth = [-1] * g.n
    depth[root] = 0
    q = deque([root])
    while q:
        v = q.popleft()
        for w in g.adjacency[v]:
            if depth[w] < 0:
                depth[w] = depth[v] + 1
                q.append(w)
    return depth


def test_spider_rounds_follow_depth():
    g = spider(3, 2)
    tr = propagate(g, {0}, 2)
    depth = bfs_depth(g, 0)
    assert all(tr.times[v] == depth[v] for v in range(g.n))


def test_empty_sources_never_observe():
    g = cycle_graph(5)
    tr = propagate(g, set(), 4)
    assert all(t == INF for t in tr.times)


def test_c4_hand_times():
    tr = propagate(cycle_graph(4), {0}, 4)
    assert list(tr.times) == [0, 1, 2, 1]


def test_round_budget_must_be_positive():
    with pytest.raises(ValueError):
        propagate(path_graph(2), {0}, 0)


def test_matches_naive_oracle():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        sources = {v for v in range(n) if rng.random() < 0.3}
        k = rng.randint(1, n)
        got = propagate(g, sources, k).times
        want = naive_times(g, sources, k)
        assert [float(t) for t in got] == want, (g.edges, sources, k)


graph_and_sets = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        st.sets(st.integers(0, n - 1)),
        st.sets(st.integers(0, n - 1)),
        st.integers(1, 8),
    )
)


def _build(n, pairs):
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    return Graph(n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(graph_and_sets)
def test_monotone_in_sources(data):
    n, pairs, s, extra, k = data
    g = _build(n, pairs)
    base = propagate(g, s, k).times
    more = propagate(g, s | extra, k).times
    # Extra origins can only make observation earlier, never later.
    assert all(b >= m for b, m in zip(base, more))


@settings(max_examples=60, deadline=None)
@given(graph_and_sets)
def test_monotone_in_rounds_and_fixed_point(data):
    n, pairs, s, _, k = data
    g = _build(n, pairs)
    small = {v for v in range(n) if propagate(g, s, k).times[v] != INF}
    big = {v for v in range(n) if propagate(g, s, k + 1).times[v] != INF}
    assert small <= big
    # One extra round beyond n changes nothing: the process has converged.
    assert propagate(g, s, n).times == propagate(g, s, n + 1).times


def test_is_feasible_spider_identity():
    for ell in (2, 3):
        g = spider(3, ell + 1)
        assert is_feasible(g, {0}, range(g.n), ell + 1)
        assert not is_feasible(g, {0}, range(g.n), ell)


def test_is_feasible_empty_targets():
    g = path_graph(3)
    assert is_feasible(g, set(), set(), 1)
    # No targets still means checked sources and round budget.
    with pytest.raises(ValueError):
        is_feasible(g, [99], [], 1)
    with pytest.raises(ValueError):
        is_feasible(g, [0], [], 0)


def test_is_feasible_rejects_out_of_range_targets():
    g = path_graph(3)
    for bad in (3, -1):
        with pytest.raises(ValueError):
            is_feasible(g, {0}, {bad}, 2)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 14))
def test_every_round_budget_matches_naive_oracle(rnd, n):
    g = random_graph(rnd, n, rnd.uniform(0.1, 0.7))
    sources = {v for v in range(n) if rnd.random() < 0.25}
    targets = {v for v in range(n) if rnd.random() < 0.6}
    tmask = sum(1 << v for v in targets)
    for k in range(1, n + 1):
        want = naive_times(g, sources, k)
        assert [float(t) for t in propagate(g, sources, k).times] == want
        # is_feasible stops once the targets are in; _covers is the same test.
        feasible = all(want[v] != INF for v in targets)
        assert is_feasible(g, sources, targets, k) == feasible
        assert _covers(g.closed_masks(), sources, tmask, k) == feasible


def _oracle_rounds(g, sources, k):
    """Observed mask after each round from `sources` by the naive oracle,
    up to round k or the run's fixed point."""
    times = naive_times(g, sources, k)
    rounds = [sum(1 << v for v, t in enumerate(times) if t <= r) for r in range(1, k + 1)]
    while len(rounds) > 1 and rounds[-1] == rounds[-2]:
        rounds.pop()
    return rounds


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 14), st.booleans())
def test_spread_from_a_base_run_matches_plain_spread(seed, n, pad):
    rnd = random.Random(seed)
    g = random_graph(rnd, n, rnd.uniform(0.1, 0.6))
    closed = g.closed_masks()
    k = rnd.randint(1, n + 1)
    sources = [v for v in range(n) if rnd.random() < 0.2]
    inner = 0
    for v in sources:
        inner |= closed[v]
    rounds = _oracle_rounds(g, sources, k)
    assert list(spread(closed, inner, k)) == rounds
    if pad:
        rounds += rounds[-1:] * (k - len(rounds))
    first = inner | sum(1 << v for v in range(n) if rnd.random() < 0.1)
    for f in (inner, first):
        assert list(spread(closed, f, k, rounds)) == list(spread(closed, f, k))


def test_spread_runs_only_the_rounds_read():
    # Node 3 is observed in round 3 of the run from node 0 on a 2,000-node
    # path; reading no further leaves the rest of the path unlooked at.
    closed = path_graph(2000).closed_masks()
    reads = 0

    class Counted(tuple):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return tuple.__getitem__(self, i)

    assert any(m >> 3 & 1 for m in spread(Counted(closed), closed[0], 2000))
    assert reads < 10, reads


def test_long_path_times_are_distances():
    n = 2000
    assert propagate(path_graph(n), {0}, n).times == tuple(range(n))
