"""Shared graph builders and the naive spreading oracle for the test suite."""

import math

import pytest

from powerdom import dpsolve
from powerdom.graphs import Graph
from powerdom.treedecomp import TreeDecomposition


@pytest.fixture
def dp_tables(monkeypatch):
    """Make solve_dp build its tables whenever the sweep's bound ub leaves
    room below it for two or more origins, instead of searching the smaller
    sets or proving the sweep's set optimal by the packing bound, so that
    tests checking the DP reach it on tiny graphs.  A negative budget gives
    up before the walk, and at ub == 2 there is no walk: solve_dp never
    searches for a lone origin."""
    monkeypatch.setattr(dpsolve, "SEARCH_BUDGET", -1)
    monkeypatch.setattr(dpsolve, "_packing_bound", lambda g, order, ell: 0)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def grid_graph(r: int, c: int) -> Graph:
    es = []
    for a in range(r):
        for b in range(c):
            v = a * c + b
            if b + 1 < c:
                es.append((v, v + 1))
            if a + 1 < r:
                es.append((v, v + c))
    return Graph(r * c, es)


def prism_graph(k: int) -> Graph:
    """C_k x P_2: two k-cycles joined rung by rung."""
    es = [(i, (i + 1) % k) for i in range(k)]
    es += [(k + i, k + (i + 1) % k) for i in range(k)]
    es += [(i, k + i) for i in range(k)]
    return Graph(2 * k, es)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng, n: int, p: float) -> Graph:
    # Rejection sampling; a handful of retries at worst for the sizes used here.
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def random_tree(rng, n: int) -> Graph:
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def relabelled(g: Graph, rng) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def eliminate(g: Graph, pick) -> tuple[list, list, list]:
    """Bags of eliminating g's nodes one at a time, `pick(nbrs)` choosing
    the next node from the remaining graph's adjacency sets.  Returns the
    bags in elimination order, tree edges (r, s) hanging bag r off the bag
    of its first-eliminated later node, and the bags with none, one per
    component, left for the caller to join."""
    nbrs = {v: set(g.adjacency[v]) for v in range(g.n)}
    order, bags = [], []
    while nbrs:
        v = pick(nbrs)
        later = nbrs.pop(v)
        for a in later:
            nbrs[a] = (nbrs[a] | later) - {a, v}
        order.append(v)
        bags.append(frozenset(later | {v}))
    rank = {v: r for r, v in enumerate(order)}
    tree, tops = [], []
    for r, bag in enumerate(bags):
        later = [rank[w] for w in bag if rank[w] > r]
        if later:
            tree.append((r, min(later)))
        else:
            tops.append(r)
    return bags, tree, tops


def random_decomposition(rng, g: Graph) -> TreeDecomposition:
    """A valid decomposition from a random elimination order, with a few
    redundant subset bags hung off random bags and a random bag as root."""
    order = list(range(g.n))
    rng.shuffle(order)
    it = iter(order)
    bags, tree, tops = eliminate(g, lambda nbrs: next(it))
    tree.extend(zip(tops, tops[1:]))
    for _ in range(rng.randint(0, 3)):
        host = rng.randrange(len(bags))
        bags.append(frozenset(v for v in bags[host] if rng.random() < 0.5))
        tree.append((host, len(bags) - 1))
    perm = list(range(len(bags)))
    rng.shuffle(perm)
    placed = [frozenset()] * len(bags)
    for i, bag in enumerate(bags):
        placed[perm[i]] = bag
    return TreeDecomposition(tuple(placed), tuple((perm[a], perm[b]) for a, b in tree))


def naive_times(g: Graph, sources, k: int) -> list[float]:
    """Recompute observation times straight from the round definition.

    Round 1 takes the union of closed neighborhoods of the sources; every
    later round adds any node with a neighbor whose other neighbors are all
    already in.  Kept deliberately independent of the library code.
    """
    times: list[float] = [math.inf] * g.n
    cur = set(sources)
    for v in cur:
        times[v] = 0.0
    for r in range(1, k + 1):
        if not cur:
            break
        if r == 1:
            new = set(cur)
            for v in cur:
                new.update(g.adjacency[v])
        else:
            new = set(cur)
            for v in range(g.n):
                if v in cur:
                    continue
                for u in g.adjacency[v]:
                    if u in cur and all(
                        w in cur for w in g.adjacency[u] if w != v
                    ):
                        new.add(v)
                        break
        for v in new - cur:
            times[v] = float(r)
        cur = new
    return times
