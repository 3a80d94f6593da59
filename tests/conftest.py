"""Shared graph builders and the naive spreading oracle for the test suite."""

import math

from powerdom.graphs import Graph


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
