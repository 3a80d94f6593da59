"""Timed orientations as checkable certificates.

A feasible origin set can be certified by directing the forcing edges
and labeling every node with its observation round.  The certificate is
verified locally, edge by edge, without rerunning propagation.  Tamper
with it and the checker names the broken property and where it broke.
"""

from powerdom.graphs import Graph
from powerdom.orientation import (
    TimedOrientation,
    emit_orientation,
    orientation_from_trace,
    origin,
    validate,
)
from powerdom.propagation import propagate


def say(bad) -> str:
    return "ok" if bad is None else str(bad)


def main() -> None:
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    s = {1}
    to = orientation_from_trace(g, propagate(g, s, g.n))
    print("graph: a 6-cycle with one chord, origin node 2")
    print(emit_orientation(to))
    print(f"checker says: {say(validate(g, to, range(g.n)))}")
    print(f"origin recovered from labels: "
          f"{{{', '.join(str(v + 1) for v in sorted(origin(to)))}}}")
    print()

    # Reverse one directed edge and check again.
    u, v = max(to.directed)
    tampered = TimedOrientation(
        to.directed - {(u, v)} | {(v, u)}, to.undirected, to.times, to.ell)
    print(f"after reversing {u + 1}->{v + 1}:")
    print(f"checker says: {say(validate(g, tampered, range(g.n)))}")
    print()

    # Claim a node was observed a round early and check again.
    w = max(range(g.n), key=lambda x: to.times[x])
    times = tuple(t - 1 if x == w else t for x, t in enumerate(to.times))
    early = TimedOrientation(to.directed, to.undirected, times, to.ell)
    print(f"after lowering the label of node {w + 1}:")
    print(f"checker says: {say(validate(g, early, range(g.n)))}")


if __name__ == "__main__":
    main()
