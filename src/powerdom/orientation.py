"""Timed orientations: edge directions plus per-node round labels.

An orientation is valid for a target set when five properties hold; validity
of an orientation with origin S is equivalent to S observing all targets
within the round budget, which is what makes orientations usable as locally
checkable certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from powerdom.graphs import Graph, GraphFormatError, parse_id, records
from powerdom.propagation import INF, PropagationTrace


@dataclass(frozen=True)
class TimedOrientation:
    """Partition of a graph's edges into directed pairs (u, v) meaning u->v
    and undirected pairs, plus per-node labels in {0..ell} or infinity."""

    directed: frozenset[tuple[int, int]]
    undirected: frozenset[tuple[int, int]]
    times: tuple[float, ...]
    ell: int


@dataclass(frozen=True)
class Violation:
    prop: str
    where: int | tuple[int, int]  # 0-based ids; str() names them 1-based
    detail: str

    def __str__(self) -> str:
        w = self.where
        loc = f"node {w + 1}" if isinstance(w, int) else f"edge {w[0] + 1}->{w[1] + 1}"
        return f"{self.prop} at {loc}: {self.detail}"


def origin(to: TimedOrientation) -> frozenset[int]:
    """Label-0 nodes: the source set the orientation certifies."""
    return frozenset(v for v, t in enumerate(to.times) if t == 0)


def _check_edge_partition(g: Graph, to: TimedOrientation) -> None:
    as_undirected = set()
    for u, v in to.directed:
        e = (u, v) if u < v else (v, u)
        if e in as_undirected:
            raise ValueError(f"edge ({e[0] + 1}, {e[1] + 1}) directed twice")
        as_undirected.add(e)
    overlap = as_undirected & set(to.undirected)
    if overlap:
        u, v = min(overlap)
        raise ValueError(f"edge ({u + 1}, {v + 1}) both directed and undirected")
    given = as_undirected | set(to.undirected)
    if given != set(g.edges):
        u, v = e = min(given ^ set(g.edges))
        raise ValueError(f"orientation edge set does not match the graph: edge ({u + 1}, "
                         f"{v + 1}) {'is not in the graph' if e in given else 'is missing'}")


def validate(g: Graph, to: TimedOrientation, targets) -> Violation | None:
    """Check properties P1-P5; None means valid for the given targets.

    P1: every target has a finite label.
    P2: a node labeled 1..ell has exactly one incoming directed edge.
    P3: an infinity node is incident to no directed edge.
    P4: a label-0 node has no incoming directed edge.
    P5: each directed (u,v) satisfies the timing rule: label(v)=1 when
        label(u)=0, otherwise label(v) = 1 + max over w in N[u]\\{v} of
        label(w), with infinity absorbing.

    A label outside {0..ell, inf} is reported as a 'domain' violation.
    Raises ValueError when the orientation's edges do not partition g's.
    """
    _check_edge_partition(g, to)
    if len(to.times) != g.n:
        raise ValueError("times vector length does not match node count")
    t = to.times
    for v in range(g.n):
        if t[v] != INF and not (isinstance(t[v], int) and 0 <= t[v] <= to.ell):
            return Violation("domain", v, f"label {t[v]} not in 0..{to.ell} or inf")
    for v in sorted(set(targets)):
        if t[v] == INF:
            return Violation("P1", v, "target never observed")
    indeg = [0] * g.n
    outdeg = [0] * g.n
    for u, v in to.directed:
        outdeg[u] += 1
        indeg[v] += 1
    for v in range(g.n):
        if t[v] != INF and t[v] >= 1 and indeg[v] != 1:
            return Violation("P2", v, f"label {t[v]} but in-degree {indeg[v]}")
        if t[v] == INF and (indeg[v] or outdeg[v]):
            return Violation("P3", v, "unobserved node touches a directed edge")
        if t[v] == 0 and indeg[v]:
            return Violation("P4", v, f"origin node has in-degree {indeg[v]}")
    for u, v in sorted(to.directed):
        if t[u] == 0:
            if t[v] != 1:
                return Violation("P5", (u, v), f"origin points to label {t[v]}, expected 1")
            continue
        need = 1 + max(t[w] for w in g.adjacency[u] + (u,) if w != v)
        if t[v] != need:
            return Violation("P5", (u, v), f"label {t[v]}, timing rule requires {need}")
    return None


def orientation_from_trace(g: Graph, trace: PropagationTrace) -> TimedOrientation:
    """Orient one justifying edge into each non-source observed node.

    A node observed in round 1 points back to its smallest-id neighbor in
    the source set.  A node observed in round r >= 2 points back to the
    smallest-id neighbor u whose whole closed neighborhood minus v was
    observed by round r-1; the timing rule's equality then holds
    automatically, since an earlier-saturated u would have forced v sooner.
    """
    if len(trace.times) != g.n:
        raise ValueError("trace does not match the graph")
    t = trace.times
    directed = set()
    for v in range(g.n):
        if t[v] == INF or t[v] == 0:
            continue
        if t[v] == 1:
            cands = [u for u in g.adjacency[v] if t[u] == 0]
        else:
            cands = [
                u
                for u in g.adjacency[v]
                if all(t[w] <= t[v] - 1 for w in g.adjacency[u] + (u,) if w != v)
            ]
        if not cands:
            raise ValueError(f"no justifying neighbor for node {v} at round {t[v]}")
        directed.add((min(cands), v))
    as_undirected = {(u, v) if u < v else (v, u) for u, v in directed}
    undirected = frozenset(e for e in g.edges if e not in as_undirected)
    return TimedOrientation(
        directed=frozenset(directed),
        undirected=undirected,
        times=t,
        ell=trace.rounds_run,
    )


def parse_orientation(text: str, n: int, ell: int) -> TimedOrientation:
    """Orientation file: `d <u> <v>` directed u->v, `u <u> <v>` undirected,
    `t <v> <label|inf>` labels; 1-based ids, `c` comments.  Unlabeled nodes
    default to inf.  A second line on one edge, in either direction, or on
    one node's label is refused."""
    directed = set()
    undirected = set()
    kinds: dict[tuple[int, int], str] = {}
    times: list[float] = [INF] * n
    labelled: set[int] = set()
    for lineno, parts in records(text):
        kind = parts[0]
        if len(parts) != 3 or kind not in ("d", "u", "t"):
            raise GraphFormatError(f"unrecognized orientation line {' '.join(parts)!r}", lineno)
        a = parse_id(parts[1], n, lineno)
        if kind == "t":
            if a in labelled:
                raise GraphFormatError(f"duplicate label for node {a + 1}", lineno)
            labelled.add(a)
            try:
                times[a] = INF if parts[2] == "inf" else int(parts[2])
            except ValueError:
                raise GraphFormatError(
                    f"label must be an integer or 'inf', got {parts[2]!r}", lineno
                ) from None
            continue
        b = parse_id(parts[2], n, lineno)
        e = (a, b) if a < b else (b, a)
        how = "directed" if kind == "d" else "undirected"
        if e in kinds:
            how = f"{how} twice" if kinds[e] == how else "both directed and undirected"
            raise GraphFormatError(f"edge ({e[0] + 1}, {e[1] + 1}) {how}", lineno)
        kinds[e] = how
        if kind == "d":
            directed.add((a, b))
        else:
            undirected.add(e)
    return TimedOrientation(frozenset(directed), frozenset(undirected), tuple(times), ell)


def emit_orientation(to: TimedOrientation) -> str:
    out = [f"d {u + 1} {v + 1}" for u, v in sorted(to.directed)]
    out += [f"u {u + 1} {v + 1}" for u, v in sorted(to.undirected)]
    for v, t in enumerate(to.times):
        out.append(f"t {v + 1} {'inf' if t == INF else t}")
    return "\n".join(out) + "\n"
