"""Simple undirected graphs on dense integer ids, plus text-format I/O.

Nodes are always 0..n-1 internally.  The text format (and the command line
tool) numbers nodes from 1, matching the usual edge-list conventions.
"""

from __future__ import annotations

from typing import Iterable, Iterator


# Largest node count a graph file may declare; checked on the problem line,
# before any per-node storage is allocated.
MAX_NODES = 10**6


class GraphFormatError(ValueError):
    """A text input (graph, decomposition, orientation, ...) could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Immutable simple undirected graph.

    Self-loops and duplicate edges are rejected at construction time, so every
    algorithm downstream may assume a simple graph.
    """

    __slots__ = ("n", "edges", "adjacency", "_closed_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("node count must be >= 0")
        canon = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        self.n = n
        self.edges = tuple(canon)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._closed_masks: tuple[int, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def closed_masks(self) -> tuple[int, ...]:
        """Per-node closed neighborhoods as bitmasks (cached)."""
        if self._closed_masks is None:
            masks = []
            for v in range(self.n):
                m = 1 << v
                for u in self.adjacency[v]:
                    m |= 1 << u
                masks.append(m)
            self._closed_masks = tuple(masks)
        return self._closed_masks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def ball(closed: tuple[int, ...], mask: int, radius: int) -> int:
    """Mask of the nodes within distance radius of a node of mask, where
    closed[v] is v's closed neighborhood; stops early at the fixed point,
    so a radius of n or more gives the components that mask meets."""
    reached = front = mask
    for _ in range(radius):
        step = 0
        while front:
            low = front & -front
            front ^= low
            step |= closed[low.bit_length() - 1]
        front = step & ~reached
        if not front:
            break
        reached |= front
    return reached


def check_rounds(ell: int) -> None:
    """Refuse a round budget that is not an int, or is below 1: round 1
    always runs."""
    if not isinstance(ell, int):
        raise ValueError("round budget ell must be an integer")
    if ell < 1:
        raise ValueError("round budget ell must be >= 1")


def node_mask(n: int, nodes: Iterable[int], role: str) -> int:
    """Bitmask of `nodes`, each checked to be an id in 0..n-1; one outside
    is refused by its role, such as "target" or "source"."""
    mask = 0
    for v in nodes:
        if not 0 <= v < n:
            raise ValueError(f"{role} {v} out of range")
        mask |= 1 << v
    return mask


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on `keep`, with an order-preserving old->new id map."""
    kept = sorted(set(keep))
    node_mask(g.n, kept, "node")
    idmap = {old: new for new, old in enumerate(kept)}
    edges = [
        (idmap[u], idmap[v])
        for u, v in g.edges
        if u in idmap and v in idmap
    ]
    return Graph(len(kept), edges), idmap


def records(text: str) -> Iterator[tuple[int, list[str]]]:
    """The 1-based line number and the tokens of each record of a text format.

    Every format this package reads skips blank lines and comment lines,
    whose first token starts with `c`.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and parts[0][0] != "c":
            yield lineno, parts


def parse_id(token: str, n: int, line: int | None = None) -> int:
    """The 0-based id of a 1-based id in 1..n, as files and the CLI write it;
    anything else is a GraphFormatError naming `line`."""
    try:
        v = int(token)
    except ValueError:
        raise GraphFormatError(f"non-integer id {token!r}", line) from None
    if 0 < v <= n:
        return v - 1
    raise GraphFormatError(f"id {v} out of range 1..{n}", line)


def parse_graph(text: str) -> Graph:
    """Parse the `p edge <n> <m>` / `e <u> <v>` format (1-based node ids).

    Level lines (`l <v> <level>`) are allowed and skipped here; use
    powerdom.planar.parse_levels to read them.
    """
    n = None
    declared_m = None
    edges: set[tuple[int, int]] = set()
    for lineno, parts in records(text):
        kind = parts[0]
        if kind == "e":
            if n is None:
                raise GraphFormatError("edge line before problem line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("edge line must be 'e <u> <v>'", lineno)
            u = parse_id(parts[1], n, lineno)
            v = parse_id(parts[2], n, lineno)
            if u == v:
                raise GraphFormatError("self-loop", lineno)
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise GraphFormatError("duplicate edge", lineno)
            edges.add(e)
        elif kind == "p":
            if n is not None:
                raise GraphFormatError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError("problem line must be 'p edge <n> <m>'", lineno)
            try:
                n = int(parts[2])
                declared_m = int(parts[3])
            except ValueError:
                raise GraphFormatError("non-integer counts in problem line", lineno) from None
            if n < 0 or declared_m < 0:
                raise GraphFormatError("negative counts in problem line", lineno)
            if n > MAX_NODES:
                raise GraphFormatError(f"node count {n} exceeds the limit {MAX_NODES}", lineno)
        elif kind != "l":
            raise GraphFormatError(f"unknown line type {kind!r}", lineno)
    if n is None:
        raise GraphFormatError("missing problem line")
    if declared_m != len(edges):
        raise GraphFormatError(
            f"problem line declares {declared_m} edges but file has {len(edges)}"
        )
    return Graph(n, edges)


def emit_graph(
    g: Graph,
    levels: Iterable[int] | None = None,
    comments: Iterable[str] = (),
) -> str:
    """Canonical text form: sorted edges, 1-based ids, optional level lines."""
    out = [f"c {c}" for c in comments]
    out.append(f"p edge {g.n} {g.m}")
    out.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    if levels is not None:
        lv = list(levels)
        if len(lv) != g.n:
            raise ValueError("levels must assign every node")
        out.extend(f"l {v + 1} {lv[v]}" for v in range(g.n))
    return "\n".join(out) + "\n"
