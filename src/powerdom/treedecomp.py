"""Tree decompositions: validation, a min-fill heuristic builder, conversion
to nice (rooted binary Leaf/Insert/Forget/Join) form, and PACE-style file I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from powerdom.graphs import Graph, GraphFormatError, parse_id, records


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..len-1 plus an undirected tree on bag indices.

    Tree shape (connected, acyclic) is enforced at construction; coverage
    properties against a concrete graph go through validate_td.
    """

    bags: tuple[frozenset[int], ...]
    tree: tuple[tuple[int, int], ...]

    def __post_init__(self):
        nb = len(self.bags)
        if nb == 0:
            raise ValueError("a decomposition needs at least one bag")
        if len(self.tree) != nb - 1:
            raise ValueError(f"{nb} bags need {nb - 1} tree edges, got {len(self.tree)}")
        adj: list[list[int]] = [[] for _ in range(nb)]
        for i, j in self.tree:
            if not (0 <= i < nb and 0 <= j < nb) or i == j:
                raise ValueError(f"bad tree edge ({i + 1}, {j + 1})")
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != nb:
            raise ValueError("tree edges do not connect all bags")

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


@dataclass(frozen=True)
class TdViolation:
    """What validate_td found wrong; detail names nodes by their 1-based
    ids, as the file formats and the command line write them."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate_td(g: Graph, td: TreeDecomposition) -> TdViolation | None:
    """Check the three decomposition properties against g; None if all hold.

    Linear in the total bag size: each node's holders are collected in one
    pass, an edge is looked up in the smaller holder set of its ends, and the
    bags holding v form a subtree iff exactly |holders(v)| - 1 tree edges
    join two of them.
    """
    holders: list[set[int]] = [set() for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.n):
                return TdViolation("node-range", f"bag node {v + 1} outside 1..{g.n}")
            holders[v].add(i)
    for v in range(g.n):
        if not holders[v]:
            return TdViolation("node-missing", f"node {v + 1} is in no bag")
    for u, v in g.edges:
        if holders[u].isdisjoint(holders[v]):
            return TdViolation("edge-uncovered", f"edge ({u + 1}, {v + 1}) is inside no bag")
    inner = [0] * g.n  # tree edges with both ends holding v
    for i, j in td.tree:
        for v in td.bags[i] & td.bags[j]:
            inner[v] += 1
    for v in range(g.n):
        if inner[v] != len(holders[v]) - 1:
            return TdViolation(
                "disconnected", f"bags containing node {v + 1} do not form a subtree"
            )
    return None


def heuristic_td(g: Graph) -> TreeDecomposition:
    """Min-fill elimination ordering, ties to the smallest node id.

    Standard construction: eliminating v yields bag {v} + current neighbors,
    which are then made a clique.  Once all are eliminated, each bag hangs
    off the bag of the first of those neighbors to be eliminated, and the
    bags with none, one per component, are chained to the first of them so
    the result is a single tree.  Fill counts live in a heap and are
    recounted only where an elimination can change them.
    """
    if g.n == 0:
        return TreeDecomposition((frozenset(),), ())
    nbrs: dict[int, set[int]] = {v: set(g.adjacency[v]) for v in range(g.n)}

    def fill(v: int) -> int:
        nv = nbrs[v]
        return sum(1 for a in nv for b in nv if a < b and b not in nbrs[a])

    fills = [fill(v) for v in range(g.n)]
    heap = [(f, v) for v, f in enumerate(fills)]
    heapify(heap)
    bags: list[frozenset[int]] = []
    at = [0] * g.n  # the index of each node's bag
    later: list[set[int]] = []  # per bag, its node's neighbors at elimination
    while nbrs:
        f, v = heappop(heap)
        if v not in nbrs or fills[v] != f:
            continue  # stale entry
        nv = nbrs.pop(v)
        at[v] = len(bags)
        bags.append(frozenset(nv | {v}))
        later.append(nv)
        added = [(a, b) for a in nv for b in nv if a < b and b not in nbrs[a]]
        for a in nv:
            nbrs[a].discard(v)
        for a, b in added:
            nbrs[a].add(b)
            nbrs[b].add(a)
        # An added edge closes one missing pair of each node next to both of
        # its ends; only v's neighbors saw their own neighborhood change.
        for a, b in added:
            for w in nbrs[a] & nbrs[b]:
                if w not in nv:
                    fills[w] -= 1
                    heappush(heap, (fills[w], w))
        for a in nv:
            # With nothing added, a lost just the pairs of v with its other
            # neighbors.
            f = fill(a) if added else fills[a] - (len(nbrs[a]) + 1 - len(nv))
            if f != fills[a]:
                fills[a] = f
                heappush(heap, (f, a))
    links = sorted((min(at[a] for a in nv), i) for i, nv in enumerate(later) if nv)
    edges = [(i, parent) for parent, i in links]
    roots = [i for i, nv in enumerate(later) if not nv]
    edges.extend((roots[0], extra) for extra in roots[1:])
    return TreeDecomposition(tuple(bags), tuple(edges))


@dataclass(frozen=True)
class NiceNode:
    """kind is 'leaf', 'insert', 'forget', or 'join'; node is the vertex
    inserted or forgotten (None otherwise).  Leaves and the root have empty
    bags."""

    kind: str
    bag: frozenset[int]
    children: tuple[int, ...]
    node: int | None = None


@dataclass(frozen=True)
class NiceTreeDecomposition:
    nodes: tuple[NiceNode, ...]
    root: int

    @property
    def width(self) -> int:
        return max(len(nd.bag) for nd in self.nodes) - 1


def to_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Root at bag 0 and normalize to the textbook nice form (Cygan et al.,
    Parameterized Algorithms, 2015, ch. 7): leaves become empty Leaf bags
    grown by Insert chains, tree edges become Forget-then-Insert splices,
    bags with several children become chains of equal-bag binary Joins, and
    bag 0 is forgotten down to an empty root.  Width is preserved and every
    original bag appears among the nice bags.  The walk visits each tree
    edge once and is iterative, so depth is no limit."""
    nodes: list[NiceNode] = []

    def add(kind: str, bag: frozenset[int], children: tuple[int, ...], node=None) -> int:
        nodes.append(NiceNode(kind, bag, children, node))
        return len(nodes) - 1

    def splice(top: int, from_bag: frozenset[int], to_bag: frozenset[int]) -> int:
        bag = from_bag
        for x in sorted(from_bag - to_bag):
            bag = bag - {x}
            top = add("forget", bag, (top,), x)
        for x in sorted(to_bag - from_bag):
            bag = bag | {x}
            top = add("insert", bag, (top,), x)
        return top

    adj: list[list[int]] = [[] for _ in td.bags]
    for i, j in td.tree:
        adj[i].append(j)
        adj[j].append(i)
    parent: list[int | None] = [None] * len(td.bags)
    # Children's nice tops, in ascending bag order; a bag is built once all
    # of its children are, each child spliced in as soon as it is done.
    tops: list[list[int]] = [[] for _ in td.bags]
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        i, expanded = stack.pop()
        bag = td.bags[i]
        if not expanded:
            stack.append((i, True))
            kids = sorted(j for j in adj[i] if j != parent[i])
            for j in reversed(kids):
                parent[j] = i
                stack.append((j, False))
            continue
        if not tops[i]:
            top = splice(add("leaf", frozenset(), ()), frozenset(), bag)
        else:
            top = tops[i][0]
            for other in tops[i][1:]:
                top = add("join", bag, (top, other))
        p = parent[i]
        if p is None:
            root = splice(top, bag, frozenset())
        else:
            tops[p].append(splice(top, bag, td.bags[p]))
    # Per bag a leaf and its inserts, a join, and the splice to its parent.
    w = max(map(len, td.bags))
    assert len(nodes) <= (3 * w + 2) * len(td.bags) + w, "nice form grew past its bound"
    return NiceTreeDecomposition(tuple(nodes), root)


def parse_td(text: str) -> TreeDecomposition:
    """PACE-style: `s td <#bags> <width+1> <n>`, `b <i> <v...>` with 1-based
    ids, then one `<i> <j>` line per tree edge.

    The declared bag count must be one more than the number of tree edges;
    that is checked before a list of that many bags is built.
    """
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges = []
    for lineno, parts in records(text):
        if parts[0] == "s":
            if header is not None:
                raise GraphFormatError("duplicate solution line", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise GraphFormatError("header must be 's td <#bags> <width+1> <n>'", lineno)
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise GraphFormatError("non-integer header fields", lineno) from None
            header_line = lineno
        elif parts[0] == "b":
            if header is None:
                raise GraphFormatError("bag line before header", lineno)
            if len(parts) < 2:
                raise GraphFormatError("bag line must be 'b <i> <v...>'", lineno)
            idx = parse_id(parts[1], header[0], lineno)
            if idx in bags:
                raise GraphFormatError(f"duplicate bag {idx + 1}", lineno)
            bags[idx] = frozenset(parse_id(v, header[2], lineno) for v in parts[2:])
        else:
            if len(parts) != 2:
                raise GraphFormatError(f"unrecognized line {' '.join(parts)!r}", lineno)
            if header is None:
                raise GraphFormatError("tree edge before header", lineno)
            edges.append((parse_id(parts[0], header[0], lineno),
                          parse_id(parts[1], header[0], lineno)))
    if header is None:
        raise GraphFormatError("missing 's td' header line")
    if header[0] != len(edges) + 1:
        raise GraphFormatError(
            f"header declares {header[0]} bags, but {len(edges)} tree edges "
            f"make a tree on {len(edges) + 1}", header_line
        )
    full = tuple(bags.get(i, frozenset()) for i in range(header[0]))
    try:
        return TreeDecomposition(full, tuple(edges))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def emit_td(td: TreeDecomposition) -> str:
    n = max((max(b) for b in td.bags if b), default=-1) + 1
    out = [f"s td {len(td.bags)} {max(len(b) for b in td.bags)} {n}"]
    for i, bag in enumerate(td.bags):
        out.append("b " + " ".join([str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
    out.extend(f"{i + 1} {j + 1}" for i, j in sorted(tuple(sorted(e)) for e in td.tree))
    return "\n".join(out) + "\n"
