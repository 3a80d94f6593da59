"""Instance family constructors: spiders, pendant cycles, path attachments,
and the representative-cover hardness reduction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from powerdom.graphs import MAX_NODES, Graph, GraphFormatError, check_rounds, parse_id, records


def _bounded(n: int) -> int:
    """The node count of a graph about to be built, refused before anything
    is allocated when parse_graph would refuse it."""
    if n > MAX_NODES:
        raise ValueError(f"the graph would have {n} nodes, over the limit {MAX_NODES}")
    return n


def spider(m: int, k: int) -> Graph:
    """Union of m paths on k+1 nodes sharing one endpoint.

    Node 0 is the center; path p occupies ids 1+p*k .. 1+p*k+(k-1), ordered
    outward from the center.
    """
    if m < 1 or k < 1:
        raise ValueError("spider needs m >= 1 paths of length k >= 1")
    n = _bounded(k * m + 1)
    edges = []
    for p in range(m):
        base = 1 + p * k
        edges.append((0, base))
        for i in range(k - 1):
            edges.append((base + i, base + i + 1))
    return Graph(n, edges)


def pendant_cycle(m: int) -> Graph:
    """Cycle 0..m-1 with a pendant node m+i hanging off each cycle node i."""
    if m < 3:
        raise ValueError("cycle length must be >= 3")
    n = _bounded(2 * m)
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(i, m + i) for i in range(m)]
    return Graph(n, edges)


def attach_paths(g: Graph, ell: int) -> Graph:
    """Grow a fresh path of ell-1 nodes from every node of g.

    With a round budget of ell, observing the new graph completely is
    equivalent to dominating the original one: each tail consumes all ell-1
    forcing rounds.  ell=1 attaches nothing and returns g itself.
    """
    check_rounds(ell)
    if ell == 1:
        return g
    n = _bounded(g.n * ell)
    edges = list(g.edges)
    for v in range(g.n):
        base = g.n + v * (ell - 1)
        edges.append((v, base))
        for j in range(ell - 2):
            edges.append((base + j, base + j + 1))
    return Graph(n, edges)


# --------------------------------------------------------------------------
# Representative-cover reduction.


@dataclass(frozen=True)
class MinRepInstance:
    """Bipartite cover instance with grouped sides.

    Side A has q_a groups of m_a elements, side B has q_b groups of m_b.
    Global element ids: A side 0..q_a*m_a-1, B side following.  Edges are
    (a_index, b_index) pairs of side-local 0-based indices.  A pair of groups
    (i, j) joined by at least one edge is a super-edge; a pick of elements
    covers it when some edge between the groups has both endpoints picked.
    """

    q_a: int
    m_a: int
    q_b: int
    m_b: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if min(self.q_a, self.m_a, self.q_b, self.m_b) < 1:
            raise ValueError("group counts and sizes must be >= 1")
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < self.n_a and 0 <= b < self.n_b):
                raise ValueError(f"edge ({a + 1}, {b + 1}) out of range")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a + 1}, {b + 1})")
            seen.add((a, b))

    @property
    def n_a(self) -> int:
        return self.q_a * self.m_a

    @property
    def n_b(self) -> int:
        return self.q_b * self.m_b

    @property
    def n_elements(self) -> int:
        return self.n_a + self.n_b

    def a_id(self, a: int) -> int:
        return a

    def b_id(self, b: int) -> int:
        return self.n_a + b

    def group_of_a(self, a: int) -> int:
        return a // self.m_a

    def group_of_b(self, b: int) -> int:
        return b // self.m_b

    def super_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.edges_by_super())

    def edges_by_super(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Each super-edge, in sorted order, with its edges in input order."""
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for a, b in self.edges:
            groups.setdefault((self.group_of_a(a), self.group_of_b(b)), []).append((a, b))
        return {key: groups[key] for key in sorted(groups)}


def minrep_cover_check(inst: MinRepInstance, pick: Iterable[int]) -> bool:
    """True iff `pick` (global element ids) covers every super-edge."""
    chosen = set(pick)
    for v in chosen:
        if not (0 <= v < inst.n_elements):
            raise ValueError(f"pick {v} is not an element id")
    return all(
        any(inst.a_id(a) in chosen and inst.b_id(b) in chosen for a, b in edges)
        for edges in inst.edges_by_super().values()
    )


def minrep_cover_bf(inst: MinRepInstance) -> tuple[int, frozenset[int]]:
    """Exhaustive minimum cover, smallest-first; oracle for tests."""
    import itertools

    ids = range(inst.n_elements)
    for size in range(inst.n_elements + 1):
        for combo in itertools.combinations(ids, size):
            if minrep_cover_check(inst, combo):
                return size, frozenset(combo)
    raise AssertionError("full element set always covers")


def parse_minrep(text: str) -> MinRepInstance:
    """Text form: `minrep <q_a> <m_a> <q_b> <m_b>` then `e <a> <b>` lines
    with 1-based side-local indices."""
    header = None
    edges = []
    for lineno, parts in records(text):
        if parts[0] == "minrep":
            if header is not None:
                raise GraphFormatError("duplicate header line", lineno)
            if len(parts) != 5:
                raise GraphFormatError(
                    "header must be 'minrep <q_a> <m_a> <q_b> <m_b>'", lineno
                )
            try:
                header = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise GraphFormatError("non-integer group counts", lineno) from None
        elif parts[0] == "e":
            if header is None:
                raise GraphFormatError("edge line before header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("edge line must be 'e <a> <b>'", lineno)
            q_a, m_a, q_b, m_b = header
            edges.append((parse_id(parts[1], q_a * m_a, lineno),
                          parse_id(parts[2], q_b * m_b, lineno)))
        else:
            raise GraphFormatError(f"unknown line type {parts[0]!r}", lineno)
    if header is None:
        raise GraphFormatError("missing 'minrep' header line")
    try:
        return MinRepInstance(*header, tuple(edges))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


# One-way connector between a copy's center and one terminal (a u or v node).
# Three fresh nodes per arm; alpha and gamma are dashed, i.e. also adjacent
# to the master node and hence observed in round 1.  Once the center is
# observed (round r), gamma forces beta (round r+1, its only unobserved
# neighbor left), then alpha forces the terminal (round r+2).  In the other
# direction an observed terminal leaves both alpha and gamma with two
# unobserved neighbors {center, beta} forever, so nothing propagates back.
# This wiring was fixed by exhausting all 3-node wirings against that
# behavioral contract; the contract is retested mechanically in the suite.
CONNECTOR_EDGES = (
    ("alpha", "center"),
    ("alpha", "beta"),
    ("alpha", "terminal"),
    ("gamma", "center"),
    ("gamma", "beta"),
)
CONNECTOR_DASHED = ("alpha", "gamma")

LAMBDA_COPIES = 4


def connector_arm() -> tuple[Graph, dict[str, int]]:
    """Standalone 6-node arm for direct behavioral checks.

    Returns the graph plus role ids: master, center, terminal, alpha, beta,
    gamma.  Dashed arm nodes are adjacent to the master node.
    """
    roles = {"master": 0, "center": 1, "terminal": 2, "alpha": 3, "beta": 4, "gamma": 5}
    edges = [(roles[x], roles[y]) for x, y in CONNECTOR_EDGES]
    edges += [(roles["master"], roles[name]) for name in CONNECTOR_DASHED]
    return Graph(6, edges), roles


@dataclass(frozen=True)
class ReductionInfo:
    """Node roles of a reduction output; roles[v] is a short label like
    'a0', 'w*', or 'se0.c1.e0.u_alpha'."""

    w_star: int
    pendants: tuple[int, int, int]
    roles: tuple[str, ...]
    copies: int = LAMBDA_COPIES


def minrep_to_pds(inst: MinRepInstance) -> tuple[Graph, ReductionInfo]:
    """Build the round-limited observation instance for a cover instance.

    Elements keep their global ids.  A master node adjacent to every element
    (plus 3 fresh pendants) follows; then, per super-edge and per copy, a
    center node and per-edge nodes u, v, d with one connector arm from the
    center to each of u and v.  Original element-element edges are dropped;
    d is adjacent to u, v, the center, and the master node, so it forces the
    center exactly when both u and v are observed in round 1.  The minimum
    source set is exactly one larger than the minimum cover.
    """
    supers = inst.edges_by_super()
    # Per copy of a super-edge: its center, and u, v, d and two 3-node arms
    # per edge.
    n = _bounded(4 + inst.n_elements + LAMBDA_COPIES * (len(supers) + 9 * len(inst.edges)))
    roles = [f"a{a}" for a in range(inst.n_a)] + [f"b{b}" for b in range(inst.n_b)]
    edges: list[tuple[int, int]] = []

    def fresh(role: str) -> int:
        roles.append(role)
        return len(roles) - 1

    w_star = fresh("w*")
    edges += [(w_star, e) for e in range(inst.n_elements)]
    pendants = tuple(fresh(f"w*{i}") for i in (1, 2, 3))
    edges += [(w_star, p) for p in pendants]

    for s, pairs in enumerate(supers.values()):
        for t in range(LAMBDA_COPIES):
            prefix = f"se{s}.c{t}"
            center = fresh(f"{prefix}.center")
            for q, (a, b) in enumerate(pairs):
                u = fresh(f"{prefix}.e{q}.u")
                v = fresh(f"{prefix}.e{q}.v")
                d = fresh(f"{prefix}.e{q}.d")
                edges += [(u, inst.a_id(a)), (v, inst.b_id(b))]
                edges += [(d, u), (d, v), (d, center), (d, w_star)]
                for side, terminal in (("u", u), ("v", v)):
                    ids = {
                        name: fresh(f"{prefix}.e{q}.{side}_{name}")
                        for name in ("alpha", "beta", "gamma")
                    }
                    ids["center"] = center
                    ids["terminal"] = terminal
                    edges += [(ids[x], ids[y]) for x, y in CONNECTOR_EDGES]
                    edges += [(ids[name], w_star) for name in CONNECTOR_DASHED]

    assert len(roles) == n, f"construction built {len(roles)} nodes, not {n}"
    return Graph(n, edges), ReductionInfo(w_star, pendants, tuple(roles))
