"""Peeling levels of embedded planar graphs and the shifting approximation.

Levels come either from a rotation system (combinatorial embedding) by
repeatedly stripping the exterior face, or from `l` lines in a graph file.
The approximation scheme cuts the level sequence into overlapping blocks,
solves each block exactly with the decomposition-based solver, and keeps
the best shift.  Blocks carry padding levels around the part they must
observe; without that padding a block-local solution can rely on
propagation steps that the full graph forbids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from powerdom.dpsolve import solve_dp
from powerdom.graphs import Graph, GraphFormatError, check_rounds, induced_subgraph, parse_id, records
from powerdom.propagation import is_feasible


@dataclass(frozen=True)
class LevelAssignment:
    """Per-node peeling level, 1 = exterior."""

    level: tuple[int, ...]

    @property
    def max_level(self) -> int:
        return max(self.level, default=0)

    def between(self, a: int, b: int) -> frozenset[int]:
        """Nodes whose level lies in [a, b]."""
        return frozenset(v for v, lv in enumerate(self.level) if a <= lv <= b)


@dataclass(frozen=True)
class RotationSystem:
    """Combinatorial embedding: neighbors in cyclic order, plus one dart on
    the exterior face."""

    order: tuple[tuple[int, ...], ...]
    outer_face: tuple[int, int]


def validate_levels(g: Graph, la: LevelAssignment) -> str | None:
    """Structural check for supplied levels; None when acceptable.

    Peeling levels always start at 1 and never jump by more than one
    across an edge, so that much is enforced for external input too.  The
    message names nodes by their 1-based ids, as files write them.
    """
    if len(la.level) != g.n:
        return f"level assignment covers {len(la.level)} nodes, graph has {g.n}"
    for v, lv in enumerate(la.level):
        if lv < 1:
            return f"node {v + 1} has level {lv}; levels start at 1"
    if g.n and min(la.level) != 1:
        return "no node has level 1"
    for u, v in g.edges:
        if abs(la.level[u] - la.level[v]) > 1:
            return (
                f"edge {{{u + 1}, {v + 1}}} spans levels "
                f"{la.level[u]} and {la.level[v]}"
            )
    return None


def _face_orbits(g: Graph, rs: RotationSystem) -> list[list[tuple[int, int]]]:
    succ: list[dict[int, int]] = []
    for v in range(g.n):
        rot = rs.order[v]
        if sorted(rot) != sorted(g.adjacency[v]):
            raise ValueError(f"rotation at node {v} does not match its neighbors")
        succ.append({u: rot[(j + 1) % len(rot)] for j, u in enumerate(rot)})
    darts = [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges]
    seen: set[tuple[int, int]] = set()
    faces: list[list[tuple[int, int]]] = []
    for start in darts:
        if start in seen:
            continue
        orbit = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            u, v = cur
            cur = (v, succ[v][u])
        faces.append(orbit)
    return faces


def compute_levels(g: Graph, rs: RotationSystem) -> LevelAssignment:
    """Peeling levels of an embedded connected planar graph.

    Strips the exterior face, re-exposes whatever faces its nodes touched,
    and repeats.  A node's level is the round in which it is stripped.
    """
    if g.n == 0:
        return LevelAssignment(())
    if g.m == 0:
        if g.n == 1:
            return LevelAssignment((1,))
        raise ValueError("graph is not connected")
    faces = _face_orbits(g, rs)
    if g.n - g.m + len(faces) != 2:
        raise ValueError(
            f"embedding yields {len(faces)} faces on n={g.n}, m={g.m}; "
            "Euler's formula fails (not a connected planar embedding)"
        )
    if rs.outer_face[0] == rs.outer_face[1] or not g.has_edge(*rs.outer_face):
        raise ValueError("outer face dart is not an edge of the graph")
    outer_at = next(i for i, f in enumerate(faces) if rs.outer_face in f)
    face_nodes = [frozenset(u for u, _ in f) for f in faces]
    at_faces: list[list[int]] = [[] for _ in range(g.n)]
    for fi, nodes in enumerate(face_nodes):
        for v in nodes:
            at_faces[v].append(fi)
    level = [0] * g.n
    face_used = [False] * len(faces)
    face_used[outer_at] = True
    frontier = sorted(face_nodes[outer_at])
    depth = 1
    while frontier:
        for v in frontier:
            level[v] = depth
        nxt: set[int] = set()
        for v in frontier:
            for fi in at_faces[v]:
                if not face_used[fi]:
                    face_used[fi] = True
                    nxt.update(w for w in face_nodes[fi] if level[w] == 0)
        frontier = sorted(nxt)
        depth += 1
    if any(lv == 0 for lv in level):
        raise ValueError("graph is not connected")
    return LevelAssignment(tuple(level))


def parse_levels(text: str, n: int) -> LevelAssignment | None:
    """Read `l <node> <level>` lines (1-based ids) from a graph file.

    Returns None when the file carries no level lines at all; a partial
    assignment is an error.
    """
    level: dict[int, int] = {}
    for lineno, parts in records(text):
        if parts[0] != "l":
            continue
        if len(parts) != 3:
            raise GraphFormatError("level line must be 'l <node> <level>'", lineno)
        v = parse_id(parts[1], n, lineno)
        try:
            lv = int(parts[2])
        except ValueError:
            raise GraphFormatError("non-integer level", lineno) from None
        if lv < 1:
            raise GraphFormatError("levels start at 1", lineno)
        if v in level:
            raise GraphFormatError(f"duplicate level for node {v + 1}", lineno)
        level[v] = lv
    if not level:
        return None
    missing = [v for v in range(n) if v not in level]
    if missing:
        raise GraphFormatError(f"node {missing[0] + 1} has no level line")
    return LevelAssignment(tuple(level[v] for v in range(n)))


@dataclass(frozen=True)
class Block:
    """One block of one shifted decomposition: solve on B, observe C."""

    i: int
    j: int
    B: frozenset[int]
    C: frozenset[int]


def build_blocks(levels: LevelAssignment, i: int, k: int, ell: int) -> list[Block]:
    """Blocks of shift i: C spans k levels, B pads 2*ell-1 more on each side.

    j runs over every integer whose C range meets the existing levels, so
    the C parts of one shift tile all of V.
    """
    if k < 1:
        raise ValueError("block width k must be >= 1")
    if not (1 <= i <= k):
        raise ValueError(f"shift index {i} outside 1..{k}")
    check_rounds(ell)
    top = levels.max_level
    if top == 0:
        return []
    j_lo = -((i + k - 2) // k)  # smallest j with (j+1)k + i - 1 >= 1
    j_hi = (top - i) // k  # largest j with jk + i <= top
    out = []
    for j in range(j_lo, j_hi + 1):
        c_lo, c_hi = j * k + i, (j + 1) * k + i - 1
        b_lo, b_hi = c_lo - 2 * ell + 1, c_hi + 2 * ell - 1
        out.append(
            Block(i, j, levels.between(max(b_lo, 1), min(b_hi, top)),
                  levels.between(max(c_lo, 1), min(c_hi, top)))
        )
    return out


@dataclass(frozen=True)
class PtasResult:
    solution: frozenset[int]
    shift: int
    k: int
    block_sizes: tuple[int, ...]


def ptas_detailed(g: Graph, levels: LevelAssignment, ell: int, eps) -> PtasResult:
    """Shifting scheme: per shift, solve every block exactly and take the
    union; return the best shift.

    Guarantees |solution| <= (1 + (4*ell-2)/k) * optimum with k level
    shifts, k = 4*ceil(ell/eps).  The output is re-verified against the
    full graph before it is returned.
    """
    check_rounds(ell)
    try:
        e = Fraction(eps)
    except (ZeroDivisionError, OverflowError):  # "1/0", an infinite float
        raise ValueError("eps must lie in (0, 1]") from None
    if not (0 < e <= 1):
        raise ValueError("eps must lie in (0, 1]")
    bad = validate_levels(g, levels)
    if bad is not None:
        raise ValueError(f"level assignment does not fit the graph: {bad}")
    k = 4 * math.ceil(Fraction(ell) / e)
    cache: dict[tuple[frozenset[int], frozenset[int]], frozenset[int]] = {}
    best: tuple[int, int, frozenset[int], tuple[int, ...]] | None = None
    for i in range(1, k + 1):
        union: set[int] = set()
        sizes: list[int] = []
        for block in build_blocks(levels, i, k, ell):
            key = (block.B, block.C)
            if key not in cache:
                sub, idmap = induced_subgraph(g, block.B)
                _, wit = solve_dp(sub, {idmap[v] for v in block.C}, ell)
                back = {new: old for old, new in idmap.items()}
                cache[key] = frozenset(back[w] for w in wit)
            found = cache[key]
            union |= found
            sizes.append(len(found))
        cand = (len(union), i, frozenset(union), tuple(sizes))
        if best is None or cand < best:
            best = cand
    assert best is not None
    size, shift, solution, sizes = best
    if not is_feasible(g, solution, range(g.n), ell):
        raise RuntimeError(
            "approximation output failed verification; this is an internal error"
        )
    return PtasResult(solution, shift, k, sizes)


def ptas(g: Graph, levels: LevelAssignment, ell: int, eps) -> frozenset[int]:
    """Approximate smallest source set observing every node within ell rounds."""
    return ptas_detailed(g, levels, ell, eps).solution
