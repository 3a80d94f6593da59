"""Exhaustive baseline solvers, used as ground truth in tests and benchmarks."""

from __future__ import annotations

import itertools
from typing import Iterable

from powerdom.graphs import Graph
from powerdom.propagation import spread

# Largest graph either exhaustive search takes on without force=True.
NODE_LIMIT = 24


def _covers(closed: tuple[int, ...], sources: Iterable[int], tmask: int, ell: int) -> bool:
    first = 0
    for v in sources:
        first |= closed[v]
    return spread(closed, first, ell, stop=tmask) & tmask == tmask


def first_cover(
    closed: tuple[int, ...], size: int, tmask: int, ell: int, nodes: Iterable[int] | None = None
) -> frozenset[int] | None:
    """First set of size nodes from nodes (default: every node), in
    lexicographic order, observing every node of tmask within ell rounds,
    or None when no such set exists."""
    pool = range(len(closed)) if nodes is None else nodes
    for combo in itertools.combinations(pool, size):
        if _covers(closed, combo, tmask, ell):
            return frozenset(combo)
    return None


def solve_bf(
    g: Graph,
    targets: Iterable[int],
    ell: int,
    size_cap: int | None = None,
    force: bool = False,
) -> tuple[int, frozenset[int]] | None:
    """Smallest source set observing all targets within ell rounds.

    Tries source sets in order of increasing size, lexicographic within a
    size, so the returned witness is canonical.  Returns None when size_cap
    is given and no set of at most that size works.  Guarded to small graphs
    unless force=True; the search is exponential in n.
    """
    if ell < 1:
        raise ValueError("round budget ell must be >= 1")
    tgt = frozenset(targets)
    for v in tgt:
        if not (0 <= v < g.n):
            raise ValueError(f"target {v} out of range")
    if not tgt:
        return 0, frozenset()
    if g.n > NODE_LIMIT and not force:
        raise ValueError(
            f"refusing exhaustive search on n={g.n} > {NODE_LIMIT}; pass force=True"
        )
    closed = g.closed_masks()
    tmask = 0
    for v in tgt:
        tmask |= 1 << v
    max_size = g.n if size_cap is None else min(size_cap, g.n)
    for size in range(1, max_size + 1):
        witness = first_cover(closed, size, tmask, ell)
        if witness is not None:
            return size, witness
    return None


def solve_domset_bf(
    g: Graph,
    force: bool = False,
) -> tuple[int, frozenset[int]]:
    """Smallest S whose closed neighborhoods cover every node of g.

    Written independently of solve_bf on purpose: with a one-round budget the
    two problems coincide, which makes this a cross-check oracle.
    """
    if g.n == 0:
        return 0, frozenset()
    if g.n > NODE_LIMIT and not force:
        raise ValueError(
            f"refusing exhaustive search on n={g.n} > {NODE_LIMIT}; pass force=True"
        )
    covers = {v: frozenset(g.adjacency[v]) | {v} for v in range(g.n)}
    everything = frozenset(range(g.n))
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            hit: set[int] = set()
            for v in combo:
                hit |= covers[v]
            if hit == everything:
                return size, frozenset(combo)
    return g.n, everything
