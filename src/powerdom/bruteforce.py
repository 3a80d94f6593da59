"""Exhaustive baseline solvers, used as ground truth in tests and benchmarks."""

from __future__ import annotations

import itertools
from typing import Iterable

from powerdom.graphs import Graph, ball, check_rounds, node_mask
from powerdom.propagation import spread

# Largest graph either exhaustive search takes on without force=True.
NODE_LIMIT = 24

# A spread costs first_cover's budget this many full-size sets more than a
# set the distance cut turns down unspread.
SPREAD_COST = 30


class Budget:
    """The work first_cover calls may still do, shared between them: left,
    counted in full-size sets the walk reaches plus SPREAD_COST per spread,
    and sets, the full-size sets reached so far."""

    __slots__ = ("left", "sets")

    def __init__(self, left: int):
        self.left = left
        self.sets = 0


class BudgetSpent(Exception):
    """first_cover ran out of budget before its walk ended, so it knows
    nothing of the sets it did not reach."""


def _covers(closed: tuple[int, ...], sources: Iterable[int], tmask: int, ell: int) -> bool:
    first = 0
    for v in sources:
        first |= closed[v]
    return any(m & tmask == tmask for m in spread(closed, first, ell))


def first_cover(
    closed: tuple[int, ...],
    size: int,
    tmask: int,
    ell: int,
    nodes: Iterable[int] | None = None,
    budget: Budget | None = None,
) -> frozenset[int] | None:
    """First set of size nodes from nodes (default: every node), in
    lexicographic order, observing every node of tmask within ell rounds,
    or None when no such set exists.  With a budget, raises BudgetSpent
    when the walk has cost more than budget.left and is not yet over, at
    once if that is negative; either way the budget is charged what the
    walk cost.

    Round 1 observes the origins' closed neighborhoods, and each later
    round observes only neighbors of nodes already observed, so a target
    observed within ell rounds lies within distance ell of an origin.  Each
    pool node's ball, the targets within distance ell of it, is computed
    once, and the sets are walked depth first in lexicographic order.  A
    prefix whose balls, together with those of every later pool node, miss
    a target is cut with the rest of its loop, since later nodes only have
    fewer balls left to add.  Only a full set whose balls cover tmask is
    spread.  The cut drops only sets that cannot work, so the set returned
    is the one a plain walk over every set would return.
    """
    if size == 0:
        return None if tmask else frozenset()
    if budget is None:
        budget = Budget(1 << 62)
    allowance = budget.left
    if allowance < 0:
        raise BudgetSpent
    pool = tuple(range(len(closed)) if nodes is None else nodes)
    m = len(pool)
    balls = [ball(closed, 1 << v, ell) & tmask for v in pool]
    # reach[i]: the targets in the balls of pool[i:].
    reach = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        reach[i] = reach[i + 1] | balls[i]
    # Position d of the current set is pool[chosen[d]]; first[d] and hit[d]
    # are the closed neighborhoods and the balls of its first d nodes.
    chosen = [0] * size
    first = [0] * size
    hit = [0] * size
    last = size - 1
    sets = spreads = 0
    d = i = 0
    try:
        while d >= 0:
            if d == last:
                # Each pool[j] that keeps the reach closes a full set; loops
                # are charged as they end, and a spent budget stops the walk
                # only before another one.
                if sets + SPREAD_COST * spreads > allowance:
                    raise BudgetSpent
                h, f = hit[d], first[d]
                for j in range(i, m):
                    if h | reach[j] != tmask:
                        break
                    if h | balls[j] == tmask:
                        spreads += 1
                        run = spread(closed, f | closed[pool[j]], ell)
                        if any(m & tmask == tmask for m in run):
                            chosen[d] = j
                            sets += j - i + 1
                            return frozenset(pool[k] for k in chosen)
                else:
                    j = m
                sets += j - i
            elif i <= m - size + d and hit[d] | reach[i] == tmask:
                chosen[d] = i
                first[d + 1] = first[d] | closed[pool[i]]
                hit[d + 1] = hit[d] | balls[i]
                d += 1
                i += 1
                continue
            d -= 1
            if d >= 0:
                i = chosen[d] + 1
        return None
    finally:
        budget.left = allowance - sets - SPREAD_COST * spreads
        budget.sets += sets


def _check_size(g: Graph, force: bool) -> None:
    if g.n > NODE_LIMIT and not force:
        raise ValueError(f"refusing exhaustive search on n={g.n} > {NODE_LIMIT}; pass force=True")


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
    check_rounds(ell)
    tmask = node_mask(g.n, targets, "target")
    if not tmask:
        return 0, frozenset()
    _check_size(g, force)
    closed = g.closed_masks()
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
    _check_size(g, force)
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
