"""Round-limited observation spreading.

Starting from a source set S, round 1 observes every node in a closed
neighborhood of S.  In each later round, an observed node u whose closed
neighborhood has exactly one unobserved member forces that member to become
observed.  All forcings within a round are applied simultaneously.  The
process is monotone, so it stabilizes after at most n-1 rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from powerdom.graphs import Graph

INF = math.inf


@dataclass(frozen=True)
class PropagationTrace:
    """Result of running the spreading process for a fixed number of rounds.

    times[v] is 0 for sources, the first round at which v became observed
    otherwise, or math.inf if v stayed unobserved within the round budget.
    """

    times: tuple[float, ...]
    rounds_run: int


def spread(
    closed: tuple[int, ...],
    first: int,
    k: int,
    base: list[int] | None = None,
) -> Iterator[int]:
    """Yield the observed mask after each round, round 1 observing `first`,
    up to round k or the fixed point, whichever comes first.

    closed[v] is the bitmask of v's closed neighborhood.  Round 2 checks
    every observed node; a later round checks only the observed nodes in
    the closed neighborhood of a node observed the round before, since no
    other node's count of unobserved closed neighbors can have changed.
    Each round is run only when its mask is asked for, so a caller that
    stops reading, say once its targets are observed, stops the run.

    `base` re-runs a nearby run by its difference: base[i] is the observed
    mask after round i+1 of a run, to k rounds or to its fixed point, whose
    first round base[0] is contained in `first`, such as the list of a
    spread's masks.  By monotonicity every forcing of that run happens here
    too, so round r+1 starts from base[r] and checks only the observed
    nodes whose closed neighborhood meets `extra`, the nodes observed here
    but not in the base run after round r; any other node sees what it saw
    in the base run.  Once `extra` is empty the run follows the base run.
    """
    cur = check = first
    yield cur
    for r in range(1, k):
        nxt = cur
        if base is not None:
            extra = cur & ~base[min(r, len(base)) - 1]
            check = 0
            while extra:
                low = extra & -extra
                extra ^= low
                check |= closed[low.bit_length() - 1]
            check &= cur
            nxt |= base[min(r, len(base) - 1)]
        free = ~cur
        m = check
        while m:
            low = m & -m
            m ^= low
            rem = closed[low.bit_length() - 1] & free
            if rem and rem & (rem - 1) == 0:
                nxt |= rem
        new = nxt ^ cur
        if not new:
            return
        cur = nxt
        yield cur
        if base is None:
            check = 0
            while new:
                low = new & -new
                new ^= low
                check |= closed[low.bit_length() - 1]
            check &= cur


def _first_round(g: Graph, src: frozenset[int], k: int) -> int:
    if k < 1:
        raise ValueError("round budget k must be >= 1")
    closed = g.closed_masks()
    first = 0
    for v in src:
        if not (0 <= v < g.n):
            raise ValueError(f"source {v} out of range")
        first |= closed[v]
    return first


def propagate(g: Graph, sources: Iterable[int], k: int) -> PropagationTrace:
    """Run k rounds of spreading from `sources` and record first-hit times.

    k must be at least 1.  Stops early once a round adds nothing, since the
    set can then never grow again.
    """
    src = frozenset(sources)
    first = _first_round(g, src, k)
    times: list[float] = [INF] * g.n
    seen = 0
    for r, mask in enumerate(spread(g.closed_masks(), first, k), 1):
        new = mask ^ seen
        seen = mask
        while new:
            low = new & -new
            new ^= low
            times[low.bit_length() - 1] = r
    for v in src:
        times[v] = 0
    return PropagationTrace(times=tuple(times), rounds_run=k)


def is_feasible(g: Graph, sources: Iterable[int], targets: Iterable[int], ell: int) -> bool:
    """Does `sources` observe every target within `ell` rounds?"""
    tmask = 0
    for v in targets:
        if not (0 <= v < g.n):
            raise ValueError(f"target {v} out of range")
        tmask |= 1 << v
    first = _first_round(g, frozenset(sources), ell)
    return any(m & tmask == tmask for m in spread(g.closed_masks(), first, ell))
