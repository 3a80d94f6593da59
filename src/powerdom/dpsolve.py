"""Exact generalized round-limited power domination by dynamic programming
over a nice tree decomposition.

States describe, per bag: the orientation of bag-internal edges, a time label
per bag node (plain = justified, hatted = justification still owed, inf =
never observed), counters of directed edges into/out of the forgotten region,
the maximum label among a node's forgotten neighbors, and a cap on the labels
of a node's not-yet-seen neighbors.  The cap field closes a timing leak: when
the head of a directed edge leaves the bags before the tail's remaining
neighbors have appeared, those future neighbors must still fit under the
head's deadline, so the tail carries the bound forward.

Transitions generate only states that pass is_invalid_state.  They enforce
the clauses by construction plus targeted rechecks of whatever each step can
newly disturb, rather than re-running the full predicate per candidate; the
test suite audits stored tables against the predicate on small instances.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import inf as INF
from typing import NamedTuple

from powerdom.graphs import Graph
from powerdom.propagation import is_feasible, spread
from powerdom.treedecomp import NiceTreeDecomposition, heuristic_td, to_nice, validate_td

# Edge orientation codes, per sorted bag edge (u, v) with u < v.
EDGE_NONE = 0
EDGE_FWD = 1  # u -> v
EDGE_REV = 2  # v -> u

NO_CAP = INF


class BagState(NamedTuple):
    """Per-bag DP state; tuples run parallel to the bag's sorted node list
    (labels are (value, hatted) pairs) and its sorted edge list."""

    edge_state: tuple[int, ...]
    node_label: tuple[tuple[float, int], ...]
    in_from_below: tuple[int, ...]
    out_to_below: tuple[int, ...]
    below_max: tuple[float, ...]
    pending_cap: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class BagContext:
    """Static per-bag data: the bag's induced subgraph, which bag nodes are
    targets, the round budget, and index-based mirrors for fast checks."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    targets: frozenset[int]
    ell: int
    pos: dict[int, int] = field(repr=False, default=None)
    edge_pos: tuple[tuple[int, int], ...] = field(repr=False, default=None)
    adj_pos: tuple[tuple[int, ...], ...] = field(repr=False, default=None)

    def __post_init__(self):
        if self.pos is None:
            pos = {v: i for i, v in enumerate(self.nodes)}
            edge_pos = tuple((pos[u], pos[v]) for u, v in self.edges)
            adj: list[list[int]] = [[] for _ in self.nodes]
            for pu, pv in edge_pos:
                adj[pu].append(pv)
                adj[pv].append(pu)
            object.__setattr__(self, "pos", pos)
            object.__setattr__(self, "edge_pos", edge_pos)
            object.__setattr__(self, "adj_pos", tuple(map(tuple, adj)))


def _bag_context(g: Graph, bag: frozenset[int], targets: frozenset[int], ell: int) -> BagContext:
    nodes = tuple(sorted(bag))
    edges = tuple(
        (u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :] if g.has_edge(u, v)
    )
    return BagContext(nodes, edges, targets & bag, ell)


def is_invalid_state(ctx: BagContext, s: BagState) -> bool:
    """True iff the state violates a timed-orientation property locally or
    provably cannot extend to one that satisfies them all."""
    n = len(ctx.nodes)
    d_in = [0] * n
    d_out = [0] * n
    for (pu, pv), e in zip(ctx.edge_pos, s.edge_state):
        if e == EDGE_FWD:
            d_out[pu] += 1
            d_in[pv] += 1
        elif e == EDGE_REV:
            d_out[pv] += 1
            d_in[pu] += 1
    labels = s.node_label
    for i in range(n):
        val, hat = labels[i]
        incoming = d_in[i] + s.in_from_below[i]
        if val == INF:
            if ctx.nodes[i] in ctx.targets:
                return True  # targets must be observed
            if incoming + d_out[i] + s.out_to_below[i] >= 1:
                return True  # unobserved nodes touch no directed edge
        elif val == 0:
            if incoming >= 1:
                return True  # origins are not propagated to
        else:
            if incoming > 1:
                return True  # at most one justifying edge
            if hat and incoming != 0:
                return True  # hatted means justification still owed
            if not hat and incoming == 0:
                return True  # plain labels must already be justified
        if s.in_from_below[i] == 1 and s.out_to_below[i] == 2:
            return True
    # Timing on directed bag edges: the head's label may not undercut what
    # the tail's neighborhood, as far as it has been seen, already forces.
    for (pu, pv), e in zip(ctx.edge_pos, s.edge_state):
        if e == EDGE_NONE:
            continue
        pt, ph = (pu, pv) if e == EDGE_FWD else (pv, pu)
        hv = labels[ph][0]
        tv = labels[pt][0]
        if hv == 1:
            if tv != 0:
                return True
        elif hv > 1:
            bound = max(s.below_max[pt], tv)
            for pw in ctx.adj_pos[pt]:
                if pw != ph and labels[pw][0] > bound:
                    bound = labels[pw][0]
            if hv < 1 + bound:
                return True
    # Pending caps: each bag node must fit under its bag neighbors' caps.
    for pu, pv in ctx.edge_pos:
        if labels[pu][0] > s.pending_cap[pv] or labels[pv][0] > s.pending_cap[pu]:
            return True
    return False


def state_space_size(n_i: int, m_i: int, ell: int) -> int:
    """Nominal per-bag state count 3^m * (2l+2)^n * 5^n * (l+2)^n, saturated
    at sys.maxsize.  Diagnostic only; actual tables are built lazily."""
    val = 3**m_i * (2 * ell + 2) ** n_i * 5**n_i * (ell + 2) ** n_i
    return val if val < sys.maxsize else sys.maxsize


class StateTable:
    """Map from BagState to (origin count, back-reference); keeps the
    cheapest entry per state and never holds an invalid state."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[BagState, tuple[int, tuple]] = {}

    def offer(self, state: BagState, cost: int, back: tuple) -> None:
        cur = self.entries.get(state)
        if cur is None or cost < cur[0]:
            self.entries[state] = (cost, back)

    def __len__(self) -> int:
        return len(self.entries)


# In-progress tables get a dominance sweep whenever they grow past this
# many entries, bounding peak memory rather than just the handoff size.
PRUNE_TRIGGER = 200_000


def _prune_dominated(table: StateTable, ctx: BagContext, adj_mask, seen_mask: int) -> None:
    """Drop states another state renders pointless.

    Two states with the same orientation, labels, and below-in-degrees are
    compared on everything else: lower cost, lower seen-so-far maxima,
    fewer edges spent downward, and looser caps can only admit more
    completions, and the surviving state's successors dominate in turn.
    The seen maxima of nodes with unseen neighbors are exempt: they feed
    the exact-label rule when the last neighbor arrives, where unequal
    values produce different labels, not better ones.
    """
    if len(table.entries) < 2:
        return
    is_open = [bool(adj_mask[v] & ~seen_mask) for v in ctx.nodes]
    buckets: dict[tuple, list[tuple]] = {}
    for state, (cost, _) in table.entries.items():
        key = (
            state.edge_state,
            state.node_label,
            state.in_from_below,
            tuple(b for b, o in zip(state.below_max, is_open) if o),
        )
        # Negate caps so that smaller-is-better holds on every axis.
        vec = (
            cost,
            *(-c for c in state.pending_cap),
            *state.out_to_below,
            *(b for b, o in zip(state.below_max, is_open) if not o),
        )
        buckets.setdefault(key, []).append((vec, state))
    dead: list[BagState] = []
    for group in buckets.values():
        if len(group) < 2:
            continue
        # Componentwise <= with any difference implies lexicographically <,
        # so once sorted a state only needs checking against earlier keeps.
        group.sort(key=lambda t: t[0])
        kept: list[tuple] = []
        for vec, state in group:
            for kvec, _ in kept:
                if all(a <= b for a, b in zip(kvec, vec)):
                    dead.append(state)
                    break
            else:
                kept.append((vec, state))
    for state in dead:
        del table.entries[state]


def _greedy_upper_bound(
    g: Graph, targets: frozenset[int], ell: int
) -> tuple[int, frozenset[int]]:
    """A feasible solution found greedily, with its size; prunes DP states.

    Each step adds the node whose addition observes the most targets,
    the lowest id among equals.
    """
    closed = g.closed_masks()
    tmask = 0
    for v in targets:
        tmask |= 1 << v
    chosen = 0
    base = 0  # union of the chosen nodes' closed neighborhoods
    covered = 0
    while covered < len(targets):
        best = None
        for v in range(g.n):
            if chosen >> v & 1:
                continue
            hit = (spread(closed, base | closed[v], ell, stop=tmask) & tmask).bit_count()
            if best is None or hit > best[0]:
                best = (hit, v)
        covered, v = best
        chosen |= 1 << v
        base |= closed[v]
    return chosen.bit_count(), frozenset(v for v in range(g.n) if chosen >> v & 1)


def solve_dp(
    g: Graph,
    targets,
    ell: int,
    ntd: NiceTreeDecomposition | None = None,
    *,
    stats: dict | None = None,
) -> tuple[int, frozenset[int]]:
    """Minimum-size set observing every target within ell rounds, exactly.

    ntd defaults to the nice form of a min-fill heuristic decomposition and
    is validated against g otherwise.  ell is clamped to n-1, beyond which
    one more round can never help.  Returns (optimum, witness set).  When a
    dict is passed as stats it receives per-bag table sizes and the greedy
    upper bound, for reporting.
    """
    targets = frozenset(targets)
    if not targets <= frozenset(range(g.n)):
        raise ValueError("targets must be nodes of the graph")
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if not targets:
        return (0, frozenset())
    ell = min(ell, max(1, g.n - 1))
    if ntd is None:
        ntd = to_nice(heuristic_td(g))
    else:
        bad = validate_td(g, ntd.to_td())
        if bad is not None:
            raise ValueError(f"decomposition does not fit the graph: {bad}")

    ub, greedy_set = _greedy_upper_bound(g, targets, ell)
    if stats is not None:
        stats["upper_bound"] = ub
        stats["table_sizes"] = []
    if ub == 1:
        # Targets are nonempty, so nothing beats a singleton; the greedy
        # witness is already optimal and the table machinery can rest.
        return (1, greedy_set)
    adj_mask = [0] * g.n
    for v in range(g.n):
        for w in g.adjacency[v]:
            adj_mask[v] |= 1 << w
    # Observation times only drop as origins are added, so no node is ever
    # claimed later than under the slowest single origin; and if no single
    # origin suffices, solutions hold two or more, so the second-slowest
    # singleton time bounds the claim too.  Caps label values per node; on
    # dense graphs it collapses the search.
    first = [0.0] * g.n
    second = [0.0] * g.n
    lone_origin_works = False
    closed = g.closed_masks()
    for u in range(g.n):
        times = [INF] * g.n
        spread(closed, closed[u], g.n, times)
        times[u] = 0
        if not lone_origin_works:
            lone_origin_works = all(times[v] <= ell for v in targets)
        for v, t in enumerate(times):
            if t > first[v]:
                second[v] = first[v]
                first[v] = t
            elif t > second[v]:
                second[v] = t
    val_bound = first if (lone_origin_works or g.n < 2) else second
    eb = [int(min(b, ell)) for b in val_bound]

    contexts = [_bag_context(g, nd.bag, targets, ell) for nd in ntd.nodes]
    seen: list[int] = [0] * len(ntd.nodes)
    tables: list[StateTable | None] = [None] * len(ntd.nodes)
    for i in _post_order(ntd):
        nd = ntd.nodes[i]
        mask = 0
        for v in nd.bag:
            mask |= 1 << v
        for c in nd.children:
            mask |= seen[c]
        seen[i] = mask
        if nd.kind == "leaf":
            tables[i] = _leaf_table(contexts[i], ub, adj_mask, mask, eb)
        elif nd.kind == "insert":
            tables[i] = _insert_table(
                g, contexts[i], contexts[nd.children[0]], tables[nd.children[0]],
                nd.node, ub, adj_mask, mask, eb,
            )
        elif nd.kind == "forget":
            tables[i] = _forget_table(
                contexts[i], contexts[nd.children[0]], tables[nd.children[0]],
                nd.node,
            )
        else:
            tables[i] = _join_table(
                contexts[i], tables[nd.children[0]], tables[nd.children[1]],
                ub, adj_mask, mask,
            )
        _prune_dominated(tables[i], contexts[i], adj_mask, mask)
        if stats is not None:
            stats["table_sizes"].append(len(tables[i].entries))

    root_table = tables[ntd.root]
    best = None
    for state, (cost, _) in root_table.entries.items():
        if any(hat for _, hat in state.node_label):
            continue
        if best is None or (cost, state) < best:
            best = (cost, state)
    if best is None:
        raise RuntimeError("no feasible root state; this is an internal error")
    opt, root_state = best
    witness = frozenset(_reconstruct(ntd, tables, contexts, root_state))
    if len(witness) != opt or not is_feasible(g, witness, targets, ell):
        raise RuntimeError("witness reconstruction failed; this is an internal error")
    return (opt, witness)


def _post_order(ntd: NiceTreeDecomposition) -> list[int]:
    out: list[int] = []
    stack: list[tuple[int, bool]] = [(ntd.root, False)]
    while stack:
        i, expanded = stack.pop()
        if expanded:
            out.append(i)
        else:
            stack.append((i, True))
            for c in ntd.nodes[i].children:
                stack.append((c, False))
    return out


def _leaf_table(ctx: BagContext, ub: int, adj_mask, seen_mask: int, eb) -> StateTable:
    table = StateTable()
    if not ctx.nodes:
        table.offer(BagState((), (), (), (), (), ()), 0, ("L",))
        return table
    v = ctx.nodes[0]
    options: list[tuple[tuple[float, int], int]] = [((0, 0), 1)]
    if v not in ctx.targets:
        options.append(((INF, 0), 0))
    if adj_mask[v] & ~seen_mask:
        # A hat is a promise that a justifying neighbor appears later.
        for a in range(1, eb[v] + 1):
            options.append(((a, 1), 0))
    for label, cost in options:
        if cost <= ub:
            table.offer(
                BagState((), (label,), (0,), (0,), (0,), (NO_CAP,)), cost, ("L",)
            )
    return table


def _insert_table(
    g: Graph,
    ctx: BagContext,
    child_ctx: BagContext,
    child: StateTable,
    x: int,
    ub: int,
    adj_mask,
    seen_mask: int,
    eb,
) -> StateTable:
    table = StateTable()
    old_pos = child_ctx.pos
    old_nodes = child_ctx.nodes
    bag_nbrs = tuple(v for v in ctx.nodes if v != x and g.has_edge(x, v))
    nbr_pos = tuple(old_pos[v] for v in bag_nbrs)
    # Parent edge list interleaves the child's edges with x's new ones;
    # precompute where each parent edge-state entry comes from.
    edge_src: list[tuple[str, int]] = []
    for u, v in ctx.edges:
        if u == x or v == x:
            other = v if u == x else u
            code_in = EDGE_FWD if other < x else EDGE_REV  # the neighbor -> x
            code_out = EDGE_FWD if x < other else EDGE_REV  # x -> the neighbor
            edge_src.append(("x", other, code_in, code_out))
        else:
            edge_src.append(("old", child_ctx.edges.index((u, v)), 0, 0))
    # Child directed edges whose tail will neighbor x: x's label joins those
    # tails' neighborhoods, so the heads' deadlines cap it.
    nbr_child_pos = frozenset(nbr_pos)
    tail_watch = [
        (k, pu, pv)
        for k, (pu, pv) in enumerate(child_ctx.edge_pos)
        if pu in nbr_child_pos or pv in nbr_child_pos
    ]
    x_has_future = bool(adj_mask[x] & ~seen_mask)
    # Hatted neighbors of x that run out of potential justifiers once x is
    # placed must be resolved by x itself.
    dying = tuple(
        v for v in bag_nbrs if adj_mask[v] & ~seen_mask == 0
    )
    none_opts_base: list[tuple[float, int]] = [(0, 0)]
    if x not in ctx.targets:
        none_opts_base.append((INF, 0))
    if x_has_future:
        none_opts_base.extend((a, 1) for a in range(1, eb[x] + 1))
    x_at = ctx.pos[x]
    x_hi = eb[x]
    trigger = PRUNE_TRIGGER

    for cstate, (ccost, _) in child.entries.items():
        if len(table.entries) > trigger:
            _prune_dominated(table, ctx, adj_mask, seen_mask)
            trigger = max(PRUNE_TRIGGER, 2 * len(table.entries))
        clabel = cstate.node_label
        ccaps = cstate.pending_cap
        # Tightest bound x's label must respect from caps and in-bag heads.
        eff_cap = NO_CAP
        for p in nbr_pos:
            if ccaps[p] < eff_cap:
                eff_cap = ccaps[p]
        ces = cstate.edge_state
        for k, pu, pv in tail_watch:
            e = ces[k]
            if e == EDGE_NONE:
                continue
            pt, ph = (pu, pv) if e == EDGE_FWD else (pv, pu)
            if pt in nbr_child_pos:
                hv = clabel[ph][0]
                if hv > 1 and hv - 1 < eff_cap:
                    eff_cap = hv - 1
        hatted_nbrs = tuple(v for v, p in zip(bag_nbrs, nbr_pos) if clabel[p][1])
        dying_hatted = tuple(v for v in dying if clabel[old_pos[v]][1])
        in_choices: list[int | None] = [None]
        in_choices.extend(
            v for v, p in zip(bag_nbrs, nbr_pos) if clabel[p][0] != INF
        )
        for u_in in in_choices:
            if u_in is None:
                label_opts = none_opts_base
            else:
                up = old_pos[u_in]
                uval = clabel[up][0]
                if uval == 0:
                    label_opts = [(1, 0)]
                else:
                    # Justifying x at time b needs b >= 1 + (everything the
                    # tail has seen); exactly that once nothing is left.
                    bound = cstate.below_max[up]
                    if uval > bound:
                        bound = uval
                    for pw in child_ctx.adj_pos[up]:
                        if clabel[pw][0] > bound:
                            bound = clabel[pw][0]
                    lo = max(2, 1 + bound)
                    if lo > x_hi:
                        continue
                    lo = int(lo)
                    if adj_mask[u_in] & ~seen_mask == 0:
                        label_opts = [(lo, 0)]
                    else:
                        label_opts = [(b, 0) for b in range(lo, x_hi + 1)]
            for lab in label_opts:
                if lab[0] > eff_cap:
                    continue
                cost = ccost + (1 if lab == (0, 0) else 0)
                if cost > ub:
                    continue
                for rset in _resolution_sets(
                    cstate, old_pos, lab, bag_nbrs, hatted_nbrs, u_in
                ):
                    if any(v not in rset for v in dying_hatted):
                        continue
                    state = _build_insert_state(
                        ctx, cstate, old_pos, x, x_at, lab, u_in, rset, edge_src
                    )
                    table.offer(state, cost, ("I", cstate))
    return table


def _resolution_sets(cstate, old_pos, lab, bag_nbrs, hatted_nbrs, u_in):
    """Subsets of hatted bag neighbors whose justification x provides now."""
    viable = []
    for v in hatted_nbrs:
        if v == u_in:
            continue
        b = cstate.node_label[old_pos[v]][0]
        if b == 1:
            if lab == (0, 0):
                viable.append(v)
            continue
        # x justifies v at time b: everything else around x must fit b - 1.
        bound = lab[0]
        for w in bag_nbrs:
            if w != v and cstate.node_label[old_pos[w]][0] > bound:
                bound = cstate.node_label[old_pos[w]][0]
        if b >= 1 + bound:
            viable.append(v)
    sets: list[frozenset[int]] = [frozenset()]
    for v in viable:
        sets.extend(s | {v} for s in list(sets))
    return sets


def _build_insert_state(ctx, cstate, old_pos, x, x_at, lab, u_in, rset, edge_src):
    labels = []
    s_in = []
    s_out = []
    s_y = []
    caps = []
    for v in ctx.nodes:
        if v == x:
            labels.append(lab)
            s_in.append(0)
            s_out.append(0)
            s_y.append(0)
            caps.append(NO_CAP)
        else:
            i = old_pos[v]
            lv = cstate.node_label[i]
            if v in rset:
                lv = (lv[0], 0)
            labels.append(lv)
            s_in.append(cstate.in_from_below[i])
            s_out.append(cstate.out_to_below[i])
            s_y.append(cstate.below_max[i])
            caps.append(cstate.pending_cap[i])
    edges = []
    for kind, ref, code_in, code_out in edge_src:
        if kind == "old":
            edges.append(cstate.edge_state[ref])
        elif u_in == ref:
            edges.append(code_in)
        elif ref in rset:
            edges.append(code_out)
        else:
            edges.append(EDGE_NONE)
    return BagState(
        tuple(edges), tuple(labels), tuple(s_in), tuple(s_out), tuple(s_y), tuple(caps)
    )


def _forget_table(
    ctx: BagContext,
    child_ctx: BagContext,
    child: StateTable,
    x: int,
) -> StateTable:
    table = StateTable()
    xi = child_ctx.pos[x]
    keep = [i for i, v in enumerate(child_ctx.nodes) if v != x]
    # x's bag edges: (child edge index, parent position of the other
    # endpoint, child position of it, the code meaning "directed into x").
    x_edges = []
    for k, (u, v) in enumerate(child_ctx.edges):
        if u == x:
            x_edges.append((k, ctx.pos[v], child_ctx.pos[v], EDGE_REV))
        elif v == x:
            x_edges.append((k, ctx.pos[u], child_ctx.pos[u], EDGE_FWD))
    nbr_child_pos = {p for _, _, p, _ in x_edges}
    old_idx = [child_ctx.edges.index(e) for e in ctx.edges]
    # Surviving edges whose tail could be a neighbor of x: their heads'
    # deadlines must clear the raised below-maximum.
    watch = [
        (k, pu, pv)
        for k, (pu, pv) in ((k, child_ctx.edge_pos[k]) for k in old_idx)
        if pu in nbr_child_pos or pv in nbr_child_pos
    ]
    for cstate, (ccost, _) in child.entries.items():
        lx, hx = cstate.node_label[xi]
        if hx:
            continue  # justification can no longer arrive
        s_in = [cstate.in_from_below[i] for i in keep]
        s_out = [cstate.out_to_below[i] for i in keep]
        s_y = [cstate.below_max[i] for i in keep]
        caps = [cstate.pending_cap[i] for i in keep]
        ok = True
        for k, j, _, into_x_code in x_edges:
            e = cstate.edge_state[k]
            if e != EDGE_NONE:
                if e == into_x_code:
                    s_out[j] = min(2, s_out[j] + 1)
                    # For heads past round 1, the deadline binds the tail's
                    # future neighbors, which the in-bag timing rule cannot
                    # see.  A round-1 head needs an origin tail instead, and
                    # origins observe their neighborhoods unconditionally.
                    if lx >= 2 and lx - 1 < caps[j]:
                        caps[j] = lx - 1
                else:
                    s_in[j] += 1
                    if s_in[j] > 1:
                        ok = False
                        break
            if s_y[j] < lx:
                s_y[j] = lx
        if ok and lx >= 1:
            # x now counts toward its neighbors' below-maxima; heads fed by
            # those neighbors must still clear 1 + lx.
            clabel = cstate.node_label
            for k, pu, pv in watch:
                e = cstate.edge_state[k]
                if e == EDGE_NONE:
                    continue
                pt, ph = (pu, pv) if e == EDGE_FWD else (pv, pu)
                if pt in nbr_child_pos:
                    hv = clabel[ph][0]
                    if hv > 1 and hv < 1 + lx:
                        ok = False
                        break
        if not ok:
            continue
        state = BagState(
            tuple(cstate.edge_state[k] for k in old_idx),
            tuple(cstate.node_label[i] for i in keep),
            tuple(s_in),
            tuple(s_out),
            tuple(s_y),
            tuple(caps),
        )
        table.offer(state, ccost, ("F", cstate))
    return table


def _join_table(
    ctx: BagContext,
    left: StateTable,
    right: StateTable,
    ub: int,
    adj_mask,
    seen_mask: int,
) -> StateTable:
    table = StateTable()
    n = len(ctx.nodes)
    future = tuple(adj_mask[v] & ~seen_mask for v in ctx.nodes)
    rng = range(n)
    # Bits where no unseen neighbor remains; a hat surviving the join on one
    # of these nodes could never be resolved.
    nofuture = 0
    for i in rng:
        if not future[i]:
            nofuture |= 1 << i
    # Pre-extract per-state fields so the pair loop touches plain tuples.
    buckets: dict[tuple, list[tuple]] = {}
    for s, (rcost, _) in right.entries.items():
        key = (s.edge_state, tuple(val for val, _ in s.node_label))
        r_in = 0
        r_hat = 0
        for i in rng:
            if s.in_from_below[i]:
                r_in |= 1 << i
            if s.node_label[i][1]:
                r_hat |= 1 << i
        buckets.setdefault(key, []).append((
            s, rcost, r_in, r_hat,
            s.in_from_below, s.below_max, s.pending_cap, s.out_to_below,
        ))
    trigger = PRUNE_TRIGGER
    for ls, (lcost, _) in left.entries.items():
        if len(table.entries) > trigger:
            _prune_dominated(table, ctx, adj_mask, seen_mask)
            trigger = max(PRUNE_TRIGGER, 2 * len(table.entries))
        l_label = ls.node_label
        key = (ls.edge_state, tuple(val for val, _ in l_label))
        group = buckets.get(key)
        if not group:
            continue
        zeros = sum(1 for lab in l_label if lab == (0, 0))
        budget = ub - lcost + zeros
        l_in_t = ls.in_from_below
        l_bm = ls.below_max
        l_cap = ls.pending_cap
        l_out = ls.out_to_below
        l_in = 0
        l_hat = 0
        for i in rng:
            if l_in_t[i]:
                l_in |= 1 << i
            if l_label[i][1]:
                l_hat |= 1 << i
        for rs, rcost, r_in, r_hat, r_in_t, r_bm, r_cap, r_out in group:
            if rcost > budget:
                continue
            # Each copy of an edge to a forgotten justifier counts once only.
            if l_in & r_in:
                continue
            hats = l_hat & r_hat
            if hats & nofuture:
                continue
            ok = True
            for i in rng:
                # What one side buried below must fit the other side's caps.
                if l_bm[i] > r_cap[i] or r_bm[i] > l_cap[i]:
                    ok = False
                    break
            if not ok:
                continue
            state = BagState(
                ls.edge_state,
                tuple(
                    lab if (hats >> i) & 1 == lab[1] else (lab[0], 0)
                    for i, lab in enumerate(l_label)
                ),
                tuple(a | b for a, b in zip(l_in_t, r_in_t)),
                tuple(min(2, a + b) for a, b in zip(l_out, r_out)),
                tuple(a if a >= b else b for a, b in zip(l_bm, r_bm)),
                tuple(a if a <= b else b for a, b in zip(l_cap, r_cap)),
            )
            table.offer(state, lcost + rcost - zeros, ("J", ls, rs))
    return table


def _reconstruct(ntd, tables, contexts, root_state) -> set[int]:
    witness: set[int] = set()
    stack = [(ntd.root, root_state)]
    while stack:
        i, state = stack.pop()
        nd = ntd.nodes[i]
        back = tables[i].entries[state][1]
        if back[0] == "L":
            for v, lab in zip(contexts[i].nodes, state.node_label):
                if lab == (0, 0):
                    witness.add(v)
        elif back[0] == "I":
            if state.node_label[contexts[i].pos[nd.node]] == (0, 0):
                witness.add(nd.node)
            stack.append((nd.children[0], back[1]))
        elif back[0] == "F":
            stack.append((nd.children[0], back[1]))
        else:
            stack.append((nd.children[0], back[1]))
            stack.append((nd.children[1], back[2]))
    return witness
