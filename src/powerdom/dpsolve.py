"""Exact generalized round-limited power domination by dynamic programming
over a nice tree decomposition.

States describe, per bag: the orientation of bag-internal edges, a time label
per bag node (plain = justified, hatted = justification still owed,
UNOBSERVED = never observed), counters of directed edges into/out of the
forgotten region, the maximum label among a node's forgotten neighbors, and a
cap on the labels of a node's not-yet-seen neighbors.  The cap field closes a
timing leak: when the head of a directed edge leaves the bags before the
tail's remaining neighbors have appeared, those future neighbors must still
fit under the head's deadline, so the tail carries the bound forward.

A state is one flat tuple of ints.  With E sorted bag edges and N sorted bag
nodes it reads

    (*edge codes, *labels, *below-maxima, *negated caps, hat, in, out1, out2)

where the last four are bitmasks over bag positions: hatted labels, nodes
with a directed edge in from the forgotten region, and nodes with at least
one / at least two directed edges out into it.  Caps are stored negated, so
every per-node field merges by max at a join and is smaller-is-better under
dominance.  A table is a plain dict from state to (cost, back); back indexes
the child tables in their final, pruned order, so a child's states can be
dropped as soon as its parent's table is built.  Leaves and the root have
empty bags, so a leaf's table is the empty bag's one state and the root's is
that state at the optimum's cost: a forget drops every state in which the
forgotten node is still hatted.

Tables are built only when they can pay.  solve_dp first holds a feasible
set of size ub, the sweep's below, and a lower bound lb; at ub == lb the
sweep's set is optimal.  Otherwise it tries the sets below ub outright,
sizes downward from ub - 1 but none below 2 (the sweep settles a lone
origin, see below), keeping the lexicographically first set of each size
that observes every target.  Spreading is monotone in the origin set, so
once no set of some size works, none of a smaller size does, and the last
size that worked is optimal; a set of size lb is optimal too and ends the
search.  A size above the optimum ends at an early set that works.
The size below it has no set that works, and the search cuts it by
distance (see bruteforce.first_cover): a target observed within ell
rounds lies within distance ell of an origin, so a set is spread only when
the targets within distance ell of its nodes are all of them, and a branch
of the walk is cut as soon as its nodes and every later node in the order
together leave a target out of reach.  The cut drops only sets that cannot
work, so each size keeps the same first set.  How many sets the cut leaves
is not known before the walk, and a count of all the sets predicts it
badly, so the search runs on a budget, SEARCH_BUDGET, shared by its sizes
and counted in the full-size sets the walk reaches, each spread charged
more.  Only when the budget runs out are the tables built, keeping states
below the smallest set found so far.

The same distance argument gives the lower bound.  Targets pairwise more
than 2 * ell apart each need an origin of their own, so a packing of them,
taken per component from the deepest BFS layer below the component's
lowest id up, bounds the optimum from below by its size lb.  On a tree with
every node a target this packing is a largest one, as large as a smallest
distance-ell dominating set (Meir and Moon 1975), which on paths is the
optimum.  Their deepest-first rule gives the incumbent: a sweep in the same
order gives the first target t still unobserved the candidate that, added
to those chosen, observes t and the most targets.  One always exists, the
candidate whose closed neighborhood contains t's.  Only candidates within
distance 2 * ell - 1 of t can observe it: given the origins already
chosen, a new origin changes what round r observes only within distance
2r - 1 of itself.  Round 1 changes its closed neighborhood, and a node
forced in a later round by a neighbor u changes only if u or another
neighbor of u changed in the round before, so each round moves the change
at most two hops.  The sweep weighs only those candidates, and its pick is
the one over all of them.  So a lone candidate observing every target,
which observes the first target, would be the sweep's first pick, and
ub == 1: at ub >= 2 no lone origin works.

Only some nodes are offered as origins.  An origin's one effect is to
observe its closed neighborhood in round 1, and every later round depends
only on what is observed so far, so spreading is monotone in the union of
the origins' closed neighborhoods.  If N[u] is contained in N[v], swapping
origin u for v therefore never loses a target, and u is dropped; of two
equal closed neighborhoods the lower id is kept.  Containment puts u in N[v],
so only u's neighbors need checking, and following drops from node to node
ends at a kept node, since each step grows the neighborhood or lowers the
id.  Any solution thus maps onto the kept nodes, the candidates, at no
greater size, and the subset search, the label bounds and the insert
transitions all range over candidates only.  On a pendant cycle every
pendant leaf is dropped.

Transitions generate only states that pass is_invalid_state.  They enforce
the clauses by construction plus targeted rechecks of whatever each step can
newly disturb, rather than re-running the full predicate per candidate; the
test suite audits stored tables against the predicate on small instances.
"""

from __future__ import annotations

from math import inf as INF
from operator import itemgetter, le

from powerdom.bruteforce import Budget, BudgetSpent, first_cover
from powerdom.graphs import Graph, ball
from powerdom.propagation import is_feasible, propagate, spread
from powerdom.treedecomp import (NiceTreeDecomposition, TreeDecomposition, heuristic_td,
                                 to_nice, validate_td)

# Edge orientation codes, per sorted bag edge (u, v) with u < v.
EDGE_NONE = 0
EDGE_FWD = 1  # u -> v
EDGE_REV = 2  # v -> u

# Label of a node that is never observed; above every round number.  An
# absent cap admits every label, this one included.
UNOBSERVED = 1 << 30
NO_CAP = UNOBSERVED

# The work solve_dp's subset search may do before it builds tables, in
# full-size sets reached (see bruteforce.first_cover).
SEARCH_BUDGET = 50_000


class BagContext:
    """Static facts of one nice node: its bag's nodes, sorted, and induced
    edges, the bag's targets, index-based mirrors for fast checks, and
    `open`, the mask of bag positions whose node has a neighbor outside
    `seen`, the nodes of the bags at or below this one."""

    __slots__ = ("nodes", "edges", "targets", "pos", "edge_pos", "adj_pos", "open")

    def __init__(self, g: Graph, bag, targets: frozenset[int], seen: int):
        self.nodes = nodes = tuple(sorted(bag))
        self.edges = tuple(
            (u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :] if g.has_edge(u, v)
        )
        self.targets = targets.intersection(nodes)
        self.pos = pos = {v: i for i, v in enumerate(nodes)}
        self.edge_pos = tuple((pos[u], pos[v]) for u, v in self.edges)
        adj: list[list[int]] = [[] for _ in nodes]
        for pu, pv in self.edge_pos:
            adj[pu].append(pv)
            adj[pv].append(pu)
        self.adj_pos = tuple(map(tuple, adj))
        closed = g.closed_masks()
        self.open = sum(1 << i for i, v in enumerate(nodes) if closed[v] & ~seen)


def _picker(positions):
    """Like itemgetter(*positions), but always returning a tuple."""
    if len(positions) == 1:
        p = positions[0]
        return lambda s: (s[p],)
    if not positions:
        return lambda s: ()
    return itemgetter(*positions)


def is_invalid_state(ctx: BagContext, s: tuple) -> bool:
    """True iff the state violates a timed-orientation property locally or
    provably cannot extend to one that satisfies them all."""
    n = len(ctx.nodes)
    m = len(ctx.edges)
    if len(s) != m + 3 * n + 4:
        return True
    labels = s[m : m + n]
    below_max = s[m + n : m + 2 * n]
    caps = [-c for c in s[m + 2 * n : m + 3 * n]]
    hat, in_below, out1, out2 = s[-4:]
    if out2 & ~out1 or (hat | in_below | out1) >> n:
        return True  # masks that encode no degree pattern
    d_in = [0] * n
    d_out = [0] * n
    for (pu, pv), e in zip(ctx.edge_pos, s):
        if e == EDGE_FWD:
            d_out[pu] += 1
            d_in[pv] += 1
        elif e == EDGE_REV:
            d_out[pv] += 1
            d_in[pu] += 1
    for i in range(n):
        val = labels[i]
        from_below = in_below >> i & 1
        to_below = (out1 >> i & 1) + (out2 >> i & 1)
        incoming = d_in[i] + from_below
        if val == UNOBSERVED:
            if ctx.nodes[i] in ctx.targets:
                return True  # targets must be observed
            if incoming + d_out[i] + to_below >= 1:
                return True  # unobserved nodes touch no directed edge
        elif val == 0:
            if incoming >= 1:
                return True  # origins are not propagated to
        else:
            if incoming > 1:
                return True  # at most one justifying edge
            if hat >> i & 1 and incoming != 0:
                return True  # hatted means justification still owed
            if not hat >> i & 1 and incoming == 0:
                return True  # plain labels must already be justified
        if from_below and to_below == 2:
            return True
    # Timing on directed bag edges: the head's label may not undercut what
    # the tail's neighborhood, as far as it has been seen, already forces.
    for (pu, pv), e in zip(ctx.edge_pos, s):
        if e == EDGE_NONE:
            continue
        pt, ph = (pu, pv) if e == EDGE_FWD else (pv, pu)
        hv = labels[ph]
        tv = labels[pt]
        if hv == 1:
            if tv != 0:
                return True
        elif hv > 1:
            bound = max(below_max[pt], tv)
            for pw in ctx.adj_pos[pt]:
                if pw != ph and labels[pw] > bound:
                    bound = labels[pw]
            if hv < 1 + bound:
                return True
    # Pending caps: each bag node must fit under its bag neighbors' caps.
    for pu, pv in ctx.edge_pos:
        if labels[pu] > caps[pv] or labels[pv] > caps[pu]:
            return True
    return False


# In-progress tables get a dominance sweep whenever they grow past this
# many entries, bounding peak memory rather than just the handoff size.
PRUNE_TRIGGER = 200_000


def _prune_dominated(table: dict, ctx: BagContext) -> None:
    """Drop states another state renders pointless.

    Two states with the same orientation, labels, and below-in-degrees are
    compared on everything else: lower cost, lower seen-so-far maxima,
    fewer edges spent downward, and looser caps can only admit more
    completions, and the surviving state's successors dominate in turn.
    The seen maxima of nodes with unseen neighbors are exempt: they feed
    the exact-label rule when the last neighbor arrives, where unequal
    values produce different labels, not better ones.
    """
    if len(table) < 2:
        return
    m, n = len(ctx.edges), len(ctx.nodes)
    key_of = _picker([
        *range(m + n),
        *(m + n + i for i in range(n) if ctx.open >> i & 1),
        m + 3 * n,  # hat
        m + 3 * n + 1,  # in
    ])
    vec_of = _picker([
        *range(m + 2 * n, m + 3 * n),  # negated caps
        *(m + n + i for i in range(n) if not ctx.open >> i & 1),
    ])
    keys = list(map(key_of, table))
    if len(set(keys)) == len(keys):
        return  # no two states share a key, so none is compared
    buckets: dict[tuple, list] = {}
    for key, state in zip(keys, table):
        buckets.setdefault(key, []).append(state)
    dead: list[tuple] = []
    for group in buckets.values():
        if len(group) < 2:
            continue
        ranked = []
        for state in group:
            out1, out2 = state[-2:]
            vec = (table[state][0], *vec_of(state), out1.bit_count() + out2.bit_count())
            ranked.append((vec, out1, out2, state))
        # Componentwise <= with any difference implies a smaller vector in
        # lexicographic order (the degree count stands for the out masks),
        # so once sorted a state only needs checking against earlier keeps.
        ranked.sort(key=itemgetter(0))
        kept: list[tuple] = []
        for vec, out1, out2, state in ranked:
            for kvec, k1, k2 in kept:
                if not (k1 & ~out1 or k2 & ~out2) and all(map(le, kvec, vec)):
                    dead.append(state)
                    break
            else:
                kept.append((vec, out1, out2))
    for state in dead:
        del table[state]


def _deepest_first(g: Graph, tmask: int) -> list[int]:
    """The nodes of tmask, component by component in order of their lowest
    id, each component's from the deepest BFS layer below that id up, the
    lowest id first within a layer."""
    closed = g.closed_masks()
    order: list[int] = []
    seen = 0
    for s in range(g.n):
        if seen >> s & 1:
            continue
        layers = [1 << s]
        reached = 1 << s
        while front := ball(closed, layers[-1], 1) & ~reached:
            reached |= front
            layers.append(front)
        seen |= reached
        for layer in reversed(layers):
            layer &= tmask
            while layer:
                low = layer & -layer
                layer ^= low
                order.append(low.bit_length() - 1)
    return order


def _packing_bound(g: Graph, order: list[int], ell: int) -> int:
    """A lower bound on the optimum: the size of a set of targets pairwise
    more than 2 * ell apart, taken in order, the targets deepest first (see
    the module docstring)."""
    closed = g.closed_masks()
    size = 0
    blocked = 0
    for t in order:
        if not blocked >> t & 1:
            size += 1
            blocked |= ball(closed, 1 << t, 2 * ell)
    return size


def _sweep(g: Graph, order: list[int], tmask: int, ell: int, origins: int) -> frozenset[int]:
    """A feasible set of candidates, the nodes of the mask origins.  The
    first target t of order left unobserved gets the candidate that, added
    to those chosen, observes t and the most targets, the lowest id among
    equals.  Only candidates within distance 2 * ell - 1 of t can observe
    it (see the module docstring).  Each candidate re-runs the chosen
    set's run only where its extra origin reaches, and the pick's run is
    the next base."""
    closed = g.closed_masks()
    chosen: list[int] = []
    rounds = [0]  # the chosen set's run, round by round
    for t in order:
        if rounds[-1] >> t & 1:
            continue
        pool = ball(closed, 1 << t, 2 * ell - 1) & origins
        top = -1
        while pool:
            low = pool & -pool
            pool ^= low
            v = low.bit_length() - 1
            run = list(spread(closed, rounds[0] | closed[v], ell, rounds))
            hit = (run[-1] & tmask).bit_count()
            if hit > top and run[-1] >> t & 1:
                top, best, picked = hit, v, run
        chosen.append(best)
        rounds = picked
    return frozenset(chosen)


def _origins(g: Graph) -> int:
    """Mask of the candidate origins: the nodes whose closed neighborhood
    no neighbor's closed neighborhood contains, the lowest id of equal ones
    kept (see the module docstring)."""
    closed = g.closed_masks()
    keep = 0
    for u, cu in enumerate(closed):
        for v in g.adjacency[u]:
            cv = closed[v]
            if not cu & ~cv and (cu != cv or v < u):
                break
        else:
            keep |= 1 << u
    return keep


def _label_bounds(g: Graph, ell: int, origins: int, targets: frozenset[int]) -> list[int]:
    """Per node, the highest label a state needs to give it when only the
    candidates, the nodes of the mask origins, may be origins.

    Spreading never leaves a component, so an optimal set within the
    candidates solves each component apart.  A component without targets
    needs no origin and no label above 0.  Where some lone candidate of a
    component observes all of the component's targets within ell rounds,
    one such candidate is the optimal set's only origin there, and labels
    follow its run: the bound is the slowest time any of them observes a
    node at, since a node one of them leaves unobserved is no target and
    may stay UNOBSERVED.  Elsewhere the optimal set holds two or more of
    the component's candidates, and observation times only drop as origins
    are added, so no node is ever claimed later than under its
    second-slowest singleton run among them.  Bounds clamp at ell, so each
    singleton run stops after ell rounds: a node it leaves unobserved is
    bounded by ell either way.  On a connected graph at ub > 2 only this
    last case occurs.  On dense graphs this collapses the search.
    """
    closed = g.closed_masks()
    tmask = 0
    for v in targets:
        tmask |= 1 << v
    comps: list[tuple[int, list[int]] | None] = [None] * g.n
    for s in range(g.n):
        if comps[s] is None:
            mask = ball(closed, 1 << s, g.n)
            comp = (mask, [v for v in range(s, g.n) if mask >> v & 1])
            for v in comp[1]:
                comps[v] = comp
    first = [0.0] * g.n
    second = [0.0] * g.n
    lone = [0] * g.n  # slowest observed time under a lone candidate that suffices
    alone = 0  # the components where a lone candidate observes every target
    for u in range(g.n):
        mask, nodes = comps[u]
        if not origins >> u & 1 or not tmask & mask:
            continue
        times = propagate(g, (u,), ell).times
        if all(times[v] < INF for v in nodes if tmask >> v & 1):
            alone |= mask
            for v in nodes:
                if lone[v] < times[v] < INF:
                    lone[v] = times[v]
        for v in nodes:
            t = times[v]
            if t > first[v]:
                second[v] = first[v]
                first[v] = t
            elif t > second[v]:
                second[v] = t
    return [lone[v] if alone >> v & 1 else int(min(second[v], ell)) for v in range(g.n)]


def solve_dp(
    g: Graph,
    targets,
    ell: int,
    td: TreeDecomposition | None = None,
    *,
    stats: dict | None = None,
) -> tuple[int, frozenset[int]]:
    """Minimum-size set observing every target within ell rounds, exactly.

    td defaults to a min-fill heuristic decomposition.  A passed one is
    always validated against g first, a misfit refused with a ValueError.
    Either is built or put in nice form only when tables are built.  ell is
    clamped to n-1, beyond which one more round can never help.  Returns
    (optimum, witness set); the witness is the incumbent, the sweep's set,
    when nothing smaller exists.  A dict passed as stats receives the
    packing lower bound, the upper bound (the size of the sweep's set),
    the number of candidate origins, the full-size sets the subset search
    reached over all its sizes (ub - 1 down to lb, none below 2), and
    per-nice-node table sizes, in post order, an empty list when no tables
    were built.  Passing stats changes none of the solve's steps.
    """
    targets = frozenset(targets)
    if not targets <= frozenset(range(g.n)):
        raise ValueError("targets must be nodes of the graph")
    if ell < 1:
        raise ValueError("ell must be at least 1")
    ell = min(ell, max(1, g.n - 1))
    if td is not None:
        bad = validate_td(g, td)
        if bad is not None:
            raise ValueError(f"decomposition does not fit the graph: {bad}")

    tmask = 0
    for v in targets:
        tmask |= 1 << v
    origins = _origins(g)
    order = _deepest_first(g, tmask)
    lb = _packing_bound(g, order, ell)
    witness = _sweep(g, order, tmask, ell, origins)
    ub = opt = len(witness)
    cands = [v for v in range(g.n) if origins >> v & 1]
    sizes: list[int] = []
    budget = Budget(SEARCH_BUDGET)
    # The sweep's set is optimal at ub == lb.  Otherwise the sets below it
    # are tried outright, the largest first, none smaller than lb or 2 (a
    # lone origin would have been the sweep's first pick), and the tables
    # are built only when the search runs out of budget.  They search only
    # below the smallest set found, since a state's cost never falls
    # towards the root.
    spent = False
    try:
        for size in range(ub - 1, max(lb, 2) - 1, -1):
            found = first_cover(g.closed_masks(), size, tmask, ell, cands, budget)
            if found is None:
                break
            opt, witness = size, found
    except BudgetSpent:
        spent = True
    if spent:
        ntd = to_nice(td or heuristic_td(g))
        eb = _label_bounds(g, ell, origins, targets)
        # Each table is replaced by its back-references once built; the
        # states live on only until the parent's table is done.
        backs: list[list | None] = [None] * len(ntd.nodes)
        for i, table, _ in _tables(g, ntd, targets, opt - 1, eb, origins):
            backs[i] = [back for _, back in table.values()]
            sizes.append(len(table))
        # The root's bag is empty, so its table holds the one empty state
        # unless nothing fits below opt.
        if table:
            [(opt, _)] = table.values()
            witness = frozenset(_reconstruct(ntd, backs))
    if len(witness) != opt or not is_feasible(g, witness, targets, ell):
        raise RuntimeError("solution failed verification; this is an internal error")
    if stats is not None:
        stats["lower_bound"] = lb
        stats["upper_bound"] = ub
        stats["origins"] = len(cands)
        stats["table_sizes"] = sizes
        stats["search_sets"] = budget.sets
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


def _insert_may_dominate(ctx: BagContext, x: int) -> bool:
    """Can the table of inserting x into ctx's bag hold dominated states,
    given a child table that holds none?

    Only if x is the last unseen neighbor of a bag neighbor of x, whose
    below-maximum then leaves the dominance key for the compared vector.
    Otherwise a parent key and vector are the child's plus x's fields, which
    are equal whenever the keys are, so dominance carries over unchanged.
    """
    return any(not ctx.open >> p & 1 for p in ctx.adj_pos[ctx.pos[x]])


def _tables(
    g: Graph, ntd: NiceTreeDecomposition, targets: frozenset[int], bound: int, eb, origins: int
):
    """Build every nice node's pruned table bottom-up, keeping states of
    cost at most bound whose origins are in the mask origins, and yield
    (node index, table, bag context) as each is done, the root's last.  A
    leaf's table is the empty bag's one state, and so is the root's unless
    nothing fits under bound.  A child's table is released once its
    parent's is built."""
    contexts: list[BagContext | None] = [None] * len(ntd.nodes)
    seen: list[int] = [0] * len(ntd.nodes)
    tables: list[dict | None] = [None] * len(ntd.nodes)
    plans: dict = {}
    for i in _post_order(ntd):
        nd = ntd.nodes[i]
        mask = 0
        for v in nd.bag:
            mask |= 1 << v
        for c in nd.children:
            mask |= seen[c]
        seen[i] = mask
        ctx = contexts[i] = BagContext(g, nd.bag, targets, mask)
        if nd.kind == "leaf":
            table = {(0, 0, 0, 0): (0, ())}
        elif nd.kind == "insert":
            c = nd.children[0]
            table = _insert_table(
                ctx, contexts[c], tables[c], nd.node, bound, eb, origins, plans)
        elif nd.kind == "forget":
            c = nd.children[0]
            table = _forget_table(ctx, contexts[c], tables[c], nd.node)
        else:
            a, b = nd.children
            table = _join_table(ctx, tables[a], tables[b], bound)
        if nd.kind != "insert" or _insert_may_dominate(ctx, nd.node):
            _prune_dominated(table, ctx)
        for c in nd.children:
            tables[c] = None
        tables[i] = table
        yield i, table, ctx


def _insert_table(
    ctx: BagContext,
    child_ctx: BagContext,
    child: dict,
    x: int,
    bound: int,
    eb,
    origins: int,
    plans: dict,
) -> dict:
    """Back-references are (child index, 1 when x is an origin).  x may be
    an origin only when it is in the mask origins.

    A child state's outputs depend on it only through a short signature:
    the labels and hats of x's bag neighbors, the tightest cap on x's label,
    the least label each neighbor could justify x with, and whether one
    more origin fits under bound.  `plans`, which lives for one solve, maps a
    signature plus the table constants the outputs read to those outputs,
    each as (x's edge codes and fields, hats kept, x's hat, origin flag).
    Distinct outputs differ in x's fields or edge codes, and those codes
    tell which hats were cleared, so no two (state, output) pairs collide.
    """
    table: dict = {}
    cm, cn = len(child_ctx.edges), len(child_ctx.nodes)
    x_at = ctx.pos[x]
    nbrs = tuple(ctx.nodes[p] for p in ctx.adj_pos[x_at])
    d = len(nbrs)
    npos = tuple(child_ctx.pos[v] for v in nbrs)
    nbit = tuple(1 << ctx.pos[v] for v in nbrs)
    nmask = sum(nbit)
    # x's bag edges in parent order run along nbrs; codes for "the k-th
    # neighbor -> x" and "x -> the k-th neighbor".
    code_in = tuple(EDGE_FWD if v < x else EDGE_REV for v in nbrs)
    code_out = tuple(EDGE_REV if v < x else EDGE_FWD for v in nbrs)
    # A parent state is one pick from the child state followed by x's edge
    # codes and x's label, below-maximum and negated cap.
    ext = cm + 3 * cn + 4
    x_src = {}
    for k, v in enumerate(nbrs):
        x_src[(v, x) if v < x else (x, v)] = ext + k
    picks = [x_src.get(e) if x in e else child_ctx.edges.index(e) for e in ctx.edges]
    for child_at, x_field_at in ((cm, ext + d), (cm + cn, ext + d + 1), (cm + 2 * cn, ext + d + 2)):
        picks.extend(x_field_at if v == x else child_at + child_ctx.pos[v] for v in ctx.nodes)
    body_of = _picker(picks)
    nbr_labels = _picker([cm + p for p in npos])
    nbr_caps = _picker([cm + 2 * cn + p for p in npos])
    # Child directed edges whose tail will neighbor x, as (edge index, the
    # code pointing away from that tail, the head's label field): x's label
    # joins the tail's neighborhood, so the head's deadline caps it.
    nbr_child_pos = frozenset(npos)
    tail_watch = [
        (k, code, cm + ph)
        for k, (pu, pv) in enumerate(child_ctx.edge_pos)
        for code, pt, ph in ((EDGE_FWD, pu, pv), (EDGE_REV, pv, pu))
        if pt in nbr_child_pos
    ]
    # Per neighbor, what it has seen: its below-maximum, its label and its
    # bag neighbors' labels.  Justifying x at time b needs b >= 1 + all that.
    seen_of = [
        _picker([cm + cn + p, cm + p, *(cm + pw for pw in child_ctx.adj_pos[p])]) for p in npos
    ]
    x_hi = eb[x]
    x_has_future = bool(ctx.open >> x_at & 1)
    # Neighbors for which x is the last unseen neighbor: their hats must be
    # resolved by x itself, and if one justifies x, x's label is exact.
    dying = nmask & ~ctx.open
    x_origin = bool(origins >> x & 1)
    none_opts: list[tuple[int, int]] = [(0, 0)] if x_origin else []
    if x not in ctx.targets:
        none_opts.append((UNOBSERVED, 0))
    if x_has_future:
        # A hat is a promise that a justifying neighbor appears later.
        none_opts.extend((a, 1) for a in range(1, x_hi + 1))
    # The table constants of a plan key.  Everything else the outputs read
    # follows from these; x's edge codes from the positions, since bag
    # positions follow node ids.
    consts = (nmask, x_at, x_hi, x in ctx.targets, x_has_future, dying, x_origin)

    def outputs(hats, eff_cap, origin_fits, nlab, seen):
        out = []
        # Hatted neighbors x could justify now, with their labels b.  x's
        # own label must be below b (checked per label below; for b = 1 x is
        # an origin), and for b > 1 every other neighbor of x's label too.
        resolvable = [
            (k, b)
            for k, b in enumerate(nlab)
            if hats & nbit[k] and (b == 1 or all(lw < b for w, lw in enumerate(nlab) if w != k))
        ]
        for u in (-1, *(k for k in range(d) if nlab[k] != UNOBSERVED)):
            if u < 0:
                label_opts = none_opts
            elif nlab[u] == 0:
                label_opts = ((1, 0),)
            else:
                # Exactly the least label once u has nothing left to see.
                lo = max(2, 1 + seen[u])
                top = min(lo, x_hi) if dying & nbit[u] else x_hi
                label_opts = [(b, 0) for b in range(lo, top + 1)]
            for val, val_hat in label_opts:
                if val > eff_cap or (val == 0 and not origin_fits):
                    continue
                # Every set of hats x's label can clear, as parent masks.
                rsets = [0]
                for k, b in resolvable:
                    if k != u and val < b:
                        rsets.extend([r | nbit[k] for r in rsets])
                for rset in rsets:
                    if dying & hats & ~rset:
                        continue
                    codes = tuple(
                        code_in[k] if k == u else code_out[k] if rset & nbit[k] else EDGE_NONE
                        for k in range(d)
                    )
                    out.append((codes + (val, 0, -NO_CAP), ~rset, val_hat << x_at, int(val == 0)))
        return out

    low = (1 << x_at) - 1
    up = x_at + 1
    trigger = PRUNE_TRIGGER
    for ci, (cstate, (ccost, _)) in enumerate(child.items()):
        if len(table) > trigger:
            _prune_dominated(table, ctx)
            trigger = max(PRUNE_TRIGGER, 2 * len(table))
        # Tightest bound x's label must respect from caps and in-bag heads.
        eff_cap = -max(nbr_caps(cstate), default=-NO_CAP)
        for k, code, head in tail_watch:
            if cstate[k] == code:
                hv = cstate[head]
                if 1 < hv <= eff_cap:
                    eff_cap = hv - 1
        # The child's masks with a clear bit opened at x's position.
        hat, inb, out1, out2 = cstate[-4:]
        hat = hat >> x_at << up | hat & low
        inb = inb >> x_at << up | inb & low
        out1 = out1 >> x_at << up | out1 & low
        out2 = out2 >> x_at << up | out2 & low
        sig = (hat & nmask, eff_cap, ccost < bound, nbr_labels(cstate),
               tuple([max(f(cstate)) for f in seen_of]))
        plan = plans.get((consts, sig))
        if plan is None:
            plan = plans[consts, sig] = outputs(*sig)
        for tail, keep, x_hat, origin in plan:
            table[body_of(cstate + tail) + (hat & keep | x_hat, inb, out1, out2)] = (
                ccost + origin, (ci, origin))
    return table


def _forget_table(
    ctx: BagContext,
    child_ctx: BagContext,
    child: dict,
    x: int,
) -> dict:
    """Back-references are child indices."""
    table: dict = {}
    cm, cn = len(child_ctx.edges), len(child_ctx.nodes)
    xi = child_ctx.pos[x]
    keep = [i for i in range(cn) if i != xi]
    old_idx = [child_ctx.edges.index(e) for e in ctx.edges]
    head_of = _picker(old_idx + [cm + i for i in keep])
    below_of = _picker([cm + cn + i for i in keep])
    caps_of = _picker([cm + 2 * cn + i for i in keep])
    # x's bag edges: (child edge index, parent position of the other
    # endpoint, child position of it, the code meaning "directed into x").
    x_edges = []
    for k, (u, v) in enumerate(child_ctx.edges):
        if u == x:
            x_edges.append((k, ctx.pos[v], child_ctx.pos[v], EDGE_REV))
        elif v == x:
            x_edges.append((k, ctx.pos[u], child_ctx.pos[u], EDGE_FWD))
    nbr_child_pos = {p for _, _, p, _ in x_edges}
    # Surviving edges whose tail could be a neighbor of x: their heads'
    # deadlines must clear the raised below-maximum.
    watch = [
        (k, pu, pv)
        for k, (pu, pv) in ((k, child_ctx.edge_pos[k]) for k in old_idx)
        if pu in nbr_child_pos or pv in nbr_child_pos
    ]
    low = (1 << xi) - 1
    up = xi + 1
    for ci, (cstate, (ccost, _)) in enumerate(child.items()):
        hat, inb, out1, out2 = cstate[-4:]
        if hat >> xi & 1:
            continue  # justification can no longer arrive
        hat = hat >> up << xi | hat & low
        inb = inb >> up << xi | inb & low
        out1 = out1 >> up << xi | out1 & low
        out2 = out2 >> up << xi | out2 & low
        lx = cstate[cm + xi]
        below = list(below_of(cstate))
        ncaps = list(caps_of(cstate))
        ok = True
        for k, j, _, into_x_code in x_edges:
            e = cstate[k]
            if e != EDGE_NONE:
                bit = 1 << j
                if e == into_x_code:
                    out2 |= out1 & bit
                    out1 |= bit
                    # For heads past round 1, the deadline binds the tail's
                    # future neighbors, which the in-bag timing rule cannot
                    # see.  A round-1 head needs an origin tail instead, and
                    # origins observe their neighborhoods unconditionally.
                    if lx >= 2 and 1 - lx > ncaps[j]:
                        ncaps[j] = 1 - lx  # the cap lx - 1, negated
                elif inb & bit:
                    ok = False
                    break
                else:
                    inb |= bit
            if below[j] < lx:
                below[j] = lx
        if ok and lx >= 1:
            # x now counts toward its neighbors' below-maxima; heads fed by
            # those neighbors must still clear 1 + lx.
            for k, pu, pv in watch:
                e = cstate[k]
                if e == EDGE_NONE:
                    continue
                pt, ph = (pu, pv) if e == EDGE_FWD else (pv, pu)
                if pt in nbr_child_pos:
                    hv = cstate[cm + ph]
                    if hv > 1 and hv < 1 + lx:
                        ok = False
                        break
        if not ok:
            continue
        state = head_of(cstate) + tuple(below) + tuple(ncaps) + (hat, inb, out1, out2)
        cur = table.get(state)
        if cur is None or ccost < cur[0]:
            table[state] = (ccost, ci)
    return table


def _join_table(
    ctx: BagContext,
    left: dict,
    right: dict,
    bound: int,
) -> dict:
    """Back-references are (left index, right index)."""
    table: dict = {}
    m, n = len(ctx.edges), len(ctx.nodes)
    head = m + n
    # Bits where no unseen neighbor remains; a hat surviving the join on one
    # of these nodes could never be resolved.
    nofuture = ~ctx.open

    def split(state):
        """The fields a pairing reads: the per-node tail, its largest
        below-maximum and smallest cap for a quick cap check, the masks."""
        tail = state[head:-4]
        return (tail, max(tail[:n], default=0), -max(tail[n:], default=-NO_CAP), *state[-4:])

    # Right states by orientation and labels, in table order.
    groups: dict[tuple, list] = {}
    for ri, (s, (rcost, _)) in enumerate(right.items()):
        groups.setdefault(s[:head], []).append((ri, rcost, *split(s)))
    trigger = PRUNE_TRIGGER
    for li, (ls, (lcost, _)) in enumerate(left.items()):
        if len(table) > trigger:
            _prune_dominated(table, ctx)
            trigger = max(PRUNE_TRIGGER, 2 * len(table))
        key = ls[:head]
        group = groups.get(key)
        if group is None:
            continue
        zeros = key[m:].count(0)
        l_tail, l_top, l_floor, l_hat, l_in, l1, l2 = split(ls)
        for ri, rcost, r_tail, r_top, r_floor, r_hat, r_in, r1, r2 in group:
            # The bag's origins are paid for on both sides.
            cost = lcost + rcost - zeros
            if cost > bound:
                continue
            # Each copy of an edge to a forgotten justifier counts once only.
            if l_in & r_in:
                continue
            hats = l_hat & r_hat
            if hats & nofuture:
                continue
            # What one side buried below must fit the other side's caps
            # (b + c > 0 reads "below-maximum b exceeds the cap -c").
            if (l_top > r_floor or r_top > l_floor) and (
                any(b + c > 0 for b, c in zip(l_tail[:n], r_tail[n:]))
                or any(b + c > 0 for b, c in zip(r_tail[:n], l_tail[n:]))
            ):
                continue
            state = (*key, *map(max, l_tail, r_tail), hats, l_in | r_in, l1 | r1, l2 | r2 | (l1 & r1))
            cur = table.get(state)
            if cur is None or cost < cur[0]:
                table[state] = (cost, (li, ri))
    return table


def _reconstruct(ntd: NiceTreeDecomposition, backs) -> set[int]:
    """The nodes inserted as origins below the root's one state."""
    witness: set[int] = set()
    stack = [(ntd.root, 0)]
    while stack:
        i, at = stack.pop()
        nd = ntd.nodes[i]
        back = backs[i][at]
        if nd.kind == "insert":
            at, origin = back
            if origin:
                witness.add(nd.node)
            stack.append((nd.children[0], at))
        elif nd.kind == "forget":
            stack.append((nd.children[0], back))
        else:
            stack.extend(zip(nd.children, back))  # a leaf's back is ()
    return witness
