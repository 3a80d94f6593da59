import random
import sys
from collections import Counter
from math import ceil, inf as INF

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    grid_graph,
    naive_times,
    path_graph,
    prism_graph,
    random_connected_graph,
    random_decomposition,
    random_graph,
    random_tree,
    relabelled,
    star_graph,
)
from powerdom import dpsolve
from powerdom.bruteforce import solve_bf
from powerdom.dpsolve import (
    NO_CAP,
    UNOBSERVED,
    _deepest_first,
    _insert_may_dominate,
    _join_table,
    _label_bounds,
    _origins,
    _packing_bound,
    _prune_dominated,
    _sweep,
    _tables,
    is_invalid_state,
    solve_dp,
)
from powerdom.generators import attach_paths, pendant_cycle, spider
from powerdom.graphs import Graph
from powerdom.propagation import is_feasible
from powerdom.treedecomp import (
    TreeDecomposition,
    heuristic_td,
    to_nice,
    validate_td,
)


def _swept(g, targets, ell):
    """The sweep's set, solve_dp's incumbent."""
    tmask = sum(1 << v for v in targets)
    return _sweep(g, _deepest_first(g, tmask), tmask, ell, _origins(g))


@pytest.mark.usefixtures("dp_tables")
def test_spider_identities():
    g = spider(3, 3)
    assert solve_dp(g, range(g.n), 3)[0] == 1
    assert solve_dp(g, range(g.n), 2)[0] == 3


def test_basic_inputs_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError):
        solve_dp(g, {5}, 1)
    with pytest.raises(ValueError):
        solve_dp(g, {0}, 0)
    # A decomposition of some other graph is refused.
    wrong = heuristic_td(cycle_graph(4))
    with pytest.raises(ValueError):
        solve_dp(g, {0}, 1, wrong)


def test_empty_targets():
    # The general path settles no targets at ub = 0, fills every stats key
    # and still checks a passed decomposition.
    for n, origins in ((0, 0), (3, 1), (4, 2)):
        stats: dict = {}
        assert solve_dp(path_graph(n), set(), 2, stats=stats) == (0, frozenset())
        assert stats == {"lower_bound": 0, "upper_bound": 0, "origins": origins,
                         "table_sizes": [], "search_sets": 0}
    with pytest.raises(ValueError, match="does not fit the graph"):
        solve_dp(path_graph(3), set(), 2, heuristic_td(cycle_graph(4)))


@pytest.mark.usefixtures("dp_tables")
def test_timing_leak_regression():
    # A pendant inserted above its hub after a long arm was forgotten used
    # to let a label-3 hub pretend its last neighbor was already checked.
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
    bags = (
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({0, 1}),
        frozenset({3, 4}),
        frozenset({4, 5}),
        frozenset({5, 6}),
    )
    td = TreeDecomposition(bags, ((0, 1), (1, 2), (1, 3), (3, 4), (4, 5)))
    bf = solve_bf(g, {1, 6}, 3)
    dp = solve_dp(g, {1, 6}, 3, td)
    assert dp[0] == bf[0] == 2


def test_dense_shortcut_still_exact():
    for g in (complete_graph(5), star_graph(7)):
        opt, witness = solve_dp(g, range(g.n), 1)
        assert opt == 1
        assert is_feasible(g, witness, range(g.n), 1)


def test_stats_hook(request):
    # At ell=1 the 2x5 grid's sweep needs 4 and the optimum is 3; on the
    # 3x3 grid nothing is below the sweep's 3, so the sweep's set is the
    # answer.  The search settles both within its budget, so tables are
    # built only under dp_tables.
    g5, g3 = grid_graph(2, 5), grid_graph(3, 3)
    swept3 = _swept(g3, range(g3.n), 1)
    for tables in (False, True):
        if tables:
            request.getfixturevalue("dp_tables")
        stats = {}
        assert solve_dp(g5, range(g5.n), 1, stats=stats)[0] == 3
        assert stats["upper_bound"] == 4
        assert bool(stats["table_sizes"]) == tables and all(s >= 1 for s in stats["table_sizes"])
        stats = {}
        assert solve_dp(g3, range(g3.n), 1, stats=stats) == (3, swept3)
        assert stats["upper_bound"] == 3
        assert bool(stats["table_sizes"]) == tables


def _subset_search_cases():
    """Every connected atlas graph of 5 to 7 nodes at every ell, with
    seeded random targets, the grids of 2 rows and 4 to 8 columns and of 3
    rows and 3 to 7 columns at ell=1, and a relabelling of the 4x4 grid at
    ell=1 on which the sweep needs 6 (optimum 4)."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(5040)
    atlas = [ag for ag in nx.graph_atlas_g()
             if 5 <= ag.number_of_nodes() <= 7 and nx.is_connected(ag)]
    for ag in atlas:
        n = ag.number_of_nodes()
        g = Graph(n, list(ag.edges()))
        for ell in range(1, n):
            targets = frozenset(v for v in range(n) if rng.random() < 0.7) or frozenset({0})
            yield g, targets, ell
    for r, c in [(2, c) for c in range(4, 9)] + [(3, c) for c in range(3, 8)]:
        yield grid_graph(r, c), frozenset(range(r * c)), 1
    yield relabelled(grid_graph(4, 4), random.Random(22)), frozenset(range(16)), 1


def test_stats_observe_the_solve_without_steering_it(monkeypatch):
    # Stats observe a solve and do not steer it.  With and without stats, a
    # solve makes the same search and table calls and returns the same
    # optimum and witness.
    calls = Counter()
    for name in ("first_cover", "_tables"):
        def counted(*args, _orig=getattr(dpsolve, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(dpsolve, name, counted)
    cases = [(pendant_cycle(m), 1) for m in range(6, 17)]
    cases += [(pendant_cycle(m), 2) for m in (9, 12, 15, 18)]
    cases += [(grid_graph(r, c), 1) for r in (2, 3) for c in range(3, 8)]
    searched = 0
    for g, ell in cases:
        runs = []
        for stats in (None, {}):
            calls.clear()
            runs.append((solve_dp(g, range(g.n), ell, stats=stats), dict(calls)))
        assert runs[0] == runs[1], (g.edges, ell)
        searched += calls["first_cover"] > 0
    # The sweep's set meets the packing bound on every pendant cycle and
    # on the 2x3 and 3x5 grids; the other eight grids search below it.
    assert searched == 8


def test_subset_search_matches_tables(request):
    cases = list(_subset_search_cases())
    solved = []
    for tables in (False, True):
        if tables:
            request.getfixturevalue("dp_tables")
        runs = []
        for g, targets, ell in cases:
            stats: dict = {}
            opt, witness = solve_dp(g, targets, ell, stats=stats)
            assert len(witness) == opt and is_feasible(g, witness, targets, ell)
            runs.append((opt, stats["upper_bound"], bool(stats["table_sizes"])))
        solved.append(runs)
    searched = descended = 0
    for (g, targets, ell), (opt, ub, tabled), (want, _, forced) in zip(cases, *solved):
        assert opt == want, (g.edges, sorted(targets), ell)
        if ub > 2:
            # The default limit settles every case by the search; under
            # dp_tables every one builds tables.
            assert not tabled and forced, (g.edges, sorted(targets), ell)
            searched += 1
            descended += opt <= ub - 2
    assert searched >= 40 and descended >= 1, (searched, descended)


def test_search_or_tables_does_not_follow_node_ids():
    # The sweep's tie-breaks give the 3x6 grid at ell=1 a bound of 5 or 6
    # depending on node ids.  The search settles both within its budget, so
    # every relabelling ends at the same optimum without tables, rather
    # than some taking the tables at ten times the cost.
    rng = random.Random(36)
    bounds = set()
    for _ in range(40):
        g = relabelled(grid_graph(3, 6), rng)
        stats: dict = {}
        opt, witness = solve_dp(g, range(g.n), 1, stats=stats)
        assert opt == 5 and is_feasible(g, witness, range(g.n), 1)
        assert stats["table_sizes"] == [], stats["upper_bound"]
        bounds.add(stats["upper_bound"])
    assert bounds == {5, 6}, bounds


def test_search_budget_settles_what_a_set_count_sent_to_the_tables():
    # The pendant cycle on 20 at ell=2 has C(20, 6) = 38,760 six-sets of
    # candidates and the 5x5 grid at ell=1 C(25, 7) = 480,700 seven-sets,
    # but the distance cut leaves the walk few of them to reach.
    for g, ell in ((pendant_cycle(20), 2), (grid_graph(5, 5), 1)):
        stats: dict = {}
        opt, witness = solve_dp(g, range(g.n), ell, stats=stats)
        assert opt == _milp_optimum(g, ell) and is_feasible(g, witness, range(g.n), ell)
        assert stats["table_sizes"] == []
        assert 0 < stats["search_sets"] <= dpsolve.SEARCH_BUDGET


def test_spent_search_budget_falls_back_to_tables():
    # The pendant cycle on 25 at ell=3 spreads too many sets for the
    # budget, so the tables decide; optimum 9 from scipy's milp on
    # build_ip_ell.
    g = pendant_cycle(25)
    stats: dict = {}
    opt, witness = solve_dp(g, range(g.n), 3, stats=stats)
    assert opt == len(witness) == 9 and is_feasible(g, witness, range(g.n), 3)
    assert stats["search_sets"] > 0 and stats["table_sizes"]


def test_budgets_agree_on_the_optimum(monkeypatch, request):
    # The default budget, budgets that run out partway, some after a size
    # has found a set, and none at all must give the same optimum.  Tables
    # keep only states below the smallest set found, and a budget that
    # never searches reaches no set.
    rng = random.Random(4242)
    cases = []
    for _ in range(60):
        n = rng.randint(8, 14)
        g = random_connected_graph(rng, n, rng.uniform(0.15, 0.4))
        targets = frozenset(v for v in range(n) if rng.random() < 0.8) or frozenset({0})
        cases.append((g, targets, rng.randint(1, 3)))
    # On this relabelling of the 4x4 grid the sweep needs 6, two above the
    # optimum, so a budget can run out after a size has found a set.
    for g in (grid_graph(4, 4), relabelled(grid_graph(3, 6), rng),
              relabelled(grid_graph(4, 4), random.Random(22))):
        cases.append((g, frozenset(range(g.n)), 1))
    bounds = []
    tables = dpsolve._tables

    def recorded(g, ntd, targets, bound, *rest):
        bounds.append(bound)
        return tables(g, ntd, targets, bound, *rest)

    monkeypatch.setattr(dpsolve, "_tables", recorded)
    optima = {}
    outcomes = Counter()
    for budget in (dpsolve.SEARCH_BUDGET, *(4**k for k in range(6)), None):
        if budget is None:
            request.getfixturevalue("dp_tables")
        else:
            monkeypatch.setattr(dpsolve, "SEARCH_BUDGET", budget)
        for case in cases:
            g, targets, ell = case
            stats: dict = {}
            bounds.clear()
            opt, witness = solve_dp(g, targets, ell, stats=stats)
            assert len(witness) == opt and is_feasible(g, witness, targets, ell), case
            assert optima.setdefault(case, opt) == opt, (budget, case)
            searched, tabled = stats["search_sets"] > 0, bool(stats["table_sizes"])
            outcomes[budget, searched, tabled] += 1
            if tabled:
                assert bounds[0] <= stats["upper_bound"] - 1, (budget, case)
                outcomes[budget, "below ub - 1"] += bounds[0] < stats["upper_bound"] - 1
    partway = [b for b in range(2 ** 12) if outcomes[b, True, True]]
    assert len(partway) >= 3 and sum(outcomes[b, "below ub - 1"] for b in partway) >= 1, outcomes
    assert outcomes[None, True, False] == outcomes[None, True, True] == 0, outcomes
    assert outcomes[None, "below ub - 1"] == 0, outcomes


@pytest.mark.usefixtures("dp_tables")
def test_matches_bruteforce_exhaustive_small():
    seen = set()
    for n in range(2, 5):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(all_pairs)):
            edges = [p for i, p in enumerate(all_pairs) if mask >> i & 1]
            g = Graph(n, edges)
            key = (n, tuple(edges))
            if key in seen:
                continue
            seen.add(key)
            for ell in range(1, n):
                assert (
                    solve_dp(g, range(n), ell)[0]
                    == solve_bf(g, range(n), ell)[0]
                ), (n, edges, ell)


@pytest.mark.usefixtures("dp_tables")
def test_matches_bruteforce_random_targets():
    rng = random.Random(2718)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.15, 0.8))
        ell = rng.randint(1, n - 1)
        targets = frozenset(v for v in range(n) if rng.random() < 0.6)
        opt_bf = solve_bf(g, targets, ell)[0]
        opt_dp, witness = solve_dp(g, targets, ell)
        assert opt_dp == opt_bf, (g.edges, sorted(targets), ell)
        assert len(witness) == opt_dp
        assert is_feasible(g, witness, targets, ell)


@pytest.mark.usefixtures("dp_tables")
def test_explicit_decomposition_paths():
    # Drive the join case deliberately: a star decomposition of a star graph
    # forces a branching bag, and a path decomposition exercises the chain.
    g = star_graph(5)
    bags = tuple(frozenset({0, i}) for i in range(1, 5))
    td = TreeDecomposition(bags, ((0, 1), (0, 2), (0, 3)))
    assert solve_dp(g, range(g.n), 1, td)[0] == 1
    g2 = path_graph(6)
    bags2 = tuple(frozenset({i, i + 1}) for i in range(5))
    td2 = TreeDecomposition(bags2, tuple((i, i + 1) for i in range(4)))
    for ell in (1, 2):
        assert (
            solve_dp(g2, range(6), ell, td2)[0]
            == solve_bf(g2, range(6), ell)[0]
        )


def test_tables_never_hold_invalid_states(monkeypatch):
    # Rebuild the solver's tables with its own table builder and audit
    # every stored entry against the validity predicate, both as the solver
    # keeps them and with dominance pruning off, so that every state the
    # transitions generate is audited too.
    for prune in (True, False):
        if not prune:
            monkeypatch.setattr(dpsolve, "_prune_dominated", lambda *args: None)
        rng = random.Random(424)
        audited = 0
        for _ in range(12):
            n = rng.randint(2, 6)
            g = random_connected_graph(rng, n, 0.5)
            ell = rng.randint(1, n - 1)
            targets = frozenset(range(n))
            ntd = to_nice(heuristic_td(g))
            ub = len(_swept(g, targets, ell))
            # Every node as a possible origin, and the solver's candidates.
            for origins in ((1 << n) - 1, _origins(g)):
                for _, table, ctx in _tables(g, ntd, targets, ub, [ell] * n, origins):
                    for state in table:
                        assert not is_invalid_state(ctx, state)
                    audited += len(table)
        assert audited > 1000


def test_join_refuses_two_justifying_edges():
    # Path a - x - b joined at the bag {x}: a is forgotten below the left
    # child, b below the right one.  A pairing in which both sides justify x
    # from below would give x two in-edges.  No optimum depends on this
    # clause (a pairing in which one side leaves x hatted reaches the same
    # state at no greater cost), so it is checked on the join itself, with
    # a and b allowed as origins although x's closed neighborhood holds
    # theirs.
    g = path_graph(3)
    td = TreeDecomposition(
        (frozenset({1}), frozenset({0, 1}), frozenset({1, 2})), ((0, 1), (0, 2))
    )
    ntd = to_nice(td)
    ub = 3
    built = {i: (t, ctx) for i, t, ctx in _tables(g, ntd, frozenset(range(3)), ub, [2] * 3, 0b111)}
    [j] = [i for i, nd in enumerate(ntd.nodes) if nd.kind == "join"]
    assert ntd.nodes[j].bag == {1}
    left, right = (built[c][0] for c in ntd.nodes[j].children)

    def justified(t):
        return {s: v for s, v in t.items() if s[-3] & 1}

    def hatted(t):
        return {s: v for s, v in t.items() if s[-4] & 1}

    ctx = built[j][1]
    assert ctx.open == 0  # the join has seen every node
    assert justified(left) and justified(right)
    assert _join_table(ctx, justified(left), justified(right), ub) == {}
    joined = _join_table(ctx, justified(left), hatted(right), ub)
    assert joined and all(s[-3] == 1 and s[-4] == 0 for s in joined)


# Optimum and per-nice-node table sizes (post order, after pruning) on the
# default decomposition: first at the sweep's bound ub, then as solve_dp
# builds them under dp_tables, at ub - 1 and none when ub <= 2, where the
# search for a lone origin settles the solve.
# A change of state layout must leave them as they are.  Each empty leaf
# holds the empty bag's one state, and each list ends with the forgets down
# to the empty root, whose table holds that state or, when nothing fits
# below the bound, none.  The spiders and the pendant cycle hold nodes
# whose closed neighborhood another node's contains (leg ends, pendant
# leaves); since those are never offered as origins, their tables are
# smaller than when every node was, while the grids and the prism, which
# have no such node, kept theirs.
TABLE_SIZES = [
    (grid_graph(3, 3), 1, 3, [
        1, 2, 6, 13, 13, 46, 114, 1, 2, 6, 13, 13, 46, 114, 157, 108, 144, 1, 2, 6, 13, 13,
        25, 114, 83, 30, 18, 9, 5, 2, 1], [
        1, 2, 6, 12, 12, 35, 62, 1, 2, 6, 12, 12, 35, 62, 38, 32, 23, 1, 2, 6, 12, 12, 18,
        62, 6, 4, 3, 0, 0, 0, 0]),
    (grid_graph(3, 4), 2, 2, [
        1, 3, 14, 57, 227, 1, 3, 9, 35, 35, 95, 599, 1, 3, 14, 35, 35, 179, 594, 796, 590,
        903, 886, 559, 909, 650, 766, 625, 546, 1, 3, 14, 35, 35, 95, 604, 176, 108, 49, 5,
        4, 3, 1], []),
    (pendant_cycle(6), 3, 2, [
        1, 4, 4, 4, 17, 1, 4, 4, 4, 17, 18, 47, 1, 4, 4, 4, 17, 96, 49, 43, 96, 1, 4, 4, 4,
        17, 67, 105, 36, 69, 1, 4, 4, 4, 17, 67, 76, 35, 31, 23, 7, 2, 2, 1], []),
    (prism_graph(5), 2, 2, [
        1, 3, 14, 57, 141, 141, 518, 1416, 1091, 2521, 1, 3, 14, 57, 141, 141, 519, 1275, 1,
        3, 9, 57, 141, 141, 363, 1425, 4163, 2009, 1080, 601, 36, 25, 10, 3, 1], []),
    (spider(3, 3), 2, 3, [
        1, 2, 3, 3, 5, 5, 15, 1, 3, 2, 2, 5, 5, 15, 10, 41, 41, 12, 13, 10, 13, 10, 3, 2, 1], [
        1, 2, 3, 3, 5, 5, 14, 1, 3, 2, 2, 5, 5, 14, 10, 38, 22, 9, 6, 5, 3, 2, 0, 0, 0]),
    (spider(4, 2), 1, 4, [
        1, 1, 1, 1, 3, 1, 2, 1, 1, 3, 3, 8, 1, 2, 1, 1, 3, 3, 8, 8, 4, 3, 5, 4, 1, 1, 1], [
        1, 1, 1, 1, 3, 1, 2, 1, 1, 3, 3, 8, 1, 2, 1, 1, 3, 3, 8, 7, 3, 2, 1, 1, 0, 0, 0]),
]


def test_table_sizes_are_locked(request):
    for g, ell, opt, sizes, _ in TABLE_SIZES:
        targets = frozenset(range(g.n))
        tables = _solver_tables(g, targets, ell, to_nice(heuristic_td(g)))
        assert [len(table) for _, table, _ in tables] == sizes, (g, ell)
        # Every case has few enough sets below ub to try them outright.
        stats: dict = {}
        assert solve_dp(g, targets, ell, stats=stats)[0] == opt
        assert stats["table_sizes"] == [], (g, ell)
    request.getfixturevalue("dp_tables")
    for g, ell, opt, _, solved_sizes in TABLE_SIZES:
        stats = {}
        assert solve_dp(g, range(g.n), ell, stats=stats)[0] == opt
        assert stats["table_sizes"] == solved_sizes, (g, ell)


def _root_optimum(g, targets, ell, ntd, bound):
    """The cost of the empty root's one state in tables built at bound, or
    None when the root's table is empty."""
    origins = _origins(g)
    eb = _label_bounds(g, ell, origins, targets)
    *_, (_, root, _) = _tables(g, ntd, targets, bound, eb, origins)
    if not root:
        return None
    [(state, (cost, _))] = root.items()
    assert state == (0, 0, 0, 0)
    return cost


def _check_against_bruteforce(g, targets, ell, td) -> str:
    """Check solve_dp against solve_bf, and the tables on their own: built
    at bound opt they reach opt exactly, at opt - 1 nothing.  opt = 1 is
    left to the sweep, whose first pick weighs every candidate that can
    observe the first target.  Returns how the solve ended."""
    stats: dict = {}
    opt, witness = solve_dp(g, targets, ell, td, stats=stats)
    case = (g.edges, td, sorted(targets), ell)
    assert opt == solve_bf(g, targets, ell)[0], case
    assert len(witness) == opt and is_feasible(g, witness, targets, ell), case
    if opt >= 2:
        ntd = to_nice(td)
        assert _root_optimum(g, targets, ell, ntd, opt) == opt, case
        assert _root_optimum(g, targets, ell, ntd, opt - 1) is None, case
    ub = stats["upper_bound"]
    if ub == stats["lower_bound"]:
        return "packing bound met"
    return "sweep proven optimal" if opt == ub else "tables beat the sweep"


def test_matches_bruteforce_on_random_decompositions():
    rng = random.Random(8128)
    kinds = set()
    outcomes = dict.fromkeys(("packing bound met", "sweep proven optimal",
                              "tables beat the sweep"), 0)
    for _ in range(1000):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.25, 0.7))
        td = random_decomposition(rng, g)
        assert validate_td(g, td) is None
        kinds.update(nd.kind for nd in to_nice(td).nodes)
        ell = rng.randint(1, min(4, n - 1))
        targets = frozenset(v for v in range(n) if rng.random() < 0.7)
        outcomes[_check_against_bruteforce(g, targets, ell, td)] += 1
    for legs in (2, 3, 4):
        for length, ell in ((2, 1), (3, 2)):
            g = relabelled(spider(legs, length), rng)
            td = random_decomposition(rng, g)
            outcomes[_check_against_bruteforce(g, frozenset(range(g.n)), ell, td)] += 1
    # Random graphs this small rarely fool the sweep; the 2x5 grid and
    # this relabelling of the 4x4 grid do.
    for g in (grid_graph(4, 4), grid_graph(2, 5), relabelled(grid_graph(4, 4), random.Random(22))):
        outcomes[_check_against_bruteforce(g, frozenset(range(g.n)), 1, heuristic_td(g))] += 1
    assert kinds == {"leaf", "insert", "forget", "join"}
    assert all(outcomes.values()), outcomes


def _milp_optimum(g, ell):
    """Optimum of the round-indexed program build_ip_ell, by scipy's milp."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    from powerdom.ipmodels import build_ip_ell

    model = build_ip_ell(g, ell)
    col = {name: j for j, name in enumerate(model.variables)}
    c = np.zeros(len(col))
    c[[col[name] for name in model.objective]] = 1
    rows = np.zeros((len(model.constraints), len(col)))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for r, con in enumerate(model.constraints):
        for name, coef in con.coeffs:
            rows[r, col[name]] = coef
        if con.sense != ">=":
            hi[r] = con.rhs
        if con.sense != "<=":
            lo[r] = con.rhs
    res = optimize.milp(c, constraints=optimize.LinearConstraint(rows, lo, hi),
                        integrality=np.ones(len(col)), bounds=optimize.Bounds(0, 1))
    assert res.status == 0, res.message
    return round(res.fun)


MILP_CASES = {
    "pendant_cycle_13_l2": (pendant_cycle(13), 2),
    "pendant_cycle_13_l3": (pendant_cycle(13), 3),
    "pendant_cycle_15_l2": (pendant_cycle(15), 2),
    "pendant_cycle_15_l3": (pendant_cycle(15), 3),
    "spider_4_7_l3": (spider(4, 7), 3),
    "spider_5_6_l2": (spider(5, 6), 2),
    "spider_6_4_l2": (spider(6, 4), 2),
    "spider_5_5_l3": (spider(5, 5), 3),
    "grid_3x9_l1": (grid_graph(3, 9), 1),
    # The sweep is one above the optimum on the first and two above on the
    # second, so the tables find the optimum below it.
    "grid_4x7_l1": (grid_graph(4, 7), 1),
    "grid_2x13_l1": (grid_graph(2, 13), 1),
}


@pytest.mark.parametrize("case", MILP_CASES)
@pytest.mark.usefixtures("dp_tables")
def test_matches_milp_beyond_bruteforce(case):
    # A third exact oracle, for graphs past solve_bf's 24-node guard.
    g, ell = MILP_CASES[case]
    assert g.n > 24
    opt, witness = solve_dp(g, range(g.n), ell)
    assert len(witness) == opt and is_feasible(g, witness, range(g.n), ell)
    assert opt == _milp_optimum(g, ell)


def _reference_origins(g):
    """Nodes whose closed neighborhood no other node's strictly contains,
    nor equals with a lower id; every pair compared, as frozensets."""
    closed = [frozenset(g.adjacency[v]) | {v} for v in range(g.n)]
    return frozenset(
        u for u in range(g.n)
        if not any(closed[u] < closed[v] or closed[u] == closed[v] and v < u
                   for v in range(g.n) if v != u)
    )


def _with_pendants(rng, g, count):
    """g with count fresh leaves hung on random nodes."""
    return Graph(g.n + count, [*g.edges, *((rng.randrange(g.n), g.n + i) for i in range(count))])


def _with_true_twins(rng, g, count):
    """g with count fresh nodes, each a true twin of a random node: adjacent
    to it and to all its neighbors."""
    for _ in range(count):
        u = rng.randrange(g.n)
        g = Graph(g.n + 1, [*g.edges, (u, g.n), *((w, g.n) for w in g.adjacency[u])])
    return g


def _origin_cases():
    rng = random.Random(3141)
    for _ in range(150):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.uniform(0.05, 0.8))
        yield g
        yield _with_pendants(rng, g, rng.randint(1, 4))
        yield _with_true_twins(rng, g, rng.randint(1, 3))
    for n in range(1, 7):
        yield star_graph(n)
        yield complete_graph(n)
    for m in range(3, 7):
        yield relabelled(pendant_cycle(m), rng)


def test_origins_match_reference():
    dropped_any = 0
    for g in _origin_cases():
        mask = _origins(g)
        kept = frozenset(v for v in range(g.n) if mask >> v & 1)
        assert kept == _reference_origins(g) and mask >> g.n == 0, g.edges
        closed = [frozenset(g.adjacency[v]) | {v} for v in range(g.n)]
        for u in range(g.n):
            # Every dropped node has a kept node covering its neighborhood,
            # and no kept node's neighborhood holds another kept node's.
            covers = [v for v in kept if v != u and closed[u] <= closed[v]]
            assert bool(covers) != (u in kept), (g.edges, u)
        dropped_any += len(kept) < g.n
    assert dropped_any > 300
    # The three shapes by name: a star keeps its center, a complete graph
    # its lowest id, and a pendant cycle its cycle nodes.
    assert _origins(star_graph(6)) == 0b1
    assert _origins(complete_graph(5)) == 0b1
    assert _origins(pendant_cycle(5)) == 0b11111


def _dropped_node_cases():
    """Graphs with many nodes that are never candidate origins, each with
    seeded random targets at every ell: random graphs with pendants, with
    true twins, pendant cycles of up to 12 nodes and spiders; and 2x5
    grids with a true twin, every node a target, at ell=1, on which the
    sweep needs 4 and the optimum is 3."""
    rng = random.Random(1414)
    graphs = []
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 8), rng.uniform(0.15, 0.5))
        graphs.append(_with_pendants(rng, g, rng.randint(2, 4)))
        graphs.append(_with_true_twins(rng, g, rng.randint(1, 3)))
    graphs += [relabelled(pendant_cycle(m), rng) for m in range(3, 7)]
    graphs += [relabelled(spider(legs, length), rng) for legs in (2, 3, 4) for length in (2, 3)]
    for g in graphs:
        for ell in range(1, g.n):
            targets = frozenset(v for v in range(g.n) if rng.random() < 0.7) or frozenset({0})
            yield g, targets, ell
    grids = random.Random(1415)
    for _ in range(3):
        yield _with_true_twins(grids, relabelled(grid_graph(2, 5), grids), 1), frozenset(range(11)), 1


@pytest.mark.parametrize("tables", [False, True])
def test_matches_bruteforce_with_dropped_origins(tables, request):
    if tables:
        request.getfixturevalue("dp_tables")
    cases = below = 0
    for g, targets, ell in _dropped_node_cases():
        stats: dict = {}
        opt, witness = solve_dp(g, targets, ell, stats=stats)
        case = (g.edges, sorted(targets), ell)
        assert opt == solve_bf(g, targets, ell)[0], case
        assert len(witness) == opt and is_feasible(g, witness, targets, ell), case
        assert stats["origins"] == len(_reference_origins(g)) < g.n, case
        # The sweep, the search and the tables pick candidates only.
        assert witness <= _reference_origins(g), case
        if stats["upper_bound"] > 2:
            assert bool(stats["table_sizes"]) == tables, case
            below += opt < stats["upper_bound"]
        cases += 1
    assert cases > 600 and below >= 3, (cases, below)


def _reference_component(g, v):
    seen, stack = {v}, [v]
    while stack:
        for w in g.adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _reference_label_bounds(g, ell, targets):
    """Per node, from the singleton runs of the candidate origins in its
    component, each taken to its fixed point by the naive oracle: 0 when
    the component has no target; where some lone candidate observes all of
    the component's targets within ell rounds, the slowest time within ell
    of any such candidate; otherwise min(ell, the second-slowest time), 0
    with fewer than two candidates."""
    runs = {u: naive_times(g, {u}, g.n) for u in _reference_origins(g)}
    bounds = []
    for v in range(g.n):
        comp = _reference_component(g, v)
        local = [t for u, t in sorted(runs.items()) if u in comp]
        goals = targets & comp
        alone = [t for t in local if all(t[w] <= ell for w in goals)]
        if not goals:
            bounds.append(0)
        elif alone:
            bounds.append(int(max((t[v] for t in alone if t[v] <= ell), default=0)))
        else:
            slow = sorted((t[v] for t in local), reverse=True) + [0]
            bounds.append(int(min(slow[1], ell)))
    return bounds


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 14))
def test_label_bounds_match_fixed_point_reference(seed, n):
    rnd = random.Random(seed)
    if rnd.random() < 0.5:
        g = random_tree(rnd, n)  # long runs, most of them past ell
    else:
        g = random_graph(rnd, n, rnd.uniform(0.1, 0.6))  # often disconnected
    targets = frozenset(v for v in range(n) if rnd.random() < rnd.choice((0.4, 0.8, 1)))
    for ell in range(1, max(2, n)):
        assert _label_bounds(g, ell, _origins(g), targets) == _reference_label_bounds(
            g, ell, targets), (g.edges, sorted(targets), ell)


@pytest.mark.usefixtures("dp_tables")
def test_label_bounds_follow_each_component():
    # Two isolated targets beside a component that one node observes from
    # ell = 4 on: bounds taken over the whole graph gave every node ell, and
    # the largest table grew from 143,517 states at ell = 6 to 524,603 at
    # ell = 8.  Per component, the bounds stop at the slowest run of a node
    # that suffices alone, and the tables stop growing with ell.
    g = Graph(12, [(1, 3), (1, 5), (1, 7), (1, 9), (3, 6), (3, 8), (3, 10), (4, 5), (4, 7),
                   (4, 8), (4, 9), (5, 6), (7, 8), (7, 9), (8, 11)])
    targets = frozenset({0, 2, 3, 4, 5, 6, 8, 9, 10, 11})
    largest = set()
    for ell in (6, 7, 8):
        stats: dict = {}
        assert solve_dp(g, targets, ell, stats=stats)[0] == solve_bf(g, targets, ell)[0] == 3
        assert stats["table_sizes"], ell
        largest.add(max(stats["table_sizes"]))
        assert _label_bounds(g, ell, _origins(g), targets) == _reference_label_bounds(
            g, ell, targets)
    assert len(largest) == 1, largest


def _table_cases():
    """The instances whose table sizes are locked, random decompositions of
    small random graphs, and relabelled 3x5 grids: (graph, targets, ell,
    nice decomposition).  Random decompositions with bags of five or more
    nodes are drawn again: a few of those take seconds each."""
    for g, ell, *_ in TABLE_SIZES:
        yield g, frozenset(range(g.n)), ell, to_nice(heuristic_td(g))
    rng = random.Random(1729)
    for _ in range(300):
        while True:
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.uniform(0.25, 0.7))
            td = random_decomposition(rng, g)
            if max(map(len, td.bags)) <= 4:
                break
        ell = rng.randint(1, min(4, n - 1))
        targets = frozenset(v for v in range(n) if rng.random() < 0.7) or frozenset({0})
        yield g, targets, ell, to_nice(td)
    for _ in range(3):
        g = relabelled(grid_graph(3, 5), rng)
        yield g, frozenset(range(g.n)), 2, to_nice(heuristic_td(g))


def _solver_tables(g, targets, ell, ntd):
    """(node index, table, context) of every nice node, built as solve_dp
    builds them but at the sweep's bound ub itself, one above solve_dp's,
    so that states of cost ub are covered too."""
    ub = len(_swept(g, targets, ell))
    origins = _origins(g)
    return list(_tables(g, ntd, targets, ub, _label_bounds(g, ell, origins, targets), origins))


class _PlanStoreThatForgets(dict):
    """A plan store in which every lookup misses."""

    def get(self, key, default=None):
        return default


def test_insert_plans_match_outputs_computed_afresh(monkeypatch):
    # Reusing an insert plan across states and tables must give exactly the
    # tables that computing every state's outputs afresh gives: a plan key
    # missing something its outputs read would hand one state another's.
    insert_table = dpsolve._insert_table
    inserts = 0
    for g, targets, ell, ntd in _table_cases():
        planned = _solver_tables(g, targets, ell, ntd)
        with monkeypatch.context() as m:
            m.setattr(dpsolve, "_insert_table",
                      lambda *args: insert_table(*args[:-1], _PlanStoreThatForgets()))
            fresh = _solver_tables(g, targets, ell, ntd)
        assert len(planned) == len(fresh)
        for (i, table, _), (j, want, _) in zip(planned, fresh):
            assert i == j and list(table.items()) == list(want.items()), (g.edges, ell, i)
        inserts += sum(1 for i, _, _ in planned if ntd.nodes[i].kind == "insert")
    assert inserts > 1500


def test_skipped_dominance_sweeps_would_remove_nothing():
    # Where the solver skips the sweep after an insert, the table it keeps
    # must already be free of dominated states.
    skipped = 0
    for g, targets, ell, ntd in _table_cases():
        for i, table, ctx in _solver_tables(g, targets, ell, ntd):
            nd = ntd.nodes[i]
            if nd.kind != "insert" or _insert_may_dominate(ctx, nd.node):
                continue
            swept = dict(table)
            _prune_dominated(swept, ctx)
            assert swept == table, (g.edges, ell, i)
            skipped += 1
    assert skipped > 1000


def test_sweeps_during_a_build_keep_optima_and_table_sizes(monkeypatch, request):
    # An insert or join table is swept for dominated states whenever it
    # grows past PRUNE_TRIGGER entries.  At a trigger of 3 these sweeps run
    # on small graphs, and they may drop only what the sweep after the
    # table drops anyway: optima and the per-node table sizes solve_dp
    # reports stay the same.  The grids and the prism settle at ub == 2
    # by the search for a lone origin, so their tables are built as
    # _solver_tables builds them.
    request.getfixturevalue("dp_tables")
    rng = random.Random(3141)
    cases = []
    for _ in range(300):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        targets = frozenset(v for v in range(n) if rng.random() < 0.8) or frozenset({0})
        cases.append((g, targets, rng.randint(1, min(4, n - 1))))
    named = ((grid_graph(3, 4), 2), (prism_graph(5), 2), (grid_graph(3, 3), 1))

    def solve_all():
        out = []
        for g, targets, ell in cases:
            stats: dict = {}
            out.append((solve_dp(g, targets, ell, stats=stats)[0], stats["table_sizes"]))
        for g, ell in named:
            tables = _solver_tables(g, frozenset(range(g.n)), ell, to_nice(heuristic_td(g)))
            out.append([len(table) for _, table, _ in tables])
        return out

    default = solve_all()
    callers = Counter()
    prune = dpsolve._prune_dominated

    def counted(table, ctx):
        callers[sys._getframe(1).f_code.co_name] += 1
        prune(table, ctx)

    monkeypatch.setattr(dpsolve, "_prune_dominated", counted)
    monkeypatch.setattr(dpsolve, "PRUNE_TRIGGER", 3)
    swept = solve_all()
    assert callers["_insert_table"] and callers["_join_table"], callers
    assert swept == default
    for (g, targets, ell), (opt, _) in zip(cases, swept):
        assert opt == solve_bf(g, targets, ell)[0], (g.edges, sorted(targets), ell)
    assert sum(1 for _, sizes in swept[:len(cases)] if sizes) > 40


def test_bag_context_and_leaf_tables_match_references():
    # A bag node is open when it has a neighbor outside the nodes of the
    # bags in its nice node's subtree.  A leaf's table is the empty bag's
    # one state, and the insert of v directly above it must hold what the
    # leaf rule gives: the origin at cost 1 on a candidate origin,
    # UNOBSERVED off the targets, and hats 1..eb[v] while v is open.
    leaves = 0
    for g, targets, ell, ntd in _table_cases():
        origins = _reference_origins(g)
        eb = _reference_label_bounds(g, ell, targets)
        for i, table, ctx in _solver_tables(g, targets, ell, ntd):
            nd = ntd.nodes[i]
            below: set[int] = set()
            stack = [i]
            while stack:
                j = stack.pop()
                below |= ntd.nodes[j].bag
                stack.extend(ntd.nodes[j].children)
            want_open = {v for v in nd.bag if any(w not in below for w in g.adjacency[v])}
            assert {v for v in ctx.nodes if ctx.open >> ctx.pos[v] & 1} == want_open, (
                g.edges, ell, i)
            if nd.kind == "leaf":
                assert not nd.bag and list(table) == [(0, 0, 0, 0)], (g.edges, ell, i)
            if nd.kind != "insert" or ntd.nodes[nd.children[0]].kind != "leaf":
                continue
            v = nd.node
            options = [(0, 0)] if v in origins else []
            if v not in targets:
                options.append((UNOBSERVED, 0))
            if v in want_open:
                options.extend((a, 1) for a in range(1, eb[v] + 1))
            want = {
                (val, 0, -NO_CAP, hat, 0, 0, 0): (int(val == 0), (0, int(val == 0)))
                for val, hat in options
            }
            assert list(table.items()) == list(want.items()), (g.edges, ell, i)
            leaves += 1
    assert leaves > 700


def _bound_cases():
    """Random graphs of 1 to 10 nodes, often disconnected, with random
    targets, at every ell."""
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        targets = frozenset(v for v in range(n) if rng.random() < rng.choice((0.3, 0.7, 1)))
        for ell in range(1, max(2, n)):
            yield rng, g, targets, ell


def _observes_all(g, s, targets, ell):
    times = naive_times(g, s, ell)
    return all(times[v] <= ell for v in targets)


def test_packing_bound_and_sweep_are_sound(monkeypatch):
    monkeypatch.setattr(dpsolve, "SEARCH_BUDGET", -1)
    certified = 0
    for rng, g, targets, ell in _bound_cases():
        case = (g.edges, sorted(targets), ell)
        tmask = sum(1 << v for v in targets)
        order = _deepest_first(g, tmask)
        lb = _packing_bound(g, order, ell)
        opt = solve_bf(g, targets, ell)[0] if targets else 0
        assert lb <= opt, case
        # A component without targets adds nothing.
        k = rng.randint(1, 4)
        extra = random_graph(rng, k, 0.5).edges
        wider = Graph(g.n + k, [*g.edges, *((g.n + u, g.n + v) for u, v in extra)])
        assert _packing_bound(wider, _deepest_first(wider, tmask), ell) == lb, case
        swept = _sweep(g, order, tmask, ell, _origins(g))
        assert _observes_all(g, swept, targets, ell), case
        # A lone origin that works is the sweep's first pick, so solve_dp
        # never searches size 1.
        assert (len(swept) <= 1) == (opt <= 1), case
        # With the search off, only a sweep that meets the bound spares
        # the tables.
        stats: dict = {}
        got, witness = solve_dp(g, targets, ell, stats=stats)
        assert stats["upper_bound"] == len(swept) and stats["lower_bound"] == lb, case
        if targets and lb == len(swept):
            assert got == opt and stats["table_sizes"] == [], case
            certified += lb > 2
        assert got == opt and _observes_all(g, witness, targets, ell), case
    assert certified >= 20, certified


def _reference_distances(g, s):
    """BFS distances from s, for the nodes of its component."""
    dist = {s: 0}
    layer = [s]
    while layer:
        nxt = []
        for u in layer:
            for w in g.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        layer = nxt
    return dist


def _reference_sweep(g, targets, ell, radius):
    """The sweep from its definition, spreading by the naive oracle: the
    targets component by component in order of their lowest id, each
    component's from the deepest BFS layer below that id up, lowest id
    first within a layer; each target still unobserved gets the candidate
    within distance radius of it (any candidate when radius is None) that
    observes it and the most targets, the lowest id among equals."""
    order, placed = [], set()
    for s in range(g.n):
        if s not in placed:
            dist = _reference_distances(g, s)
            placed |= dist.keys()
            order += sorted(targets & dist.keys(), key=lambda t: (-dist[t], t))

    def observed(s):
        times = naive_times(g, s, ell)
        return {v for v in targets if times[v] <= ell}

    chosen: set[int] = set()
    for t in order:
        if t in observed(chosen):
            continue
        near = _reference_distances(g, t)
        gain = {v: len(observed(chosen | {v})) for v in _reference_origins(g)
                if (radius is None or near.get(v, INF) <= radius)
                and t in observed(chosen | {v})}
        chosen.add(max(gain, key=lambda v: (gain[v], -v)))
    return frozenset(chosen)


def test_sweep_picks_match_reference():
    # The sweep weighs only the candidates within 2 * ell - 1 of the target
    # it serves; on the small cases a sweep over every candidate picks the
    # same.
    cases = [(g, targets, ell, True) for _, g, targets, ell in _bound_cases()]
    rng = random.Random(1729)
    for n in range(20, 41, 5):
        for g in (path_graph(n), spider(rng.randint(2, 5), n // 5),
                  attach_paths(path_graph(n // 4), 3)):
            g = relabelled(g, rng)
            cases.extend((g, frozenset(range(g.n)), ell, False) for ell in (1, 2, 3, 5))
    for g, targets, ell, small in cases:
        want = _reference_sweep(g, targets, ell, 2 * ell - 1)
        tmask = sum(1 << v for v in targets)
        case = (g.edges, sorted(targets), ell)
        assert _sweep(g, _deepest_first(g, tmask), tmask, ell, _origins(g)) == want, case
        if small:
            assert _reference_sweep(g, targets, ell, None) == want, case


def test_a_new_origin_reaches_only_2r_minus_1():
    # Round 1 observes a new origin's closed neighborhood, and each later
    # forcing moves a change at most two hops: a changed node, its
    # neighbor u, then the node u forces.  So, whatever origins are already
    # chosen, one more changes what round r observes only within distance
    # 2r - 1 of itself.
    rng = random.Random(2 * 1975 - 1)
    checked = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        g = random_tree(rng, n) if rng.random() < 0.5 else random_graph(rng, n, rng.uniform(0.1, 0.5))
        ell = rng.randint(1, 4)
        base = {v for v in range(n) if rng.random() < rng.choice((0.1, 0.25, 0.5))}
        before = naive_times(g, base, ell)
        for v in set(range(n)) - base:
            after = naive_times(g, base | {v}, ell)
            dist = _reference_distances(g, v)
            for t in range(n):
                for r in range(1, ell + 1):
                    if dist.get(t, INF) > 2 * r - 1:
                        assert (before[t] <= r) == (after[t] <= r), (g.edges, base, v, t, r)
                        checked += t in dist
    assert checked > 20000, checked
    # At exactly 2 * ell - 1 it can: on the path 0-1-2-3 with a pendant 4
    # on node 2, origin 4 leaves 3 unobserved within 2 rounds, and origin 0,
    # three hops from 3, observes 1 in round 1, so node 2 forces 3 in round
    # 2.  The same on a tree at ell = 3, five hops apart.
    for edges, base, v, t, ell in (
        ([(0, 1), (1, 2), (2, 3), (2, 4)], {4}, 0, 3, 2),
        ([(0, 1), (0, 2), (1, 3), (1, 7), (2, 4), (2, 6), (3, 5)], {6, 7}, 5, 4, 3),
    ):
        g = Graph(max(map(max, edges)) + 1, edges)
        assert _reference_distances(g, v)[t] == 2 * ell - 1
        assert naive_times(g, base, ell)[t] == INF
        assert naive_times(g, base | {v}, ell)[t] == ell


def _certified(g, ell):
    stats: dict = {}
    opt = solve_dp(g, range(g.n), ell, stats=stats)[0]
    assert stats["table_sizes"] == [] and stats["lower_bound"] == opt, (g.edges, ell)
    return opt


def test_sweep_certifies_long_sparse_graphs_under_relabelling():
    # Each graph settles without tables under every relabelling: the sweep
    # reaches the packing bound whatever node ids the tie-breaks see.
    rng = random.Random(1975)
    for n in (90, 101, 110):
        for ell in (2, 3, 4):
            for _ in range(40):
                assert _certified(relabelled(path_graph(n), rng), ell) == ceil(n / (2 * ell + 1))
    # Optima from scipy's milp on build_ip_ell.
    for g, ell, opt in ((spider(9, 12), 3, 18), (spider(6, 15), 4, 12),
                        (attach_paths(path_graph(30), 3), 3, 10)):
        for _ in range(40):
            assert _certified(relabelled(g, rng), ell) == opt


def test_certified_optima_match_tables_on_small_family_members(monkeypatch, request):
    rng = random.Random(1002)
    cases = [(spider(4, 6), 3), (spider(3, 8), 4), (spider(5, 4), 2),
             (attach_paths(path_graph(8), 3), 3)]
    monkeypatch.setattr(dpsolve, "SEARCH_BUDGET", -1)
    graphs = [(relabelled(g, rng), ell) for g, ell in cases for _ in range(3)]
    certified = [_certified(g, ell) for g, ell in graphs]
    request.getfixturevalue("dp_tables")
    for (g, ell), opt in zip(graphs, certified):
        stats: dict = {}
        assert solve_dp(g, range(g.n), ell, stats=stats)[0] == opt, (g.edges, ell)
        assert stats["table_sizes"], (g.edges, ell)
