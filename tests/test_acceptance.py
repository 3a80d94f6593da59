"""Acceptance suite.

One test per advertised guarantee.  Every test prints a single summary
line, "criterion <k> (<name>): PASS|FAIL", so the run transcript doubles
as a sign-off sheet.  Randomized checks use fixed seeds.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import cycle_graph, random_connected_graph
from powerdom.bruteforce import solve_bf, solve_domset_bf
from powerdom.dpsolve import solve_dp
from powerdom.generators import (
    LAMBDA_COPIES,
    MinRepInstance,
    attach_paths,
    connector_arm,
    minrep_cover_bf,
    minrep_to_pds,
    pendant_cycle,
    spider,
)
from powerdom.graphs import Graph
from powerdom.ipmodels import (
    build_ip_ell,
    build_ip_ordering,
    canonical_assignment,
    check_assignment,
    lp_matrices,
    objective_value,
)
from powerdom.orientation import TimedOrientation, orientation_from_trace, origin, validate
from powerdom.planar import LevelAssignment, ptas_detailed, validate_levels
from powerdom.propagation import INF, is_feasible, propagate


def _report(num: int, name: str, failures: list) -> None:
    print(f"criterion {num} ({name}): {'FAIL' if failures else 'PASS'}")
    assert not failures, failures[:5]


@pytest.mark.usefixtures("dp_tables")
def test_criterion_01_oracle_equivalence():
    failures = []
    nx = pytest.importorskip("networkx")
    # Every connected graph on up to 7 nodes, one instance per round budget.
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if n < 2 or n > 7 or not nx.is_connected(ag):
            continue
        g = Graph(n, list(ag.edges()))
        tv = frozenset(range(n))
        for ell in range(1, n):
            b = solve_bf(g, tv, ell)[0]
            d = solve_dp(g, tv, ell)[0]
            if b != d:
                failures.append(("atlas", sorted(g.edges), ell, b, d))
    rng = random.Random(20260818)
    for _ in range(200):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n, rng.uniform(0.15, 0.9))
        ell = rng.randint(1, max(1, n - 1))
        targets = frozenset(rng.sample(range(n), rng.randint(1, n)))
        b = solve_bf(g, targets, ell)[0]
        d = solve_dp(g, targets, ell)[0]
        if b != d:
            failures.append(("random", sorted(g.edges), sorted(targets), ell, b, d))
    _report(1, "oracle equivalence", failures)


@pytest.mark.usefixtures("dp_tables")
def test_criterion_02_spider_identities():
    failures = []
    for m in (2, 3, 4):
        for ell in (2, 3):
            g = spider(m, ell + 1)
            tv = frozenset(range(g.n))
            for budget, want in ((ell + 1, 1), (ell, m)):
                got_bf = solve_bf(g, tv, budget)[0]
                got_dp = solve_dp(g, tv, budget)[0]
                if not got_bf == got_dp == want:
                    failures.append((m, ell, budget, want, got_bf, got_dp))
    _report(2, "spider identities", failures)


def test_criterion_03_round_monotonicity():
    failures = []
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, rng.uniform(0.25, 0.9))
        targets = frozenset(rng.sample(range(n), rng.randint(1, n)))
        opts = [solve_bf(g, targets, k)[0] for k in range(1, n + 1)]
        if any(a < b for a, b in zip(opts, opts[1:])):
            failures.append((sorted(g.edges), sorted(targets), opts))
    _report(3, "round monotonicity", failures)


def test_criterion_04_orientation_equivalence():
    failures = []
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = random_connected_graph(rng, n, rng.uniform(0.2, 0.9))
        ell = rng.randint(1, n)
        s = frozenset(rng.sample(range(n), rng.randint(1, n)))
        trace = propagate(g, s, ell)
        targets = frozenset(v for v in range(n) if trace.times[v] <= ell)
        # Feasible side: the constructed certificate must check out and
        # name exactly the chosen origin set.
        to = orientation_from_trace(g, trace)
        bad = validate(g, to, targets)
        if bad is not None or origin(to) != s:
            failures.append(("construct", sorted(g.edges), sorted(s), ell, bad))
        # Converse side: anything that validates must be feasible.
        for _ in range(10):
            directed, undirected = set(), set()
            for e in g.edges:
                r = rng.random()
                if r < 0.4:
                    undirected.add(e)
                else:
                    directed.add(e if r < 0.7 else (e[1], e[0]))
            times = tuple(rng.choice((0, 1, 2, ell, INF)) for _ in range(n))
            cand = TimedOrientation(frozenset(directed), frozenset(undirected), times, ell)
            finite = frozenset(v for v in range(n) if times[v] != INF)
            if validate(g, cand, finite) is None:
                if not is_feasible(g, origin(cand), finite, ell):
                    failures.append(("converse", sorted(g.edges), times, ell))
    _report(4, "orientation equivalence", failures)


def _nested_polygon(sides: int) -> tuple[Graph, LevelAssignment]:
    edges = []
    for i in range(sides):
        edges += [(i, (i + 1) % sides),
                  (sides + i, sides + (i + 1) % sides),
                  (i, sides + i)]
    return Graph(2 * sides, edges), LevelAssignment((1,) * sides + (2,) * sides)


@pytest.mark.usefixtures("dp_tables")
def test_criterion_05_approximation_ratio():
    def grid(r, c):
        es = []
        for a in range(r):
            for b in range(c):
                v = a * c + b
                if b + 1 < c:
                    es.append((v, v + 1))
                if a + 1 < r:
                    es.append((v, v + c))
        g = Graph(r * c, es)
        lv = LevelAssignment(tuple(
            1 + min(a, b, r - 1 - a, c - 1 - b)
            for a in range(r) for b in range(c)
        ))
        return g, lv

    tri = _nested_polygon(3)
    sq = _nested_polygon(4)
    flat = lambda g: (g, LevelAssignment((1,) * g.n))
    bases = [
        (*flat(cycle_graph(8)), 1), (*flat(cycle_graph(8)), 2),
        (*flat(cycle_graph(12)), 1), (*flat(cycle_graph(12)), 2),
        (*grid(3, 4), 1), (*grid(3, 4), 2),
        (*grid(2, 6), 1), (*grid(2, 6), 2),
        (*grid(3, 3), 1), (*grid(3, 3), 2),
        (*flat(spider(4, 3)), 1), (*flat(spider(4, 3)), 2),
        (*tri, 1), (*tri, 2),
        (*sq, 2),
    ]
    failures = []
    runs = 0
    for g, lv, ell in bases:
        assert g.n <= 14 and validate_levels(g, lv) is None
        opt = solve_bf(g, range(g.n), ell)[0]
        for eps in (1, 0.5):
            runs += 1
            res = ptas_detailed(g, lv, ell, eps)
            feasible = is_feasible(g, res.solution, range(g.n), ell)
            # |output| <= (1 + (4*ell - 2)/k) * opt, cross-multiplied so the
            # comparison stays in integers.
            within = res.k * len(res.solution) <= (res.k + 4 * ell - 2) * opt
            if not (feasible and within):
                failures.append((g.n, ell, eps, opt, len(res.solution), res.k))
    assert runs == 30
    _report(5, "approximation ratio", failures)


def test_criterion_06_two_ring_regression():
    # Two concentric 8-cycles joined by spokes; sources are an outer node
    # and the inner node two spokes away.
    edges = []
    for i in range(8):
        edges += [(i, (i + 1) % 8), (8 + i, 8 + (i + 1) % 8), (i, 8 + i)]
    g = Graph(16, edges)
    trace = propagate(g, {0, 12}, 4)
    got = frozenset(v for v in range(16) if trace.times[v] <= 4)
    want = frozenset({0, 1, 4, 7, 8, 11, 12, 13})
    failures = [] if got == want else [sorted(got)]
    _report(6, "two-ring regression", failures)


def test_criterion_07_domination_reduction():
    failures = []
    rng = random.Random(7)
    for trial in range(50):
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n, rng.uniform(0.3, 0.9))
        ell = 2 + trial % 2
        h = attach_paths(g, ell)
        via_domset = solve_domset_bf(g)[0]
        via_pds = solve_bf(h, range(h.n), ell)[0]
        if via_domset != via_pds:
            failures.append((sorted(g.edges), ell, via_domset, via_pds))
    _report(7, "domination reduction", failures)


def test_criterion_08_pendant_cycle_bound():
    failures = []
    for m in (3, 6, 9):
        g = pendant_cycle(m)
        opt, witness = solve_bf(g, range(g.n), g.n)
        if opt < math.ceil(m / 3):
            failures.append((m, opt))
        if m == 9:
            if opt != 3:
                failures.append((m, opt, "expected 3"))
            if not is_feasible(g, witness, range(g.n), 2):
                failures.append((m, sorted(witness), "not done in two rounds"))
    _report(8, "pendant-cycle bound", failures)


def test_criterion_09_cover_reduction():
    failures = []
    toys = [
        MinRepInstance(1, 1, 1, 1, ((0, 0),)),
        MinRepInstance(1, 2, 1, 2, ((0, 0), (1, 1))),
        MinRepInstance(2, 1, 1, 1, ((0, 0), (1, 0))),
    ]
    for inst in toys:
        assert len(inst.super_edges()) <= 2 and inst.n_elements <= 8
        cover = minrep_cover_bf(inst)[0]
        g, info = minrep_to_pds(inst)
        bound = 4 + inst.n_elements + 10 * LAMBDA_COPIES * len(inst.edges)
        if g.n > bound:
            failures.append((inst, "size bound", g.n, bound))
        if solve_bf(g, range(g.n), g.n, size_cap=cover, force=True) is not None:
            failures.append((inst, "solution below cover+1"))
        found = solve_bf(g, range(g.n), g.n, size_cap=cover + 1, force=True)
        if found is None or found[0] != cover + 1:
            failures.append((inst, "optimum is not cover+1", found))
    # One-way contract of the connector gadget: with the near endpoint lit
    # the arm finishes in three rounds, from the far end it never starts.
    arm, roles = connector_arm()
    fwd = propagate(arm, {roles["master"], roles["center"]}, 3).times
    if fwd[roles["beta"]] != 2 or fwd[roles["terminal"]] != 3:
        failures.append(("forward", fwd))
    back = propagate(arm, {roles["master"], roles["terminal"]}, arm.n).times
    if back[roles["center"]] != INF or back[roles["beta"]] != INF:
        failures.append(("backward", back))
    _report(9, "cover reduction", failures)


def test_criterion_10_assignment_bridge():
    failures = []
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, rng.uniform(0.25, 0.9))
        ell = rng.randint(1, 4)
        while True:
            s = frozenset(rng.sample(range(n), rng.randint(1, n)))
            if is_feasible(g, s, range(n), ell):
                break
        model = build_ip_ell(g, ell)
        a = canonical_assignment(g, s, ell)
        bad = check_assignment(model, a)
        if bad or objective_value(model, a) != len(s):
            failures.append((sorted(g.edges), sorted(s), ell, bad))
    # Fractional certificate: uniform 1/18 node weights and 1/36 edge
    # weights satisfy every relaxed ordering row at total weight one.
    g = pendant_cycle(9)
    model = build_ip_ordering(g, with_valid_ineq=True)
    cert = {name: Fraction(1, 36) if name.startswith("Y") else Fraction(1, 18)
            for name in model.variables}
    bad = check_assignment(model, cert)
    if bad or objective_value(model, cert) != 1:
        failures.append(("certificate", bad))
    _report(10, "assignment bridge", failures)


def test_criterion_11_structural_counts():
    failures = []
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n, 0.5)
        ell = rng.randint(1, 3)
        sq = sum(g.degree(v) ** 2 for v in range(g.n))
        counts = {}
        for c in build_ip_ell(g, ell, with_valid_ineqs=True).constraints:
            counts[int(c.tag[1])] = counts.get(int(c.tag[1]), 0) + 1
        want = {1: n, 2: n, 3: ell * sq, 6: 1}
        if ell > 1:
            want[4] = n * (ell - 1)
            want[7] = ell - 1
        if counts != want:
            failures.append(("ell rows", n, ell, counts, want))
        counts = {}
        for c in build_ip_ordering(g, with_valid_ineq=True).constraints:
            counts[int(c.tag[1])] = counts.get(int(c.tag[1]), 0) + 1
        want = {1: n, 2: n, 3: (n - 1) * sq, 6: n - 1}
        if n > 1:
            want[4] = n * (n - 1)
        if counts != want:
            failures.append(("ordering rows", n, counts, want))
    _report(11, "structural counts", failures)


def test_criterion_12_relaxation_gap():
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    g = cycle_graph(9)
    optima = []
    for with_ineqs in (False, True):
        model = build_ip_ell(g, 3, with_valid_ineqs=with_ineqs)
        c, a_ub, b_ub, a_eq, b_eq = lp_matrices(model)
        res = linprog(c, A_ub=a_ub or None, b_ub=b_ub or None,
                      A_eq=a_eq or None, b_eq=b_eq or None,
                      bounds=(0, 1), method="highs")
        assert res.status == 0
        optima.append(res.fun)
    failures = []
    if abs(optima[0] - 0.6) > 1e-6:
        failures.append(("without strengthening", optima[0]))
    if abs(optima[1] - 1.0) > 1e-6:
        failures.append(("with strengthening", optima[1]))
    _report(12, "relaxation gap", failures)
