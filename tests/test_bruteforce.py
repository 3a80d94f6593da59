import itertools
import random
from math import comb

import pytest

from conftest import cycle_graph, naive_times, path_graph, random_graph, star_graph
from powerdom import bruteforce
from powerdom.bruteforce import Budget, BudgetSpent, first_cover, solve_bf, solve_domset_bf
from powerdom.dpsolve import _origins
from powerdom.generators import pendant_cycle, spider
from powerdom.propagation import is_feasible


def test_star_needs_one():
    g = star_graph(5)
    assert solve_bf(g, range(g.n), 1) == (1, frozenset({0}))


def test_spider_identities():
    g = spider(3, 3)
    opt_big, _ = solve_bf(g, range(g.n), 3)
    opt_small, _ = solve_bf(g, range(g.n), 2)
    assert opt_big == 1
    assert opt_small == 3


def test_witness_is_canonical_and_feasible():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7), 0.4)
        ell = rng.randint(1, max(1, g.n - 1))
        opt, witness = solve_bf(g, range(g.n), ell)
        assert len(witness) == opt
        assert is_feasible(g, witness, range(g.n), ell)
        # No smaller set works, and no earlier set of the same size does.
        again = solve_bf(g, range(g.n), ell)
        assert again == (opt, witness)


def test_size_cap_returns_none_when_exceeded():
    g = spider(3, 3)
    assert solve_bf(g, range(g.n), 2, size_cap=2) is None
    capped = solve_bf(g, range(g.n), 2, size_cap=3)
    assert capped is not None and capped[0] == 3


def test_empty_targets_cost_nothing():
    g = cycle_graph(4)
    assert solve_bf(g, set(), 1) == (0, frozenset())


def test_node_limit_guard():
    g = path_graph(30)
    with pytest.raises(ValueError):
        solve_bf(g, range(g.n), 2)
    with pytest.raises(ValueError):
        solve_domset_bf(g)


def test_domset_examples():
    assert solve_domset_bf(star_graph(6))[0] == 1
    assert solve_domset_bf(cycle_graph(6))[0] == 2
    assert solve_domset_bf(path_graph(3))[0] == 1


def test_domset_agrees_with_one_round_solver():
    rng = random.Random(77)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.7))
        assert solve_domset_bf(g)[0] == solve_bf(g, range(g.n), 1)[0]


def _reference_first_cover(g, size, targets, ell, pool):
    """First set of size nodes of pool, as itertools orders them, whose
    naive run observes every target within ell rounds."""
    for combo in itertools.combinations(pool, size):
        times = naive_times(g, combo, ell)
        if all(times[v] <= ell for v in targets):
            return frozenset(combo)
    return None


def test_first_cover_matches_plain_combinations():
    # The distance cut may drop only sets that cannot work, so the set
    # found must be the one a plain walk over every set finds, whatever
    # the pool and its order.
    rng = random.Random(2718)
    found = missed = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))  # often disconnected
        targets = frozenset(v for v in range(n) if rng.random() < rng.choice((0.3, 0.7, 1)))
        tmask = sum(1 << v for v in targets)
        closed = g.closed_masks()
        everyone = list(range(n))
        shuffled = rng.sample(everyone, n)
        restricted = rng.sample(everyone, rng.randint(0, n))
        for ell in range(1, max(2, n)):
            for pool in (everyone, shuffled, restricted):
                for size in range(len(pool) + 2):
                    want = _reference_first_cover(g, size, targets, ell, pool)
                    case = (g.edges, sorted(targets), ell, pool, size)
                    assert first_cover(closed, size, tmask, ell, pool) == want, case
                    if pool is everyone:
                        assert first_cover(closed, size, tmask, ell) == want, case
                    found += want is not None
                    missed += want is None
    assert found > 5000 and missed > 5000, (found, missed)


def test_distance_cut_spares_the_spreads(monkeypatch):
    # No five 2-balls on the 18-cycle cover every pendant, so the search at
    # size 5 must turn down nearly all 8,568 sets of candidates unspread.
    g = pendant_cycle(18)
    origins = _origins(g)
    cands = [v for v in range(g.n) if origins >> v & 1]
    assert comb(len(cands), 5) == 8568
    spreads = 0
    spread = bruteforce.spread

    def counted(*args, **kwargs):
        nonlocal spreads
        spreads += 1
        return spread(*args, **kwargs)

    monkeypatch.setattr(bruteforce, "spread", counted)
    assert first_cover(g.closed_masks(), 5, (1 << g.n) - 1, 2, cands) is None
    assert spreads < 8568 / 100, spreads
    # The count sees the spreads that do happen.
    assert first_cover(g.closed_masks(), 6, (1 << g.n) - 1, 2, cands) is not None
    assert spreads >= 1


def test_a_walk_keeps_its_answer_when_its_last_loop_spends_the_budget():
    # No node dominates the 7-path alone and no pair does.  The size-1
    # walk is one loop over two sets, so a budget of 1 is spent only as
    # the walk ends, and its answer stands; the size-2 walk reaches six
    # sets and gives up after three.  A negative budget gives up at once.
    closed = path_graph(7).closed_masks()
    tmask = (1 << 7) - 1
    budget = Budget(1)
    assert first_cover(closed, 1, tmask, 1, None, budget) is None
    assert (budget.sets, budget.left) == (2, -1)
    for left, sets in ((1, 3), (-1, 0)):
        budget = Budget(left)
        with pytest.raises(BudgetSpent):
            first_cover(closed, 2, tmask, 1, None, budget)
        assert budget.sets == sets
