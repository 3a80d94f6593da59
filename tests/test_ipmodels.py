import random
from fractions import Fraction

import pytest

from conftest import path_graph, random_connected_graph
from powerdom import ipmodels
from powerdom.generators import pendant_cycle, spider
from powerdom.graphs import Graph
from powerdom.ipmodels import (
    build_ip_ell,
    build_ip_ordering,
    canonical_assignment,
    check_assignment,
    emit_lp,
    objective_value,
    parse_solution,
)
from powerdom.propagation import propagate


def family_counts(model) -> dict[int, int]:
    out: dict[int, int] = {}
    for c in model.constraints:
        fam = int(c.tag[1])
        out[fam] = out.get(fam, 0) + 1
    return out


def test_round_model_k2():
    model = build_ip_ell(Graph(2, [(0, 1)]), 1)
    assert family_counts(model) == {1: 2, 2: 2, 3: 2}
    assert len(model.constraints) == 6
    assert model.objective == ("x_v1", "x_v2")


def test_round_model_counts():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 8), 0.5)
        ell = rng.randint(1, 4)
        model = build_ip_ell(g, ell, with_valid_ineqs=True)
        sq = sum(g.degree(v) ** 2 for v in range(g.n))
        want = {1: g.n, 2: g.n, 3: ell * sq, 6: 1, 7: ell - 1}
        if ell > 1:
            want[4] = g.n * (ell - 1)
        else:
            want.pop(7)
        assert family_counts(model) == want
        # Every declared variable, and nothing else, appears somewhere.
        assert len(model.variables) == g.n + g.n * ell + 2 * g.m * ell
        used = set(model.objective)
        for c in model.constraints:
            used |= {name for name, _ in c.coeffs}
        assert used <= set(model.variables)


@pytest.mark.parametrize("valid", [False, True])
def test_size_limit_counts_every_coefficient(valid, monkeypatch):
    # Both builders count their coefficients before building a row: a model
    # of exactly MAX_COEFFS is built, one over it is refused.
    rng = random.Random(3)
    graphs = [Graph(1, []), Graph(4, []), path_graph(3), spider(3, 2), pendant_cycle(4)]
    graphs += [random_connected_graph(rng, rng.randint(2, 7), 0.5) for _ in range(6)]
    builders = [lambda g, ell=ell: build_ip_ell(g, ell, valid) for ell in (1, 2, 5)]
    builders.append(lambda g: build_ip_ordering(g, valid))
    for g in graphs:
        for build in builders:
            model = build(g)
            size = sum(len(c.coeffs) for c in model.constraints)
            monkeypatch.setattr(ipmodels, "MAX_COEFFS", size)
            assert build(g) == model
            monkeypatch.setattr(ipmodels, "MAX_COEFFS", size - 1)
            with pytest.raises(ValueError, match=f"would have {size} coefficients"):
                build(g)
            monkeypatch.undo()


def test_canonical_assignment_path():
    g = path_graph(3)
    model = build_ip_ell(g, 2)
    a = canonical_assignment(g, {1}, 2)
    assert check_assignment(model, a) == []
    assert objective_value(model, a) == 1


def test_canonical_tracks_propagation():
    g = spider(3, 3)
    s = {0}
    ell = 4
    a = canonical_assignment(g, s, ell)
    times = propagate(g, s, ell).times
    for v in range(g.n):
        for t in range(1, ell + 1):
            assert a[f"z_t{t}_v{v + 1}"] == (1 if times[v] <= t else 0)
    # Propagation finishes early here, so exactly the last growth row fails.
    model = build_ip_ell(g, ell, with_valid_ineqs=True)
    bad = check_assignment(model, a)
    assert bad == ["(7)[t=4]"]


def test_degenerate_assignments():
    g = path_graph(3)
    model = build_ip_ell(g, 2)
    ones = {v: 1 for v in model.variables}
    assert check_assignment(model, ones) == []
    zeros = {v: 0 for v in model.variables}
    assert any(r.startswith("(1)") for r in check_assignment(model, zeros))


def test_canonical_rejects_infeasible():
    g = path_graph(5)
    with pytest.raises(ValueError):
        canonical_assignment(g, {0}, 1)


def test_check_requires_every_variable():
    g = Graph(2, [(0, 1)])
    model = build_ip_ell(g, 1)
    with pytest.raises(ValueError):
        check_assignment(model, {"x_v1": 1})


def test_ordering_model_k2():
    g = Graph(2, [(0, 1)])
    model = build_ip_ordering(g)
    assert family_counts(model) == {1: 2, 2: 2, 3: 2, 4: 2}
    assert all(c.sense == "=" for c in model.constraints if c.tag[1] in "12")
    withv = build_ip_ordering(g, with_valid_ineq=True)
    assert family_counts(withv)[6] == g.n - 1
    assert len(model.variables) == g.n + g.n * g.n + 2 * g.m * (g.n - 1)


def test_fractional_ordering_certificate():
    # Uniform weights satisfy every relaxed row with total weight one.
    g = pendant_cycle(9)
    model = build_ip_ordering(g, with_valid_ineq=True)
    a: dict[str, Fraction] = {}
    for name in model.variables:
        a[name] = Fraction(1, 36) if name.startswith("Y") else Fraction(1, 18)
    assert check_assignment(model, a) == []
    assert objective_value(model, a) == 1


def test_emit_lp_layout():
    g = Graph(2, [(0, 1)])
    text = emit_lp(build_ip_ell(g, 1))
    assert text == emit_lp(build_ip_ell(g, 1))
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert " c3_u1_v2_w1_t1: Y_t1_1_to_2 - z_t1_v1 <= 0" in text
    assert "Binary" in text and "Bounds" not in text
    relaxed = emit_lp(build_ip_ell(g, 1), relax=True)
    assert "Binary" not in relaxed
    assert " 0 <= x_v1 <= 1" in relaxed
    assert relaxed.rstrip().endswith("End")


def test_parse_solution():
    sol = parse_solution("# comment\nx_v1 1\nx_v2 0.5\nz_t1_v1 1/3\n\n")
    assert sol == {"x_v1": 1, "x_v2": Fraction(1, 2), "z_t1_v1": Fraction(1, 3)}
    with pytest.raises(ValueError, match="line 2"):
        parse_solution("x_v1 1\nx_v1 0\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_solution("x_v1\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_solution("x_v1 abc\n")
