import pytest

from conftest import cycle_graph, path_graph
from powerdom.bruteforce import solve_bf
from powerdom.dpsolve import solve_dp
from powerdom.generators import attach_paths
from powerdom.graphs import (
    Graph,
    GraphFormatError,
    emit_graph,
    induced_subgraph,
    parse_graph,
)
from powerdom.ipmodels import build_ip_ell, canonical_assignment
from powerdom.planar import LevelAssignment, build_blocks, ptas_detailed
from powerdom.propagation import is_feasible, propagate


def test_basic_construction():
    g = Graph(3, [(0, 1), (2, 1)])
    assert g.n == 3
    assert g.m == 2
    assert g.adjacency[1] == (0, 2)
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_induced_subgraph_keeps_order():
    g = cycle_graph(5)
    sub, idmap = induced_subgraph(g, [4, 0, 1])
    assert sub.n == 3
    assert idmap == {0: 0, 1: 1, 4: 2}
    # Edges 0-1 and 4-0 survive; 1-2, 2-3, 3-4 are cut.
    assert sub.m == 2
    assert sub.has_edge(0, 1) and sub.has_edge(0, 2)
    with pytest.raises(ValueError):
        induced_subgraph(g, [7])


def test_parse_emit_round_trip():
    g = cycle_graph(4)
    text = emit_graph(g)
    assert text == "p edge 4 4\ne 1 2\ne 1 4\ne 2 3\ne 3 4\n"
    again = parse_graph(text)
    assert again.n == g.n and again.edges == g.edges
    # Emission is canonical: parsing shuffled input emits the same bytes.
    shuffled = "p edge 4 4\ne 3 4\ne 2 3\ne 1 4\ne 1 2\n"
    assert emit_graph(parse_graph(shuffled)) == text


def test_parse_skips_comments_and_level_lines():
    g = parse_graph("c hello\np edge 2 1\ne 1 2\nl 1 1\nl 2 1\n")
    assert g.n == 2 and g.m == 1


def test_parse_errors_carry_line_numbers():
    # Bad ids are covered for every format in test_formats.
    for text, line in (
        ("e 1 2\n", 1),
        ("p edge 2 1\nq 1 2\n", 2),
        ("p edge 2 2\ne 1 2\n", None),
        ("", None),
        # A duplicate edge is refused on its own line, like a self-loop.
        ("p edge 2 2\ne 1 2\ne 2 1\n", 3),
    ):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert exc.value.line == line


def test_emit_levels_and_comments():
    g = path_graph(2)
    text = emit_graph(g, levels=[1, 2], comments=["made for a test"])
    assert text.startswith("c made for a test\n")
    assert "l 1 1\nl 2 2\n" in text
    with pytest.raises(ValueError):
        emit_graph(g, levels=[1])


P3 = path_graph(3)
FLAT = LevelAssignment((1, 1, 1))
ROUNDS = "round budget ell must be >= 1"
WHOLE = "round budget ell must be an integer"
REFUSALS = {
    "propagate ell": (lambda: propagate(P3, [0], 0), ROUNDS),
    "is_feasible ell": (lambda: is_feasible(P3, [0], [0], 0), ROUNDS),
    "solve_bf ell": (lambda: solve_bf(P3, [0], 0), ROUNDS),
    "solve_dp ell": (lambda: solve_dp(P3, [0], 0), ROUNDS),
    "ptas_detailed ell": (lambda: ptas_detailed(P3, FLAT, 0, 1), ROUNDS),
    "build_blocks ell": (lambda: build_blocks(FLAT, 1, 4, 0), ROUNDS),
    "build_ip_ell ell": (lambda: build_ip_ell(P3, 0), ROUNDS),
    "attach_paths ell": (lambda: attach_paths(P3, 0), ROUNDS),
    "canonical_assignment ell": (lambda: canonical_assignment(P3, [1], 0), ROUNDS),
    "canonical_assignment ell on the empty graph": (
        lambda: canonical_assignment(Graph(0, []), [], 0), ROUNDS),
    "propagate source": (lambda: propagate(P3, [7], 1), "source 7 out of range"),
    "is_feasible source": (lambda: is_feasible(P3, [7], [0], 1), "source 7 out of range"),
    "is_feasible target": (lambda: is_feasible(P3, [0], [7], 1), "target 7 out of range"),
    "solve_bf target": (lambda: solve_bf(P3, [7], 1), "target 7 out of range"),
    "solve_dp target": (lambda: solve_dp(P3, [7], 1), "target 7 out of range"),
    "canonical_assignment source": (
        lambda: canonical_assignment(P3, [7], 1), "source 7 out of range"),
    "propagate ell 2.5": (lambda: propagate(P3, [0], 2.5), WHOLE),
    "is_feasible ell 2.5": (lambda: is_feasible(P3, [0], [0], 2.5), WHOLE),
    "solve_bf ell 2.5": (lambda: solve_bf(P3, [0], 2.5), WHOLE),
    "solve_dp ell 2.5": (lambda: solve_dp(P3, [0], 2.5), WHOLE),
    "ptas_detailed ell 2.5": (lambda: ptas_detailed(P3, FLAT, 2.5, 1), WHOLE),
    "build_blocks ell 2.5": (lambda: build_blocks(FLAT, 1, 4, 2.5), WHOLE),
    "build_ip_ell ell 2.5": (lambda: build_ip_ell(P3, 2.5), WHOLE),
    "attach_paths ell 2.5": (lambda: attach_paths(P3, 2.5), WHOLE),
    "canonical_assignment ell 2.5": (lambda: canonical_assignment(P3, [1], 2.5), WHOLE),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_input_rules_raise_one_message(case):
    # Every layer states the round budget and node id rules through the
    # same two checks, so each refusal reads the same.
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
