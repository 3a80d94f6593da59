import itertools
from pathlib import Path

import pytest

from conftest import cycle_graph, grid_graph
from powerdom import dpsolve, planar, treedecomp
from powerdom.bruteforce import solve_bf
from powerdom.generators import spider
from powerdom.graphs import Graph, GraphFormatError, emit_graph, parse_graph
from powerdom.planar import (
    LevelAssignment,
    RotationSystem,
    build_blocks,
    compute_levels,
    parse_levels,
    ptas,
    ptas_detailed,
    validate_levels,
)
from powerdom.propagation import is_feasible


def two_ring() -> Graph:
    edges = []
    for i in range(8):
        edges.append((i, (i + 1) % 8))
        edges.append((8 + i, 8 + (i + 1) % 8))
        edges.append((i, 8 + i))
    return Graph(16, edges)


def stacked_triangles(layers: int) -> tuple[Graph, LevelAssignment]:
    # C3 x P_layers drawn as nested triangles; layer i is level i + 1.
    edges = [(3 * i + j, 3 * i + (j + 1) % 3) for i in range(layers) for j in range(3)]
    edges += [(3 * i + j, 3 * i + 3 + j) for i in range(layers - 1) for j in range(3)]
    return Graph(3 * layers, edges), LevelAssignment(tuple(i // 3 + 1 for i in range(3 * layers)))


def grid_levels(r: int, c: int) -> LevelAssignment:
    # Distance to the outer boundary, counted from 1.
    return LevelAssignment(tuple(
        1 + min(a, b, r - 1 - a, c - 1 - b)
        for a in range(r) for b in range(c)
    ))


def test_cycle_is_all_outer():
    c8 = cycle_graph(8)
    rs = RotationSystem(tuple(((i - 1) % 8, (i + 1) % 8) for i in range(8)), (0, 1))
    assert compute_levels(c8, rs).level == (1,) * 8


def test_two_ring_levels():
    rot = [((i - 1) % 8, (i + 1) % 8, 8 + i) for i in range(8)]
    rot += [(8 + (i - 1) % 8, i, 8 + (i + 1) % 8) for i in range(8)]
    la = compute_levels(two_ring(), RotationSystem(tuple(rot), (0, 1)))
    assert la.level == (1,) * 8 + (2,) * 8
    assert la.max_level == 2


def test_nested_triangles_levels():
    tri = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                    (0, 3), (1, 4), (2, 5)])
    rot = [((i - 1) % 3, (i + 1) % 3, 3 + i) for i in range(3)]
    rot += [(3 + (i - 1) % 3, i, 3 + (i + 1) % 3) for i in range(3)]
    la = compute_levels(tri, RotationSystem(tuple(rot), (0, 1)))
    assert la.level == (1, 1, 1, 2, 2, 2)


def test_bad_rotations_rejected():
    c8 = cycle_graph(8)
    # Rotation listing the wrong neighbors.
    with pytest.raises(ValueError):
        compute_levels(c8, RotationSystem(tuple((i, (i + 1) % 8) for i in range(8)), (0, 1)))
    # K5 is not planar, so no rotation can satisfy the face count.
    k5 = Graph(5, list(itertools.combinations(range(5), 2)))
    rot = tuple(tuple(sorted(set(range(5)) - {v})) for v in range(5))
    with pytest.raises(ValueError):
        compute_levels(k5, RotationSystem(rot, (0, 1)))


def test_levels_of_tiny_and_misrooted_embeddings():
    # No edges: nothing to peel on 0 nodes, one exterior node on 1, and two
    # isolated nodes are no connected embedding.
    assert compute_levels(Graph(0, []), RotationSystem((), (0, 1))).level == ()
    assert compute_levels(Graph(1, []), RotationSystem(((),), (0, 1))).level == (1,)
    with pytest.raises(ValueError, match="graph is not connected"):
        compute_levels(Graph(2, []), RotationSystem(((), ()), (0, 1)))
    c4 = cycle_graph(4)
    rot = tuple(((i - 1) % 4, (i + 1) % 4) for i in range(4))
    for dart in ((0, 2), (1, 1)):
        with pytest.raises(ValueError, match="outer face dart is not an edge of the graph"):
            compute_levels(c4, RotationSystem(rot, dart))


def test_block_arguments_out_of_range():
    lv = LevelAssignment((1, 2, 3))
    with pytest.raises(ValueError, match="block width k must be >= 1"):
        build_blocks(lv, 1, 0, 1)
    for i in (0, 5):
        with pytest.raises(ValueError, match=f"shift index {i} outside 1..4"):
            build_blocks(lv, i, 4, 1)
    assert build_blocks(LevelAssignment(()), 1, 4, 1) == []


def test_validate_levels():
    c8 = cycle_graph(8)
    assert validate_levels(c8, LevelAssignment((1,) * 8)) is None
    assert validate_levels(c8, LevelAssignment((1,) * 7)) is not None
    assert validate_levels(c8, LevelAssignment((2,) * 8)) is not None
    # Adjacent levels may differ by at most one.
    assert validate_levels(Graph(2, [(0, 1)]), LevelAssignment((1, 3))) is not None


def test_parse_levels_round_trip():
    la = LevelAssignment((1,) * 8 + (2,) * 8)
    text = emit_graph(two_ring(), levels=la.level)
    assert parse_levels(text, 16) == la
    assert parse_levels("p edge 2 1\ne 1 2\n", 2) is None
    with pytest.raises(GraphFormatError):
        parse_levels("l 1 1\n", 2)
    with pytest.raises(GraphFormatError):
        parse_levels("l 1 0\nl 2 1\n", 2)
    with pytest.raises(GraphFormatError):
        parse_levels("l 1 1\nl 1 2\n", 2)


def test_block_formula():
    lv = LevelAssignment(tuple(range(1, 10)))
    blocks = build_blocks(lv, 1, 4, 1)
    assert blocks[0].C == lv.between(1, 4)
    assert blocks[0].B == lv.between(1, 5)
    # A high shift reaches blocks below the first level.
    assert build_blocks(lv, 3, 4, 1)[0].j == -1
    # Every shift covers all nodes with its core sets.
    for i in range(1, 5):
        cov = set()
        for b in build_blocks(lv, i, 4, 1):
            assert b.C <= b.B
            cov |= b.C
        assert cov == set(range(9))
    lvs = LevelAssignment((1, 1, 2))
    (only,) = build_blocks(lvs, 1, 4, 2)
    assert only.B == only.C == frozenset(range(3))


def test_ptas_exact_when_one_block_suffices():
    sp = spider(4, 3)
    la = LevelAssignment((1,) * sp.n)
    assert len(ptas(sp, la, 3, 1)) == solve_bf(sp, range(sp.n), 3)[0] == 1
    res = ptas_detailed(sp, la, 3, 1)
    assert res.k == 12 and res.shift == 1


@pytest.mark.usefixtures("dp_tables")
def test_ptas_ratio_on_grids():
    for (r, c), ell, eps in [
        ((3, 4), 1, 1), ((3, 4), 2, 1), ((2, 6), 1, 0.5), ((3, 3), 2, 0.5),
    ]:
        g = grid_graph(r, c)
        lv = grid_levels(r, c)
        assert validate_levels(g, lv) is None
        res = ptas_detailed(g, lv, ell, eps)
        opt = solve_bf(g, range(g.n), ell)[0]
        # Guaranteed ratio, checked without any floating point.
        assert res.k * len(res.solution) <= (res.k + 4 * ell - 2) * opt
        assert is_feasible(g, res.solution, range(g.n), ell)


def test_eps_domain():
    sp = spider(2, 2)
    la = LevelAssignment((1,) * sp.n)
    for bad in (0, -1, 2, 1.5, "1/0", float("inf")):
        with pytest.raises(ValueError):
            ptas(sp, la, 1, bad)
    with pytest.raises(ValueError):
        ptas(sp, LevelAssignment((1,) * (sp.n - 1)), 1, 1)


def test_ptas_builds_decompositions_only_for_table_blocks(monkeypatch):
    # A block settled without tables needs no decomposition; every block
    # solve that builds tables builds exactly one.
    built = {"heuristic_td": 0, "to_nice": 0}
    for name in built:
        def counted(*args, _orig=getattr(treedecomp, name), _name=name):
            built[_name] += 1
            return _orig(*args)
        for mod in (dpsolve, planar):
            monkeypatch.setattr(mod, name, counted, raising=False)
    tabled = []
    solve = planar.solve_dp

    def solve_and_record(*args):
        stats: dict = {}
        result = solve(*args, stats=stats)
        tabled.append(bool(stats["table_sizes"]))
        return result

    monkeypatch.setattr(planar, "solve_dp", solve_and_record)
    g, lv = stacked_triangles(6)
    # At the default budget the sweep, with its packing bound, or the
    # subset search settles every block.
    ptas_detailed(g, lv, 1, 1)
    assert tabled and not any(tabled)
    assert built == {"heuristic_td": 0, "to_nice": 0}
    tabled.clear()
    monkeypatch.setattr(dpsolve, "SEARCH_BUDGET", -1)
    ptas_detailed(g, lv, 1, 1)
    assert 0 < sum(tabled) < len(tabled)
    assert built == {"heuristic_td": sum(tabled), "to_nice": sum(tabled)}


def test_two_ring_fixture_at_ell3_builds_no_tables():
    # Size 2 is ruled out by trying C(16, 2) = 120 pairs; the tables it
    # took before held up to 83,370 states, and the PTAS's blocks more.
    text = (Path(__file__).parent / "fixtures" / "tworing.gr").read_text()
    g = parse_graph(text)
    stats: dict = {}
    opt, _ = dpsolve.solve_dp(g, range(g.n), 3, stats=stats)
    assert opt == solve_bf(g, range(g.n), 3)[0] == 3
    assert stats["upper_bound"] == 3 and stats["table_sizes"] == []
    res = ptas_detailed(g, parse_levels(text, g.n), 3, 1)
    assert len(res.solution) == 3 and is_feasible(g, res.solution, range(g.n), 3)
