"""Instance builders, seeded relabelling and the workload op lists.

Every graph is built from a plain edge list, so nothing here depends on the
code under test except the `Graph` container and the generators the issue
names (`spider`, `pendant_cycle`, `attach_paths`).  A seed permutes node ids
and carries levels, rotation systems and source sets along with them; the
optimum of an instance is invariant under relabelling, so the stored optima
in `optima.json` hold for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from powerdom.generators import attach_paths, pendant_cycle, spider
from powerdom.graphs import Graph
from powerdom.planar import RotationSystem


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def grid(rows: int, cols: int) -> tuple[Graph, RotationSystem]:
    """rows x cols grid, node r*cols+c, with its straight-line embedding."""

    def at(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    order = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((at(r, c), at(r, c + 1)))
            if r + 1 < rows:
                edges.append((at(r, c), at(r + 1, c)))
            # Counter-clockwise with rows growing downward: right, up, left, down.
            rot = []
            if c + 1 < cols:
                rot.append(at(r, c + 1))
            if r > 0:
                rot.append(at(r - 1, c))
            if c > 0:
                rot.append(at(r, c - 1))
            if r + 1 < rows:
                rot.append(at(r + 1, c))
            order.append(tuple(rot))
    return Graph(rows * cols, edges), RotationSystem(tuple(order), (at(0, 1), at(0, 0)))


def stacked_cycles(length: int, layers: int) -> tuple[Graph, RotationSystem]:
    """C_length x P_layers drawn as nested cycles, layer 0 outermost.

    Node i*length+j sits on layer i at angle j.  C3 x Pm is the stacked
    triangle family; C8 x P2 is the two-ring fixture of the test suite.
    """

    def at(i: int, j: int) -> int:
        return i * length + j % length

    edges = []
    order = []
    for i in range(layers):
        for j in range(length):
            edges.append((at(i, j), at(i, j + 1)))
            if i + 1 < layers:
                edges.append((at(i, j), at(i + 1, j)))
            # Counter-clockwise: outward, next angle, inward, previous angle.
            rot = []
            if i > 0:
                rot.append(at(i - 1, j))
            rot.append(at(i, j + 1))
            if i + 1 < layers:
                rot.append(at(i + 1, j))
            rot.append(at(i, j - 1))
            order.append(tuple(rot))
    return Graph(length * layers, edges), RotationSystem(tuple(order), (at(0, 0), at(0, 1)))


# Builders by family; each returns (graph, rotation system or None).
FAMILIES = {
    "path": lambda n: (path(n), None),
    "spider": lambda m, k: (spider(m, k), None),
    "pendant_cycle": lambda m: (pendant_cycle(m), None),
    "attach_path": lambda n, a: (attach_paths(path(n), a), None),
    "grid": grid,
    "stacked": stacked_cycles,
}


@dataclass(frozen=True)
class Instance:
    """A named graph, relabelled for one seed; `perm[v]` is v's new id."""

    name: str
    graph: Graph
    rotation: RotationSystem | None
    perm: tuple[int, ...]

    def fresh_graph(self) -> Graph:
        """An equal Graph object with no cached per-graph data."""
        return Graph(self.graph.n, self.graph.edges)


def build(name: str, seed: int, round_no: int = 0) -> Instance:
    """Instance `family:a,b` (for example `grid:3,5`), relabelled for one
    seed and round; each round of passes sees a fresh relabelling."""
    family, _, args = name.partition(":")
    g, rs = FAMILIES[family](*(int(a) for a in args.split(",")))
    perm = list(range(g.n))
    random.Random(f"{seed}/{round_no}/{name}").shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    if rs is not None:
        order = [()] * g.n
        for v, rot in enumerate(rs.order):
            order[perm[v]] = tuple(perm[u] for u in rot)
        a, b = rs.outer_face
        rs = RotationSystem(tuple(order), (perm[a], perm[b]))
    return Instance(name, h, rs, tuple(perm))


# ---------------------------------------------------------------------------
# Workloads.  Each is a fixed list of ops that one client issues back to
# back in passes; the seed relabels every instance afresh for each round of
# passes and orders the ops of each pass.  Single ops take about 0.1 to 1 s
# (2-core Xeon, Python 3.11), so that a run holds several whole passes.
# Each list has an odd number of ops, so that the median
# latency falls inside one op's cluster of samples rather than between two,
# and its costliest ops give more than ten samples per run, so that the
# tail does too.


@dataclass(frozen=True)
class Op:
    """One library solve (`dp`, `ptas`) or one command line call (`cli`).

    A cli op's argv names instance files as `@<instance>` and other files
    by plain name; its standard output goes to `out`, and `check` says how
    that output is verified.  Ops sharing a `chain` run in list order.
    """

    kind: str
    instance: str = ""
    ell: int = 0
    argv: tuple[str, ...] = ()
    out: str = ""
    check: str = ""
    chain: int = -1

    @property
    def key(self) -> str:
        return f"{self.instance}@{self.ell}"


def _bf(chain: int, instance: str, ell: int) -> Op:
    return Op("cli", instance, ell,
              ("solve", f"@{instance}", "--ell", str(ell), "--method", "bf", "--json"),
              out=f"bf{chain}.json", check="opt", chain=chain)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # Width 1: the greedy bound and the singleton bounds (`propagate`)
    # dominate, and tables stay at a few hundred states or fewer.
    "sparse-long": (
        Op("dp", "path:90", 2),
        Op("dp", "path:100", 3),
        Op("dp", "path:105", 4),
        Op("dp", "path:110", 3),
        Op("dp", "spider:8,12", 2),
        Op("dp", "spider:9,12", 3),
        Op("dp", "spider:6,15", 4),
        Op("dp", "spider:10,15", 2),
        Op("dp", "attach_path:30,3", 3),
    ),
    # Widths 2 to 4 on small graphs: table work is nearly all of the time
    # and `propagate` a fraction of a percent.
    "grid-width": (
        Op("dp", "grid:3,4", 2),
        Op("dp", "grid:3,5", 2),
        Op("dp", "grid:4,4", 1),
        Op("dp", "pendant_cycle:11", 3),
        Op("dp", "pendant_cycle:12", 3),
        Op("dp", "pendant_cycle:15", 2),
        Op("dp", "pendant_cycle:16", 2),
        Op("dp", "pendant_cycle:18", 2),
        Op("dp", "pendant_cycle:20", 2),
        Op("dp", "stacked:5,2", 2),
        Op("dp", "stacked:6,2", 2),
    ),
    # Leveled planar graphs at eps=1, ell=1: many small block solves.
    # Every block of the stacked triangles C3 x Pm is distinct; on the
    # grids and the prisms Ck x P2 one block spans the whole graph and the
    # block cache answers the repeats.
    "ptas-planar": (
        Op("ptas", "stacked:3,4", 1),
        Op("ptas", "stacked:3,5", 1),
        Op("ptas", "stacked:4,3", 1),
        Op("ptas", "stacked:5,2", 1),
        Op("ptas", "stacked:6,2", 1),
        Op("ptas", "grid:3,4", 1),
        Op("ptas", "grid:3,5", 1),
        Op("ptas", "grid:3,6", 1),
        Op("ptas", "grid:4,3", 1),
    ),
    # The user's shell path: one `python -m powerdom` process per op.
    "cli-pipeline": (
        Op("cli", argv=("gen", "spider", "10", "15"), out="gen-spider.gr", check="sha", chain=0),
        Op("cli", argv=("gen", "pendant-cycle", "20"), out="gen-pc.gr", check="sha", chain=1),
        Op("cli", argv=("gen", "minrep", "toy.minrep"), out="gen-minrep.gr", check="sha", chain=2),
        Op("cli", argv=("td", "gen-minrep.gr"), out="minrep.td", check="td", chain=2),
        Op("cli", "spider:40,20", argv=("td", "@spider:40,20"), out="spider.td", check="td", chain=3),
        Op("cli", "path:1000", argv=("closure", "@path:1000", "--sources", "{sources}"),
           out="closure.txt", check="closure", chain=4),
        Op("cli", "pendant_cycle:15", argv=("td", "@pendant_cycle:15"), out="pc.td", check="td", chain=5),
        Op("cli", "pendant_cycle:15", 2,
           ("solve", "@pendant_cycle:15", "--ell", "2", "--method", "dp", "--td", "pc.td", "--json"),
           out="dp5.json", check="opt", chain=5),
        _bf(6, "path:22", 2),
        _bf(7, "path:24", 3),
        _bf(8, "spider:4,5", 2),
        _bf(9, "spider:3,7", 3),
        _bf(10, "pendant_cycle:10", 2),
    ),
}

# A tiny representative-cover instance; `gen minrep` reduces it.
TOY_MINREP = "minrep 2 2 2 2\ne 1 1\ne 2 3\ne 3 2\ne 4 4\ne 1 4\n"


def pass_order(ops: tuple[Op, ...], seed: int, round_no: int) -> list[int]:
    """Op indices of one pass: chains shuffled by seed, each kept in order."""
    chains: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        chains.setdefault(op.chain if op.chain >= 0 else -1 - i, []).append(i)
    groups = list(chains.values())
    random.Random(f"{seed}/{round_no}").shuffle(groups)
    return [i for grp in groups for i in grp]


def instance_names(ops: tuple[Op, ...]) -> list[str]:
    return sorted({op.instance for op in ops if op.instance})


def closure_sources(seed: int, round_no: int, n: int) -> tuple[int, int]:
    """Two source positions on the unrelabelled path, chosen by seed."""
    rng = random.Random(f"{seed}/{round_no}/closure")
    return rng.randrange(n // 3), rng.randrange(2 * n // 3, n)


def write_graph(g: Graph) -> str:
    """The `p edge` text format with 1-based ids."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
