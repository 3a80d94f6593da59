"""One workload in one process: set up, run whole passes, report each op.

Started by `run.py`, never by hand.  Writes one JSON object per line to
standard output: `setup`, then one `op` record per op, `pass` records as
passes finish, and a final `done` record with peak memory and, in traced
runs, the per-layer metrics.  A failing op is reported and the loop goes
on; the parent restarts this process at the next op if it dies.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import instances  # noqa: E402
import powerdom  # noqa: E402
from powerdom import cli, dpsolve, planar  # noqa: E402
from powerdom.propagation import is_feasible  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60
PTAS_EPS = 1


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def reference_slice() -> float:
    """Seconds for a fixed piece of plain Python work on dicts, tuples and
    big integers, which does not involve powerdom."""
    t0 = time.perf_counter()
    d: dict = {}
    x = 0
    for i in range(20000):
        k = (i & 1023, i >> 4)
        d[k] = d.get(k, 0) + 1
        x ^= (1 << (i & 255)) | i
    return time.perf_counter() - t0


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


# -- independent output checks for the command line ops -----------------------

def read_graph_file(path: Path) -> tuple[int, list[tuple[int, int]]]:
    n, edges = 0, []
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts and parts[0] == "p":
            n = int(parts[2])
        elif parts and parts[0] == "e":
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
    return n, edges


def td_problem(td_text: str, n: int, edges) -> str | None:
    """Why a PACE `s td` text is not a tree decomposition of the graph."""
    bags: dict[int, set[int]] = {}
    tree: list[tuple[int, int]] = []
    nbags = None
    for line in td_text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "s":
            nbags = int(parts[2])
        elif parts[0] == "b":
            bags[int(parts[1]) - 1] = {int(x) - 1 for x in parts[2:]}
        else:
            tree.append((int(parts[0]) - 1, int(parts[1]) - 1))
    if nbags is None or len(bags) != nbags or len(tree) != nbags - 1:
        return "malformed decomposition"
    adj: dict[int, list[int]] = {i: [] for i in bags}
    for i, j in tree:
        adj[i].append(j)
        adj[j].append(i)
    holders: dict[int, set[int]] = {v: set() for v in range(n)}
    for i, bag in bags.items():
        for v in bag:
            if v not in holders:
                return f"bag node {v + 1} is not a graph node"
            holders[v].add(i)
    if not _connected(set(bags), adj):
        return "bags do not form a tree"
    for u, v in edges:
        if not holders[u] & holders[v]:
            return f"edge {u + 1} {v + 1} lies in no bag"
    for v, hold in holders.items():
        if not hold or not _connected(hold, adj):
            return f"bags holding node {v + 1} are not a nonempty subtree"
    return None


def _connected(nodes: set[int], adj) -> bool:
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for j in adj[stack.pop()]:
            if j in nodes and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen == nodes


def path_distances(n: int, sources) -> list[int]:
    """Observation times on a path: a source is observed at 0 and every
    other node at its distance from the nearest source."""
    return [min(abs(v - s) for s in sources) for v in range(n)]


# -- the workload -------------------------------------------------------------

class Workload:
    """The ops of one workload and, for the current round of passes, their
    relabelled instances and input files."""

    def __init__(self, args):
        self.name = args.workload
        self.seed = args.seed
        self.ops = instances.WORKLOADS[self.name]
        stored = json.loads((HERE / "optima.json").read_text())
        self.optima = {k: v["value"] for k, v in stored["optima"].items()}
        self.outputs = stored["outputs"]
        self.workdir = Path(args.workdir)
        self.round_no = -1
        self.prepare(0)

    def prepare(self, round_no: int) -> None:
        if round_no == self.round_no:
            return
        self.round_no = round_no
        self.instances = {nm: instances.build(nm, self.seed, round_no)
                          for nm in instances.instance_names(self.ops)}
        if any(op.kind == "cli" for op in self.ops):
            self.workdir.mkdir(parents=True, exist_ok=True)
            for nm, inst in self.instances.items():
                (self.workdir / self.file_of(nm)).write_text(instances.write_graph(inst.graph))
            (self.workdir / "toy.minrep").write_text(instances.TOY_MINREP)
            n = self.instances["path:1000"].graph.n
            self.sources = instances.closure_sources(self.seed, round_no, n)

    @staticmethod
    def file_of(instance: str) -> str:
        return instance.replace(":", "-").replace(",", "x") + ".gr"

    def argv(self, op) -> list[str]:
        out = []
        for a in op.argv:
            if a.startswith("@"):
                out.append(str(self.workdir / self.file_of(a[1:])))
            elif a == "{sources}":
                perm = self.instances["path:1000"].perm
                out.append(",".join(str(perm[s] + 1) for s in self.sources))
            elif a.endswith((".gr", ".td", ".minrep")):
                out.append(str(self.workdir / a))
            else:
                out.append(a)
        return out

    # Each run_* returns (latency, solution size or None, failure or None).
    def run_dp(self, op):
        inst = self.instances[op.instance]
        g = inst.fresh_graph()
        t0 = time.perf_counter()
        opt, witness = dpsolve.solve_dp(g, range(g.n), op.ell)
        lat = time.perf_counter() - t0
        return lat, opt, self.check_solution(op, opt, witness)

    def run_ptas(self, op):
        inst = self.instances[op.instance]
        g = inst.fresh_graph()
        t0 = time.perf_counter()
        levels = planar.compute_levels(g, inst.rotation)
        res = planar.ptas_detailed(g, levels, op.ell, PTAS_EPS)
        lat = time.perf_counter() - t0
        size = len(res.solution)
        bad = self.check_solution(op, size, res.solution, exact=False)
        if bad is None:
            # Shifting guarantee: |S| <= (1 + (4 ell - 2) / k) * optimum.
            limit = (1 + Fraction(4 * op.ell - 2, res.k)) * self.optima[op.key]
            if size > limit:
                bad = f"size {size} exceeds the guarantee {limit}"
        return lat, size, bad

    def check_solution(self, op, size, witness, exact=True):
        inst = self.instances[op.instance]
        want = self.optima[op.key]
        if len(witness) != size:
            return f"witness has {len(witness)} nodes, size says {size}"
        if (size != want) if exact else (size < want):
            return f"size {size}, stored optimum {want}"
        if not is_feasible(inst.graph, witness, range(inst.graph.n), op.ell):
            return "witness is not feasible"
        return None

    def run_cli(self, op, mode):
        argv = self.argv(op)
        out = self.workdir / op.out
        if mode == "plain":
            with open(out, "w", encoding="utf-8") as fh:
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "powerdom", *argv], stdout=fh,
                    stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S,
                )
                lat = time.perf_counter() - t0
            code = proc.returncode
        else:
            with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                t0 = time.perf_counter()
                code = cli.main(argv)
                lat = time.perf_counter() - t0
        if code != 0:
            return lat, None, f"exit code {code}"
        return lat, *self.check_cli(op, argv, out)

    def check_cli(self, op, argv, out: Path):
        text = out.read_text()
        if op.check == "sha":
            digest = hashlib.sha256(text.encode()).hexdigest()
            return None, None if digest == self.outputs[op.out] else "output differs from the stored one"
        if op.check == "td":
            n, edges = read_graph_file(Path(argv[1]))
            return None, td_problem(text, n, edges)
        if op.check == "closure":
            inst = self.instances[op.instance]
            dist = path_distances(inst.graph.n, self.sources)
            want = {inst.perm[v]: d for v, d in enumerate(dist)}
            got = {}
            for line in text.splitlines():
                v, t = line.split()
                got[int(v) - 1] = int(t) if t != "inf" else -1
            return None, None if got == want else "observation times differ from path distances"
        result = json.loads(text)
        inst = self.instances[op.instance]
        witness = [v - 1 for v in result["witness"]]
        if result["opt"] != self.optima[op.key] or len(witness) != result["opt"]:
            return result["opt"], f"opt {result['opt']}, stored optimum {self.optima[op.key]}"
        if not is_feasible(inst.graph, witness, range(inst.graph.n), op.ell):
            return result["opt"], "witness is not feasible"
        return result["opt"], None


def modes(workload: str, traced: bool) -> tuple[str, ...]:
    """Pass modes of one cycle.  Traced runs alternate untraced and traced
    passes; the command line workload adds in-process untraced passes so
    that spawn cost and tracing overhead can be told apart."""
    if not traced:
        return ("plain",)
    if workload == "cli-pipeline":
        return ("plain", "inproc", "traced")
    return ("plain", "traced")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--resume", default="0:0", help="pass:position to start at")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = Workload(args)
    emit({"setup": time.perf_counter() - START, "powerdom": powerdom.__file__})
    if args.setup_only:
        return 0

    tracer = Tracer()
    signal.signal(signal.SIGALRM, _on_alarm)
    cycle = modes(wl.name, bool(args.trace))
    pass_no, pos = (int(x) for x in args.resume.split(":"))
    loop_start = time.perf_counter()
    traced_passes = 0
    traced_op_s = 0.0
    pass_walls: list[float] = []
    while True:
        mode = cycle[pass_no % len(cycle)]
        wl.prepare(pass_no // len(cycle))
        order = instances.pass_order(wl.ops, wl.seed, pass_no // len(cycle))
        if mode == "traced":
            tracer.install()
        pass_start = time.perf_counter()
        op_sum = 0.0
        for k in range(pos, len(order)):
            i = order[k]
            op = wl.ops[i]
            emit({"start": [pass_no, k]})
            if mode == "traced":
                tracer.begin_op(i)
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            t0 = time.perf_counter()
            try:
                if op.kind == "cli":
                    lat, size, bad = wl.run_cli(op, mode)
                else:
                    lat, size, bad = getattr(wl, f"run_{op.kind}")(op)
            except Exception as exc:  # a failing op is counted and the run goes on
                lat, size, bad = time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if mode == "traced":
                    tracer.end_op()
            op_sum += lat
            ref = reference_slice()
            emit({"ref": ref, "op": i, "pass": pass_no, "pos": k, "mode": mode, "lat": lat,
                  "size": size, "opt": wl.optima.get(op.key), "fail": bad})
        pos = 0
        wall = time.perf_counter() - pass_start
        tracer.uninstall()
        pass_walls.append(wall)
        emit({"pass": pass_no, "mode": mode, "op_s": op_sum, "wall": wall})
        if mode == "traced":
            traced_passes += 1
            traced_op_s += op_sum
        pass_no += 1
        elapsed = time.perf_counter() - loop_start
        cycle_wall = sum(pass_walls[-len(cycle):])
        if pass_no % len(cycle) == 0 and elapsed + cycle_wall > args.seconds:
            break
    done = {
        "done": True,
        "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if args.trace:
        done["layers"] = tracer.layer_metrics(traced_passes, traced_op_s)
        tracer.write_spans(Path(args.workdir) / "spans.jsonl")
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
