import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powerdom
from powerdom import cli, dpsolve
from powerdom.cli import main
from powerdom.graphs import parse_graph
from powerdom.propagation import is_feasible
from powerdom.treedecomp import parse_td, to_nice, validate_td

P3 = "p edge 3 2\ne 1 2\ne 2 3\n"
K2 = "p edge 2 1\ne 1 2\n"
GOOD_ORIENT = "d 1 2\nd 2 3\nt 1 0\nt 2 1\nt 3 2\n"
BAD_ORIENT = "d 1 2\nd 3 2\nt 1 0\nt 2 1\nt 3 0\n"
K2_SOL_OK = "x_v1 1\nx_v2 0\nz_t1_v1 1\nz_t1_v2 1\nY_t1_1_to_2 1\nY_t1_2_to_1 0\n"
K2_SOL_BAD = "x_v1 1\nx_v2 1\nz_t1_v1 1\nz_t1_v2 0\nY_t1_1_to_2 1\nY_t1_2_to_1 1\n"


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def spider_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "spider", "3", "3")
    assert code == 0
    path = tmp_path / "spider.gr"
    path.write_text(out)
    return str(path)


def test_generate_then_solve(spider_file, capsys):
    code, out, _ = run(capsys, "solve", "--ell", "3", "--method", "bf", spider_file)
    assert code == 0
    assert out == "opt 1\n1\n"
    # The default method is the decomposition solver.
    code, out, _ = run(capsys, "solve", "--ell", "2", spider_file)
    assert code == 0
    assert out == "opt 3\n2\n5\n8\n"


def test_solve_json(spider_file, capsys):
    code, out, _ = run(capsys, "solve", "--ell", "2", "--json", spider_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "dp"
    assert payload["opt"] == 3
    assert payload["witness"] == sorted(payload["witness"])
    assert len(payload["witness"]) == 3
    assert payload["lower_bound"] <= payload["opt"] <= payload["upper_bound"]
    assert payload["upper_bound"] >= 3
    # The spider's three leg ends are never candidate origins.
    assert payload["origins"] == 7
    assert all(isinstance(s, int) for s in payload["state_table_sizes"])
    assert payload["elapsed_s"] >= 0


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(P3))
    code, out, _ = run(capsys, "solve", "--ell", "1", "--method", "bf", "-")
    assert code == 0
    assert out == "opt 1\n2\n"


def test_closure(tmp_path, capsys):
    path = tmp_path / "p3.gr"
    path.write_text(P3)
    code, out, _ = run(capsys, "closure", str(path), "--sources", "1")
    assert code == 0
    assert out == "1 0\n2 1\n3 2\n"
    code, out, _ = run(capsys, "closure", str(path), "--sources", "1", "--ell", "1")
    assert out == "1 0\n2 1\n3 inf\n"


def test_verify_orientation(tmp_path, capsys):
    graph = tmp_path / "p3.gr"
    graph.write_text(P3)
    good = tmp_path / "good.orient"
    good.write_text(GOOD_ORIENT)
    code, out, _ = run(capsys, "verify-orientation", str(graph), str(good), "--ell", "2")
    assert code == 0
    assert out == "ok\n"
    bad = tmp_path / "bad.orient"
    bad.write_text(BAD_ORIENT)
    code, out, _ = run(capsys, "verify-orientation", str(graph), str(bad), "--ell", "2")
    assert code == 1
    assert out == "P2 at node 2: label 1 but in-degree 2\n"


def test_gen_families(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "pendant-cycle", "4")
    assert code == 0
    g = parse_graph(out)
    assert (g.n, g.m) == (8, 8)

    base = tmp_path / "p3.gr"
    base.write_text(P3)
    code, out, _ = run(capsys, "gen", "attach-paths", "2", str(base))
    assert code == 0
    assert parse_graph(out).n == 6

    inst = tmp_path / "toy.minrep"
    inst.write_text("minrep 1 2 1 2\ne 1 1\ne 2 2\n")
    code, out, _ = run(capsys, "gen", "minrep", str(inst))
    assert code == 0
    assert out.startswith("c role 1 a0\nc role 2 a1\nc role 3 b0\n")
    parse_graph(out)

    code, _, err = run(capsys, "gen", "spider", "3")
    assert code == 2 and "spider" in err


def test_solve_ptas(capsys):
    code, out, _ = run(capsys, "solve", "--method", "ptas", "--eps", "1",
                       "--ell", "1", "tests/fixtures/tworing.gr")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "shift 1"
    assert lines[1].startswith("blocks ")
    assert lines[2] == f"size {len(lines) - 3}"
    g = parse_graph(open("tests/fixtures/tworing.gr").read())
    witness = {int(t) - 1 for t in lines[3:]}
    assert is_feasible(g, witness, range(g.n), 1)


def test_solve_ptas_refuses_a_zero_denominator(tmp_path, capsys):
    path = tmp_path / "p3.gr"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\nl 1 1\nl 2 2\nl 3 3\n")
    code, out, err = run(capsys, "solve", str(path), "--ell", "1", "--method", "ptas",
                         "--eps", "1/0")
    assert code == 2 and out == "" and "eps" in err and "Traceback" not in err


def test_emit_ip(tmp_path, capsys):
    graph = tmp_path / "k2.gr"
    graph.write_text(K2)
    code, out, _ = run(capsys, "emit-ip", "ell", str(graph), "--ell", "1")
    assert code == 0
    assert out.splitlines()[0] == "Minimize"
    assert " c3_u1_v2_w1_t1: Y_t1_1_to_2 - z_t1_v1 <= 0" in out
    assert "Binary" in out
    code, relaxed, _ = run(capsys, "emit-ip", "ell", str(graph), "--ell", "1", "--relax")
    assert "Bounds" in relaxed and "Binary" not in relaxed


def test_emit_ip_refuses_an_oversized_model(tmp_path, capsys):
    # 10^8 rounds on the 3-node path is about 2.2 * 10^9 coefficients; the
    # count is refused before any row is built.
    graph = tmp_path / "p3.gr"
    graph.write_text(P3)
    code, out, err = run(capsys, "emit-ip", "ell", str(graph), "--ell", "100000000")
    assert code == 2 and out == ""
    assert err == "error: the model would have 2200000003 coefficients, over the limit 1000000\n"


def test_check_ip(tmp_path, capsys):
    graph = tmp_path / "k2.gr"
    graph.write_text(K2)
    ok = tmp_path / "ok.sol"
    ok.write_text(K2_SOL_OK)
    code, out, _ = run(capsys, "check-ip", "ell", str(graph), "--ell", "1",
                       "--solution", str(ok))
    assert code == 0
    assert out == "ok\nobjective 1\n"
    bad = tmp_path / "bad.sol"
    bad.write_text(K2_SOL_BAD)
    code, out, _ = run(capsys, "check-ip", "ell", str(graph), "--ell", "1",
                       "--solution", str(bad))
    assert code == 1
    assert "(1)[v=2]" in out.splitlines()


def test_check_ip_refuses_huge_exponents(tmp_path, capsys):
    # Exact arithmetic would expand 10**300000000 in full before checking a
    # single constraint; the value is refused as it is read.
    graph = tmp_path / "k2.gr"
    graph.write_text(K2)
    huge = tmp_path / "huge.sol"
    huge.write_text("x_v2 0\nx_v1 1e300000000\n")
    code, out, err = run(capsys, "check-ip", "ell", str(graph), "--ell", "1",
                         "--solution", str(huge))
    assert code == 2 and out == ""
    assert "line 2" in err and "1e300000000" in err
    # Exponents within the bound still read as exact values.
    fine = tmp_path / "fine.sol"
    fine.write_text(K2_SOL_OK.replace("x_v1 1\n", "x_v1 1000e-3\n")
                    .replace("x_v2 0\n", "x_v2 0E+1_000\n"))
    code, out, _ = run(capsys, "check-ip", "ell", str(graph), "--ell", "1",
                       "--solution", str(fine))
    assert code == 0 and out == "ok\nobjective 1\n"


def test_td_output_is_valid(spider_file, capsys):
    code, out, _ = run(capsys, "td", spider_file)
    assert code == 0
    g = parse_graph(open(spider_file).read())
    td = parse_td(out)
    assert validate_td(g, td) is None


def test_levels(tmp_path, capsys):
    code, out, _ = run(capsys, "levels", "tests/fixtures/tworing.gr")
    assert code == 0
    assert out.splitlines() == [f"{v} 1" for v in range(1, 9)] + [f"{v} 2" for v in range(9, 17)]
    bare = tmp_path / "p3.gr"
    bare.write_text(P3)
    code, out, _ = run(capsys, "levels", str(bare))
    assert code == 1
    assert out == "no level lines in graph file\n"


def test_output_is_deterministic(spider_file, capsys):
    runs = [run(capsys, "solve", "--ell", "2", spider_file) for _ in range(2)]
    assert runs[0] == runs[1]
    payloads = []
    for _ in range(2):
        _, out, _ = run(capsys, "solve", "--ell", "2", "--json", spider_file)
        data = json.loads(out)
        data.pop("elapsed_s")
        payloads.append(data)
    assert payloads[0] == payloads[1]


def test_certified_dp_output_is_deterministic(tmp_path, capsys):
    # The packing bound proves the sweep's set optimal on a long path; two
    # runs print the same witness byte for byte.
    path = tmp_path / "path.gr"
    path.write_text("p edge 100 99\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 100)))
    outs = [run(capsys, "solve", "--ell", "3", "--method", "dp", str(path)) for _ in range(2)]
    assert outs[0] == outs[1] and outs[0][1].startswith("opt 15\n")
    _, out, _ = run(capsys, "solve", "--ell", "3", "--method", "dp", "--json", str(path))
    payload = json.loads(out)
    assert payload["lower_bound"] == payload["opt"] == payload["upper_bound"] == 15
    assert payload["state_table_sizes"] == []


def test_dp_with_a_decomposition_file(tmp_path, capsys):
    # A pendant cycle on 25 at ell=3 runs the subset search out of budget
    # and builds tables: one size per nice node of the passed
    # decomposition, and the same answer as without it.
    graph, td = tmp_path / "pc.gr", tmp_path / "pc.td"
    graph.write_text(run(capsys, "gen", "pendant-cycle", "25")[1])
    td.write_text(run(capsys, "td", str(graph))[1])
    payloads = []
    for extra in ((), ("--td", str(td))):
        code, out, _ = run(capsys, "solve", "--ell", "3", "--method", "dp", "--json",
                           *extra, str(graph))
        assert code == 0
        payloads.append(json.loads(out))
    plain, given = payloads
    assert (given["opt"], given["witness"]) == (plain["opt"], plain["witness"])
    assert len(given["state_table_sizes"]) == len(to_nice(parse_td(td.read_text())).nodes)


def test_dp_refuses_a_decomposition_that_does_not_fit(tmp_path, capsys):
    # Bags that miss node 3 are refused before anything is solved, with
    # targets to observe or with none.
    graph, td, empty = tmp_path / "p3.gr", tmp_path / "short.td", tmp_path / "none.txt"
    graph.write_text(P3)
    td.write_text("s td 1 2 3\nb 1 1 2\n")
    empty.write_text("")
    for targets in ("all", str(empty)):
        code, out, err = run(capsys, "solve", "--ell", "1", "--method", "dp",
                             "--td", str(td), "--targets", targets, str(graph))
        assert code == 2 and out == ""
        assert "does not fit the graph" in err


def test_input_errors_name_1_based_ids(tmp_path, capsys):
    # The path 1-2-3 with bags {1, 2} and {3}: the file's edge 2-3 is in no
    # bag.
    graph, td = tmp_path / "p3.gr", tmp_path / "bad.td"
    graph.write_text(P3)
    td.write_text("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")
    code, out, err = run(capsys, "solve", "--ell", "1", "--td", str(td), str(graph))
    assert code == 2 and out == ""
    assert "edge (2, 3) is inside no bag" in err
    # Levels 1, 1, 3 on the same path: the file's edge 2-3 jumps a level.
    graph.write_text(P3 + "l 1 1\nl 2 1\nl 3 3\n")
    code, out, err = run(capsys, "solve", "--ell", "1", "--method", "ptas", "--eps", "1",
                         str(graph))
    assert code == 2 and out == ""
    assert "edge {2, 3} spans levels 1 and 3" in err


def test_oversized_node_count_is_refused(tmp_path, capsys):
    # The header alone would have the graph allocate a billion adjacency
    # lists; it is refused on its own line before anything is built.
    huge = tmp_path / "huge.gr"
    huge.write_text("c too many nodes\np edge 1000000000 0\n")
    code, out, err = run(capsys, "solve", "--ell", "1", "--method", "dp", str(huge))
    assert code == 2 and out == ""
    assert "line 2" in err and "1000000000" in err


def test_oversized_td_header_is_refused(tmp_path, capsys):
    # The header alone would have the parser build a hundred million bags;
    # a tree on that many needs that many edge lines, which the file lacks.
    graph = tmp_path / "p3.gr"
    graph.write_text(P3)
    td = tmp_path / "big.td"
    td.write_text("s td 100000000 1 3\n")
    code, out, err = run(capsys, "solve", "--ell", "1", "--td", str(td), str(graph))
    assert code == 2 and out == ""
    assert f"{td}: line 1" in err and "100000000 bags" in err


@pytest.mark.parametrize("params", [
    ("spider", "10000", "10000"),
    ("pendant-cycle", "100000000"),
    ("attach-paths", "100000000", "p3.gr"),
    ("minrep", "big.minrep"),
])
def test_gen_refuses_graphs_over_the_node_limit(params, tmp_path, capsys, monkeypatch):
    # Each would allocate per-node lists for 10^8 nodes or more; the node
    # count is refused first, at the limit parse_graph applies.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p3.gr").write_text(P3)
    (tmp_path / "big.minrep").write_text("minrep 100000 100000 1 1\n")
    code, out, err = run(capsys, "gen", *params)
    assert code == 2 and out == ""
    assert "over the limit 1000000" in err


def test_bruteforce_refuses_graphs_over_its_limit(tmp_path, capsys):
    # A 26-node spider is past the subset search's 24-node guard; the CLI
    # refuses it with a usage error that points to the exact DP instead.
    code, out, _ = run(capsys, "gen", "spider", "5", "5")
    assert code == 0
    path = tmp_path / "spider55.gr"
    path.write_text(out)
    code, out, err = run(capsys, "solve", "--ell", "2", "--method", "bf", str(path))
    assert code == 2 and out == ""
    assert "at most 24 nodes" in err and "--method dp" in err
    assert "force" not in err


def test_usage_errors(tmp_path, capsys, spider_file):
    # Missing round budget.
    code, _, err = run(capsys, "solve", "--method", "bf", spider_file)
    assert code == 2 and "ell" in err
    # Malformed graph input names the offending line.
    bad = tmp_path / "bad.gr"
    bad.write_text("p edge 2 1\ne 1 5\n")
    code, _, err = run(capsys, "solve", "--ell", "1", str(bad))
    assert code == 2 and "line 2" in err
    # Flag combinations that make no sense are rejected.
    td = tmp_path / "x.td"
    td.write_text("s td 1 0 3\nb 1 1 2 3\n")
    code, _, err = run(capsys, "solve", "--ell", "1", "--method", "bf",
                       "--td", str(td), spider_file)
    assert code == 2
    code, _, err = run(capsys, "solve", "--ell", "1", "--eps", "1", spider_file)
    assert code == 2
    code, _, err = run(capsys, "emit-ip", "ordering", spider_file, "--ell", "2")
    assert code == 2


# Files a CLI_CASES command line may name, written to its working directory.
CLI_FILES = {
    "p3.gr": P3,
    "leveled.gr": P3 + "l 1 1\nl 2 2\nl 3 3\n",
    "jump.gr": P3 + "l 1 1\nl 2 1\nl 3 3\n",
    "targets": "1\n",
    "sources": "1\n",
    "twice.orient": "d 1 2\nd 2 1\nu 2 3\n",
    "both.orient": "d 1 2\nu 1 2\nu 2 3\n",
    "short.orient": "d 1 2\n",
    "extra.orient": "d 1 2\nu 2 3\nu 1 3\n",
    "dup.orient": "d 1 2\nd 1 2\nd 2 3\nt 1 0\nt 2 1\nt 3 5\nt 3 2\n",
    "loop.td": "s td 2 3 3\nb 1 1 2 3\nb 2 1\n2 2\n",
    "twice.minrep": "minrep 1 1 1 1\ne 1 1\ne 1 1\n",
}

# argv, exit code, and a fragment of what the command prints: on stderr
# for exit code 2, on stdout otherwise.  Ids in refusals are 1-based.
CLI_CASES = [
    (["solve", "--ell", "0", "p3.gr"], 2, "--ell must be at least 1"),
    (["solve", "--ell", "1", "--method", "ptas", "leveled.gr"], 2,
     "--eps is required with --method ptas"),
    (["solve", "--ell", "1", "--method", "ptas", "--eps", "1", "--targets", "targets",
      "leveled.gr"], 2, "--targets must be 'all'"),
    (["solve", "--ell", "1", "--method", "ptas", "--eps", "1", "p3.gr"], 2,
     "p3.gr: no level lines"),
    (["solve", "--ell", "1", "missing.gr"], 2, "missing.gr: No such file or directory"),
    (["solve", "--ell", "1", "--td", "loop.td", "p3.gr"], 2, "bad tree edge (2, 2)"),
    (["gen", "spider", "3", "x"], 2, "expected gen spider <m> <k>"),
    (["gen", "attach-paths"], 2, "expected gen attach-paths <ell> [graph-file]"),
    (["gen", "minrep", "a", "b"], 2, "expected gen minrep [instance-file]"),
    (["gen", "minrep", "twice.minrep"], 2, "duplicate edge (1, 1)"),
    (["levels", "jump.gr"], 1, "edge {2, 3} spans levels 1 and 3"),
    (["solve", "--method", "magic", "p3.gr"], 2, "invalid choice: 'magic'"),
    (["closure", "p3.gr", "--sources", "sources"], 0, "1 0\n2 1\n3 2\n"),
    (["emit-ip", "ordering", "p3.gr"], 0, "Minimize"),
    (["verify-orientation", "p3.gr", "twice.orient", "--ell", "1"], 2,
     "edge (1, 2) directed twice"),
    (["verify-orientation", "p3.gr", "both.orient", "--ell", "1"], 2,
     "edge (1, 2) both directed and undirected"),
    (["verify-orientation", "p3.gr", "short.orient", "--ell", "1"], 2,
     "does not match the graph: edge (2, 3) is missing"),
    (["verify-orientation", "p3.gr", "extra.orient", "--ell", "1"], 2,
     "does not match the graph: edge (1, 3) is not in the graph"),
    (["verify-orientation", "p3.gr", "dup.orient", "--ell", "2"], 2,
     "line 2: edge (1, 2) directed twice"),
]


@pytest.mark.parametrize("argv, code, fragment", CLI_CASES)
def test_command_lines(argv, code, fragment, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in CLI_FILES.items():
        (tmp_path / name).write_text(text)
    got, out, err = run(capsys, *argv)
    assert got == code, (out, err)
    assert fragment in (err if code == 2 else out)
    assert (out if code == 2 else err) == ""


def test_internal_errors_exit_3(spider_file, capsys, monkeypatch):
    # A solver's failed self-check is neither a usage error (2) nor an
    # infeasible result (1): one stderr line and exit code 3.
    def broken(*args, **kwargs):
        raise RuntimeError("witness reconstruction failed")

    monkeypatch.setattr(dpsolve, "solve_dp", broken)
    code, out, err = run(capsys, "solve", "--ell", "2", spider_file)
    assert code == 3
    assert out == ""
    assert err == "error: internal error: witness reconstruction failed\n"


def test_running_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    # A resource limit is neither a usage error (2) nor an internal one (3):
    # one stderr line and exit code 4, not a traceback.
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_closure", exhausted)
    graph = tmp_path / "p3.gr"
    graph.write_text(P3)
    code, out, err = run(capsys, "closure", str(graph), "--sources", "1")
    assert code == 4
    assert out == ""
    assert err == "error: out of memory\n"


def test_cli_keeps_the_bindings_the_benchmark_traces():
    # The benchmark's tracer (perfbench/spans.py) wraps these names on
    # powerdom.cli itself, so dropping one of them from cli's module level,
    # say for an import inside a handler, silently zeroes a per-layer metric.
    for name in ("parse_graph", "solve_bf", "propagate", "is_feasible", "heuristic_td",
                 "parse_td"):
        assert getattr(cli, name).__name__ == name


# What every subcommand loads: the package, the CLI, and the layers the CLI
# binds at module level.
CLI_MODULES = {"powerdom", "powerdom.cli", "powerdom.graphs", "powerdom.propagation",
               "powerdom.bruteforce", "powerdom.treedecomp"}
LOADED = (
    "import sys\n"
    "from powerdom import cli\n"
    "sys.stdout = open('out.txt', 'w')\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stdout = sys.__stdout__\n"
    "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'powerdom'))\n"
)


@pytest.mark.parametrize("argv, extra", [
    (["gen", "spider", "3", "3"], {"powerdom.generators"}),
    (["gen", "minrep", "toy.minrep"], {"powerdom.generators"}),
    (["td", "spider.gr"], set()),
    (["closure", "spider.gr", "--sources", "1"], set()),
    (["solve", "--ell", "2", "--method", "bf", "spider.gr"], set()),
    (["solve", "--ell", "2", "--method", "dp", "--td", "spider.td", "spider.gr"],
     {"powerdom.dpsolve"}),
])
def test_each_subcommand_loads_only_what_it_runs(argv, extra, spider_file, tmp_path, capsys):
    # In a fresh interpreter: gen loads no solver, and solve --method dp
    # loads dpsolve but not planar, ipmodels or orientation.
    (tmp_path / "spider.td").write_text(run(capsys, "td", spider_file)[1])
    (tmp_path / "toy.minrep").write_text("minrep 1 2 1 2\ne 1 1\ne 2 2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(powerdom.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", LOADED, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stderr == ""
    code, *loaded = done.stdout.split()
    assert code == "0"
    assert set(loaded) == CLI_MODULES | extra
