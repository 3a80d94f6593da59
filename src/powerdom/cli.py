"""Command line front end over the library.

Subcommands compose through files and pipes: `gen` writes canonical graph
files, `solve` and friends read them back, so shell pipelines reproduce
whole experiments.  Outputs are deterministic byte for byte, except for
the elapsed-time field of --json results.

Exit codes: 0 success, 1 infeasible or violated results, 2 usage and
input-parsing errors, 3 internal errors (a solver's result failed its own
check), 4 a resource limit reached (out of memory).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

# Other layers load in the handlers that run them.  The benchmark's tracer wraps
# parse_graph, solve_bf, propagate, is_feasible, heuristic_td and parse_td here.
from .bruteforce import NODE_LIMIT, solve_bf
from .graphs import Graph, emit_graph, parse_graph, parse_id, records
from .propagation import INF, is_feasible, propagate
from .treedecomp import emit_td, heuristic_td, parse_td


class CliError(Exception):
    """Bad usage or unparseable input; rendered to stderr with exit code 2."""


@contextmanager
def _read(path: str):
    """The text of `path`, or of stdin for -; a ValueError raised while the
    block parses it is reported as an error in that input."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"{path}: {exc.strerror or exc}") from None
    try:
        yield text
    except ValueError as exc:
        raise CliError(f"{_where(path)}: {exc}") from None


def _where(path: str) -> str:
    return "<stdin>" if path == "-" else path


def _load_graph(path: str) -> Graph:
    with _read(path) as text:
        return parse_graph(text)


def _parse_id_file(path: str, n: int) -> frozenset[int]:
    with _read(path) as text:
        return frozenset(
            parse_id(tok, n, lineno) for lineno, parts in records(text) for tok in parts
        )


def _parse_targets(spec: str, n: int) -> frozenset[int]:
    if spec == "all":
        return frozenset(range(n))
    return _parse_id_file(spec, n)


def _parse_sources(spec: str, n: int) -> frozenset[int]:
    # Accept a comma-separated inline list or a file of ids.
    parts = [p for p in spec.split(",") if p.strip()]
    if all(p.strip().lstrip("-").isdigit() for p in parts):
        return frozenset(parse_id(p, n) for p in parts)
    return _parse_id_file(spec, n)


def _require_ell(args) -> int:
    if args.ell is None:
        raise CliError("--ell is required")
    if args.ell < 1:
        raise CliError("--ell must be at least 1")
    return args.ell


def _cmd_solve(args) -> int:
    ell = _require_ell(args)
    levels = None
    with _read(args.graph) as text:
        g = parse_graph(text)
        if args.method == "ptas":
            from .planar import parse_levels, ptas_detailed

            levels = parse_levels(text, g.n)
    if args.td is not None and args.method != "dp":
        raise CliError("--td only applies to --method dp")
    if args.eps is not None and args.method != "ptas":
        raise CliError("--eps only applies to --method ptas")
    targets = _parse_targets(args.targets, g.n)
    payload: dict = {"method": args.method, "ell": ell}
    extra: list[str] = []
    t0 = time.perf_counter()
    if args.method == "bf":
        if g.n > NODE_LIMIT:
            raise CliError(
                f"--method bf takes graphs of at most {NODE_LIMIT} nodes, not {g.n}; "
                "use --method dp"
            )
        solved = solve_bf(g, targets, ell)
        assert solved is not None
        opt, witness = solved
    elif args.method == "dp":
        from .dpsolve import solve_dp

        td = None
        if args.td is not None:
            with _read(args.td) as text:
                td = parse_td(text)
        run_stats: dict = {}
        opt, witness = solve_dp(g, targets, ell, td, stats=run_stats)
        payload["state_table_sizes"] = run_stats.get("table_sizes", [])
        payload["lower_bound"] = run_stats.get("lower_bound")
        payload["upper_bound"] = run_stats.get("upper_bound")
        payload["origins"] = run_stats.get("origins")
        payload["search_sets"] = run_stats.get("search_sets")
    else:
        if args.eps is None:
            raise CliError("--eps is required with --method ptas")
        if args.targets != "all":
            raise CliError("the approximation covers all nodes; --targets must be 'all'")
        if levels is None:
            raise CliError(
                f"{_where(args.graph)}: no level lines; the approximation needs a leveled graph"
            )
        res = ptas_detailed(g, levels, ell, args.eps)
        opt, witness = len(res.solution), res.solution
        extra = [
            f"shift {res.shift}",
            "blocks " + " ".join(str(s) for s in res.block_sizes),
        ]
        payload["shift"] = res.shift
        payload["block_sizes"] = list(res.block_sizes)
        payload["k"] = res.k
    elapsed = time.perf_counter() - t0
    # Never print a witness that does not check out against the graph.
    if not is_feasible(g, witness, targets, ell):
        raise RuntimeError("solver returned an infeasible witness; this is an internal error")
    if args.json:
        payload["opt"] = opt
        payload["witness"] = sorted(v + 1 for v in witness)
        payload["elapsed_s"] = round(elapsed, 6)
        print(json.dumps(payload, sort_keys=True))
        return 0
    for line in extra:
        print(line)
    print(f"{'size' if args.method == 'ptas' else 'opt'} {opt}")
    for v in sorted(witness):
        print(v + 1)
    return 0


def _cmd_closure(args) -> int:
    g = _load_graph(args.graph)
    sources = _parse_sources(args.sources, g.n)
    if args.ell is None:
        k = max(1, g.n)
    else:
        k = _require_ell(args)
    trace = propagate(g, sources, k)
    for v in range(g.n):
        t = trace.times[v]
        print(f"{v + 1} {'inf' if t == INF else int(t)}")
    return 0


def _cmd_verify_orientation(args) -> int:
    from .orientation import parse_orientation, validate

    ell = _require_ell(args)
    g = _load_graph(args.graph)
    targets = _parse_targets(args.targets, g.n)
    with _read(args.orientation) as text:
        bad = validate(g, parse_orientation(text, g.n, ell), targets)
    if bad is None:
        print("ok")
        return 0
    print(bad)
    return 1


def _int_params(params: list[str], arity: int, usage: str) -> list[int]:
    if len(params) != arity:
        raise CliError(f"expected {usage}")
    out = []
    for p in params:
        try:
            out.append(int(p))
        except ValueError:
            raise CliError(f"expected {usage}") from None
    return out


def _cmd_gen(args) -> int:
    from .generators import attach_paths, minrep_to_pds, parse_minrep, pendant_cycle, spider

    fam = args.family
    params = args.params
    if fam == "spider":
        m, k = _int_params(params, 2, "gen spider <m> <k>")
        sys.stdout.write(emit_graph(spider(m, k)))
    elif fam == "pendant-cycle":
        (m,) = _int_params(params, 1, "gen pendant-cycle <m>")
        sys.stdout.write(emit_graph(pendant_cycle(m)))
    elif fam == "attach-paths":
        if not params or len(params) > 2:
            raise CliError("expected gen attach-paths <ell> [graph-file]")
        (ell,) = _int_params(params[:1], 1, "gen attach-paths <ell> [graph-file]")
        g = _load_graph(params[1] if len(params) > 1 else "-")
        sys.stdout.write(emit_graph(attach_paths(g, ell)))
    else:
        if len(params) > 1:
            raise CliError("expected gen minrep [instance-file]")
        with _read(params[0] if params else "-") as text:
            inst = parse_minrep(text)
        built, info = minrep_to_pds(inst)
        comments = [f"role {v + 1} {r}" for v, r in enumerate(info.roles)]
        sys.stdout.write(emit_graph(built, comments=comments))
    return 0


def _build_model(args, g: Graph) -> "IpModel":
    from .ipmodels import build_ip_ell, build_ip_ordering

    if args.kind == "ell":
        ell = _require_ell(args)
        return build_ip_ell(g, ell, args.valid_ineqs)
    if args.ell is not None:
        raise CliError("--ell does not apply to the ordering model")
    return build_ip_ordering(g, args.valid_ineqs)


def _cmd_emit_ip(args) -> int:
    from .ipmodels import emit_lp

    g = _load_graph(args.graph)
    sys.stdout.write(emit_lp(_build_model(args, g), relax=args.relax))
    return 0


def _cmd_check_ip(args) -> int:
    from .ipmodels import check_assignment, objective_value, parse_solution

    g = _load_graph(args.graph)
    model = _build_model(args, g)
    with _read(args.solution) as text:
        sol = parse_solution(text)
        violated = check_assignment(model, sol)
    if violated:
        for tag in violated:
            print(tag)
        return 1
    print("ok")
    print(f"objective {objective_value(model, sol)}")
    return 0


def _cmd_td(args) -> int:
    g = _load_graph(args.graph)
    sys.stdout.write(emit_td(heuristic_td(g)))
    return 0


def _cmd_levels(args) -> int:
    from .planar import parse_levels, validate_levels

    with _read(args.graph) as text:
        g = parse_graph(text)
        la = parse_levels(text, g.n)
    if la is None:
        print("no level lines in graph file")
        return 1
    msg = validate_levels(g, la)
    if msg is not None:
        print(msg)
        return 1
    for v in range(g.n):
        print(f"{v + 1} {la.level[v]}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerdom",
        description="Solvers, generators, and model emitters for round-limited power domination.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    sp = sub.add_parser("solve", help="find a minimum source set")
    sp.add_argument("graph", nargs="?", default="-", help="graph file, or - for stdin")
    sp.add_argument("--ell", type=int, default=None, help="round budget, at least 1")
    sp.add_argument("--targets", default="all", metavar="file|all",
                    help="nodes that must be observed (default all)")
    sp.add_argument("--method", choices=("bf", "dp", "ptas"), default="dp")
    sp.add_argument("--td", default=None, metavar="file",
                    help="tree decomposition to drive --method dp")
    sp.add_argument("--eps", default=None, metavar="r",
                    help="slack for --method ptas, e.g. 0.5 or 1/2")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("closure", help="print per-node observation times")
    sp.add_argument("graph", nargs="?", default="-")
    sp.add_argument("--sources", required=True, metavar="file|ids",
                    help="source nodes: a file of ids or a comma-separated list")
    sp.add_argument("--ell", type=int, default=None,
                    help="round budget (default: run to the fixed point)")
    sp.set_defaults(func=_cmd_closure)

    sp = sub.add_parser("verify-orientation", help="check the five orientation properties")
    sp.add_argument("graph")
    sp.add_argument("orientation")
    sp.add_argument("--ell", type=int, default=None, required=True)
    sp.add_argument("--targets", default="all", metavar="file|all")
    sp.set_defaults(func=_cmd_verify_orientation)

    sp = sub.add_parser("gen", help="emit instance families as graph files")
    sp.add_argument("family", choices=("spider", "pendant-cycle", "attach-paths", "minrep"))
    sp.add_argument("params", nargs="*",
                    help="spider <m> <k>; pendant-cycle <m>; attach-paths <ell> [graph]; minrep [file]")
    sp.set_defaults(func=_cmd_gen)

    for name, fn in (("emit-ip", _cmd_emit_ip), ("check-ip", _cmd_check_ip)):
        sp = sub.add_parser(name, help=f"{'write' if name == 'emit-ip' else 'check a solution against'} an integer program")
        sp.add_argument("kind", choices=("ell", "ordering"))
        sp.add_argument("graph", nargs="?", default="-")
        sp.add_argument("--ell", type=int, default=None, help="round budget (ell kind only)")
        sp.add_argument("--valid-ineqs", action="store_true",
                        help="include the strengthening inequalities")
        if name == "emit-ip":
            sp.add_argument("--relax", action="store_true",
                            help="unit-box bounds instead of integrality")
        else:
            sp.add_argument("--solution", required=True, metavar="file",
                            help="lines of '<variable> <value>'")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("td", help="emit a heuristic tree decomposition")
    sp.add_argument("graph", nargs="?", default="-")
    sp.set_defaults(func=_cmd_td)

    sp = sub.add_parser("levels", help="validate and print the graph file's level lines")
    sp.add_argument("graph", nargs="?", default="-")
    sp.set_defaults(func=_cmd_levels)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
