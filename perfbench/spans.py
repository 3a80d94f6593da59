"""Spans around the public functions of each layer, recorded from outside.

`Tracer.install` replaces module-level bindings (for example
`powerdom.planar.solve_dp`, the name `planar` calls) with wrappers that
open a span, call the original and close the span.  A span is
`[name, start, end, parent, op]`; spans stay in memory and are written
when the run ends.  The layer of a span is the module that defines the
wrapped function, so `dpsolve.propagate` and `cli.propagate` both count
as `propagation.propagate`.

Counts that need a function's result (table sizes, blocks, subsets tried)
are taken in the wrappers, and anything costly is deferred to `end_op`,
outside the timed op.
"""

from __future__ import annotations

import importlib
import json
import math
import time

# Module -> bindings wrapped there.  A binding a later version no longer
# has is skipped; its metrics then read 0.
BINDINGS = {
    "powerdom.dpsolve": ("solve_dp", "propagate", "is_feasible", "heuristic_td",
                         "to_nice", "validate_td"),
    "powerdom.planar": ("ptas_detailed", "compute_levels", "solve_dp", "build_blocks",
                        "induced_subgraph", "heuristic_td", "to_nice", "is_feasible"),
    "powerdom.cli": ("main", "parse_graph", "solve_bf", "solve_dp", "propagate",
                     "heuristic_td", "parse_td", "to_nice", "is_feasible"),
}

# Per-layer metrics: span self time in seconds, by span name.
SELF_TIME = {
    "propagation.propagate_s": "propagation.propagate",
    "propagation.is_feasible_s": "propagation.is_feasible",
    "bruteforce.solve_bf_s": "bruteforce.solve_bf",
    "treedecomp.heuristic_td_s": "treedecomp.heuristic_td",
    "treedecomp.to_nice_s": "treedecomp.to_nice",
    "treedecomp.validate_td_s": "treedecomp.validate_td",
    "dpsolve.self_s": "dpsolve.solve_dp",
    "planar.compute_levels_s": "planar.compute_levels",
    "planar.ptas_self_s": "planar.ptas_detailed",
    "graphs.parse_s": "graphs.parse_graph",
    "graphs.induced_subgraph_s": "graphs.induced_subgraph",
    "cli.main_self_s": "cli.main",
}
CALLS = {
    "propagation.propagate.calls": "propagation.propagate",
    "propagation.is_feasible.calls": "propagation.is_feasible",
    "dpsolve.solve_dp.calls": "dpsolve.solve_dp",
}
COUNTS = (
    "bruteforce.subsets_tried",
    "treedecomp.nice_nodes",
    "dpsolve.states_total",
    "dpsolve.states.leaf",
    "dpsolve.states.insert",
    "dpsolve.states.forget",
    "dpsolve.states.join",
    "dpsolve.ub_gap",
    "planar.blocks_total",
    "planar.blocks_solved",
)
PEAKS = ("treedecomp.width_max", "dpsolve.states_peak")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def post_order(ntd) -> list[int]:
    """Nice-node indices in the order `solve_dp` fills `table_sizes`."""
    out: list[int] = []
    stack = [(ntd.root, False)]
    while stack:
        i, expanded = stack.pop()
        if expanded:
            out.append(i)
        else:
            stack.append((i, True))
            stack.extend((c, False) for c in ntd.nodes[i].children)
    return out


def subsets_tried(n: int, size: int, witness) -> int:
    """Source sets `solve_bf` tests before it stops at `witness`.

    It tries every set of each size below the optimum, then sets of the
    optimal size in lexicographic order up to and including the witness.
    """
    if size == 0:
        return 0
    tried = sum(math.comb(n, s) for s in range(1, size))
    rank = 0
    prev = -1
    for pos, v in enumerate(sorted(witness)):
        for u in range(prev + 1, v):
            rank += math.comb(n - u - 1, size - pos - 1)
        prev = v
    return tried + rank + 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.peaks = dict.fromkeys(PEAKS, 0)
        self.pending: list[tuple] = []
        self.installed: list[tuple] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        # Import every module before wrapping any binding, so that no module
        # copies an already wrapped function at its own import.
        modules = {name: importlib.import_module(name) for name in BINDINGS}
        for modname, names in BINDINGS.items():
            mod = modules[modname]
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:
                    continue
                self.installed.append((mod, name, orig))
                setattr(mod, name, self._wrap(modname.rsplit(".", 1)[1], orig))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self.installed):
            setattr(mod, name, orig)
        self.installed.clear()

    def _wrap(self, caller: str, orig):
        span_name = f"{orig.__module__.rsplit('.', 1)[1]}.{orig.__name__}"
        hook = getattr(self, f"_after_{orig.__name__}", None)
        inject_stats = orig.__name__ == "solve_dp"

        def wrapper(*args, **kwargs):
            if inject_stats and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            idx = len(self.spans)
            span = [span_name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(caller, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    # -- result hooks -------------------------------------------------------
    def _after_solve_dp(self, caller, args, kwargs, result):
        g = args[0]
        ntd = args[3] if len(args) > 3 else kwargs.get("ntd")
        self.pending.append((g, ntd, kwargs["stats"], result[0]))
        if caller == "planar":
            self.counts["planar.blocks_solved"] += 1

    def _after_build_blocks(self, caller, args, kwargs, result):
        self.counts["planar.blocks_total"] += len(result)

    def _after_solve_bf(self, caller, args, kwargs, result):
        if result is not None:
            self.counts["bruteforce.subsets_tried"] += subsets_tried(args[0].n, *result)

    def _after_heuristic_td(self, caller, args, kwargs, result):
        self.peaks["treedecomp.width_max"] = max(self.peaks["treedecomp.width_max"], result.width)

    _after_parse_td = _after_heuristic_td

    def _after_to_nice(self, caller, args, kwargs, result):
        self.counts["treedecomp.nice_nodes"] += len(result.nodes)

    # -- ops ------------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        """Pair each solve's table sizes with the kinds of its nice nodes,
        rebuilding the default decomposition if needed."""
        from powerdom.treedecomp import heuristic_td, to_nice

        for g, ntd, stats, opt in self.pending:
            self.counts["dpsolve.ub_gap"] += stats.get("upper_bound", opt) - opt
            sizes = stats.get("table_sizes") or []
            if not sizes:
                continue
            if ntd is None:
                ntd = to_nice(heuristic_td(g))
            order = post_order(ntd)
            if len(order) != len(sizes):
                continue
            for i, size in zip(order, sizes):
                self.counts[f"dpsolve.states.{ntd.nodes[i].kind}"] += size
            self.counts["dpsolve.states_total"] += sum(sizes)
            self.peaks["dpsolve.states_peak"] = max(self.peaks["dpsolve.states_peak"], max(sizes))
        self.pending.clear()

    # -- results --------------------------------------------------------------
    def layer_metrics(self, passes: int, op_s: float) -> dict[str, float]:
        """Per-layer metrics per pass over the op list; `op_s` is the traced
        op time of those passes."""
        own = self_times(self.spans)
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, t in zip(self.spans, own):
            total[span[0]] = total.get(span[0], 0.0) + t
            calls[span[0]] = calls.get(span[0], 0) + 1
        p = max(passes, 1)
        out = {k: total.get(name, 0.0) / p for k, name in SELF_TIME.items()}
        out.update({k: calls.get(name, 0) / p for k, name in CALLS.items()})
        out.update({k: v / p for k, v in self.counts.items()})
        out.update(self.peaks)
        bf_s = out["bruteforce.solve_bf_s"]
        out["bruteforce.subsets_per_s"] = out["bruteforce.subsets_tried"] / bf_s if bf_s else 0.0
        total_blocks = out["planar.blocks_total"]
        out["planar.block_reuse_frac"] = (
            1 - out["planar.blocks_solved"] / total_blocks if total_blocks else 0.0
        )
        out["trace.op_s"] = op_s / p
        out["dpsolve.self_frac"] = out["dpsolve.self_s"] * p / op_s if op_s else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
