"""Bounded-round power domination: exact solvers, a PTAS, and IP models."""

from powerdom.bruteforce import solve_bf, solve_domset_bf
from powerdom.dpsolve import solve_dp
from powerdom.generators import (
    MinRepInstance,
    attach_paths,
    minrep_to_pds,
    pendant_cycle,
    spider,
)
from powerdom.graphs import Graph, GraphFormatError, emit_graph, parse_graph
from powerdom.ipmodels import (
    IpModel,
    build_ip_ell,
    build_ip_ordering,
    canonical_assignment,
    check_assignment,
    emit_lp,
    parse_solution,
)
from powerdom.orientation import (
    TimedOrientation,
    orientation_from_trace,
    origin,
    validate,
)
from powerdom.planar import (
    LevelAssignment,
    RotationSystem,
    compute_levels,
    parse_levels,
    ptas,
    ptas_detailed,
)
from powerdom.propagation import INF, PropagationTrace, is_feasible, propagate
from powerdom.treedecomp import (
    NiceTreeDecomposition,
    TreeDecomposition,
    heuristic_td,
    parse_td,
    to_nice,
    validate_td,
)

__all__ = [
    "Graph",
    "GraphFormatError",
    "parse_graph",
    "emit_graph",
    "INF",
    "PropagationTrace",
    "propagate",
    "is_feasible",
    "solve_bf",
    "solve_domset_bf",
    "solve_dp",
    "TimedOrientation",
    "orientation_from_trace",
    "origin",
    "validate",
    "TreeDecomposition",
    "NiceTreeDecomposition",
    "heuristic_td",
    "to_nice",
    "parse_td",
    "validate_td",
    "LevelAssignment",
    "RotationSystem",
    "compute_levels",
    "parse_levels",
    "ptas",
    "ptas_detailed",
    "MinRepInstance",
    "spider",
    "pendant_cycle",
    "attach_paths",
    "minrep_to_pds",
    "IpModel",
    "build_ip_ell",
    "build_ip_ordering",
    "canonical_assignment",
    "check_assignment",
    "emit_lp",
    "parse_solution",
]
