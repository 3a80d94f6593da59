"""Bounded-round power domination: exact solvers, a PTAS, and IP models.

A public name loads its module on first access (PEP 562), so `import
powerdom` itself loads no solver module.
"""

import importlib

# Public name -> the submodule that defines it; its keys are __all__.
_MODULE_OF = {
    name: module
    for module, names in {
        "graphs": ("Graph", "GraphFormatError", "parse_graph", "emit_graph"),
        "propagation": ("INF", "PropagationTrace", "propagate", "is_feasible"),
        "bruteforce": ("solve_bf", "solve_domset_bf"),
        "dpsolve": ("solve_dp",),
        "orientation": ("TimedOrientation", "orientation_from_trace", "origin", "validate"),
        "treedecomp": ("TreeDecomposition", "NiceTreeDecomposition", "heuristic_td",
                       "to_nice", "parse_td", "validate_td"),
        "planar": ("LevelAssignment", "RotationSystem", "compute_levels", "parse_levels",
                   "ptas", "ptas_detailed"),
        "generators": ("MinRepInstance", "spider", "pendant_cycle", "attach_paths",
                       "minrep_to_pds"),
        "ipmodels": ("IpModel", "build_ip_ell", "build_ip_ordering", "canonical_assignment",
                     "check_assignment", "emit_lp", "parse_solution"),
    }.items()
    for name in names
}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
