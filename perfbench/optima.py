"""Compute the stored optima and outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/optima.py   # rewrites perfbench/optima.json

Run once, never inside a timed run.  No optimum comes from `solve_dp`:
paths use the closed form ceil(n / (2 ell + 1)), instances of 24 nodes or
fewer use `solve_bf`, and the rest use `scipy.optimize.milp` (HiGHS) on the
round-indexed program `build_ip_ell`.  Each value records its source.  The
`gen` outputs are stored as SHA-256 digests of the output at the time,
since the command line output is meant to stay the same byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def milp_optimum(g, ell: int) -> int:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    from powerdom.ipmodels import build_ip_ell

    model = build_ip_ell(g, ell)
    idx = {name: j for j, name in enumerate(model.variables)}
    c = np.zeros(len(idx))
    for name in model.objective:
        c[idx[name]] = 1
    rows = lil_matrix((len(model.constraints), len(idx)))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for r, con in enumerate(model.constraints):
        for name, coef in con.coeffs:
            rows[r, idx[name]] = coef
        if con.sense in ("<=", "="):
            hi[r] = con.rhs
        if con.sense in (">=", "="):
            lo[r] = con.rhs
    res = milp(c, constraints=LinearConstraint(rows.tocsr(), lo, hi),
               integrality=np.ones(len(idx)), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"milp did not solve: {res.message}")
    return round(res.fun)


def optimum(name: str, ell: int) -> tuple[int, str]:
    from instances import FAMILIES

    from powerdom.bruteforce import solve_bf

    family, _, args = name.partition(":")
    g, _ = FAMILIES[family](*(int(a) for a in args.split(",")))
    if family == "path":
        return math.ceil(g.n / (2 * ell + 1)), "closed form ceil(n/(2l+1))"
    if g.n <= 24:
        return solve_bf(g, range(g.n), ell)[0], "solve_bf"
    return milp_optimum(g, ell), "scipy milp on build_ip_ell"


def gen_outputs(ops) -> dict[str, str]:
    from instances import TOY_MINREP

    from powerdom import cli

    out = {}
    with open(HERE / "toy.minrep.tmp", "w", encoding="utf-8") as fh:
        fh.write(TOY_MINREP)
    try:
        for op in ops:
            if op.check != "sha":
                continue
            argv = [str(HERE / "toy.minrep.tmp") if a == "toy.minrep" else a for a in op.argv]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"{argv} failed")
            out[op.out] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    finally:
        (HERE / "toy.minrep.tmp").unlink()
    return out


def main() -> int:
    sys.path.insert(0, str(HERE))
    from instances import WORKLOADS

    keys = sorted({(op.instance, op.ell) for ops in WORKLOADS.values() for op in ops if op.ell})
    optima = {}
    for name, ell in keys:
        t0 = time.perf_counter()
        value, source = optimum(name, ell)
        optima[f"{name}@{ell}"] = {"value": value, "source": source}
        print(f"{name}@{ell}: {value} ({source}, {time.perf_counter() - t0:.1f} s)", flush=True)
    stored = {"optima": optima, "outputs": gen_outputs(WORKLOADS["cli-pipeline"])}
    (HERE / "optima.json").write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
