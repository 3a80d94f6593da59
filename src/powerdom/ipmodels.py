"""Integer programs whose optima are round-limited power dominating sets.

Two formulations are provided.  The round-indexed model tracks, for each
round t, whether a node is observed by round t, with edge variables
recording which neighbor vouched for it.  The ordering model instead asks
for a permutation of the nodes, one dominated per round.  Both minimize
the number of chosen origins.

Models are plain data: named binary variables, a unit-weight objective
over the x variables, and tagged linear rows.  They can be written in
CPLEX LP syntax for an external solver, and candidate assignments are
checked with exact rational arithmetic so fractional certificates verify
without tolerance fudging.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .graphs import Graph, check_rounds
from .propagation import INF, propagate


def _xname(v: int) -> str:
    return f"x_v{v + 1}"


def _zname(t: int, v: int) -> str:
    return f"z_t{t}_v{v + 1}"


def _yname(t: int, u: int, v: int) -> str:
    return f"Y_t{t}_{u + 1}_to_{v + 1}"


@dataclass(frozen=True)
class Constraint:
    """One linear row: the coefficient-weighted sum compared against rhs.

    The tag names the constraint family and its indices, 1-based, e.g.
    "(3)[u=2,v=5,w=1,t=3]".  Coefficients are integers.
    """

    tag: str
    coeffs: tuple[tuple[str, int], ...]
    sense: str
    rhs: int


@dataclass(frozen=True)
class IpModel:
    """A binary minimization program.

    variables holds every name the objective and the rows use, in
    lexicographic order; objective lists the variables summed with unit
    weight.  Constraints appear in family order, then index order, which
    fixes the emitted file layout.
    """

    variables: tuple[str, ...]
    objective: tuple[str, ...]
    constraints: tuple[Constraint, ...]


# Largest model the builders make, in coefficients over all its rows (about
# 0.4 KB each, built and written); counted before any row is built.
MAX_COEFFS = 10**6


def _check_size(coeffs: int) -> None:
    if coeffs > MAX_COEFFS:
        raise ValueError(
            f"the model would have {coeffs} coefficients, over the limit {MAX_COEFFS}"
        )


def _closed_without(g: Graph, u: int, v: int) -> list[int]:
    # N[u] minus v; u itself stays in, so the list has deg(u) entries.
    return sorted(w for w in set(g.adjacency[u]) | {u} if w != v)


def _family4(g: Graph, last: int) -> Iterable[Constraint]:
    """Family (4) of both models, over rounds 2..last."""
    for v in range(g.n):
        for t in range(2, last + 1):
            coeffs = [(_zname(t, v), 1)]
            coeffs.extend((_yname(t - 1, u, v), -1) for u in g.adjacency[v])
            coeffs.append((_xname(v), -1))
            yield Constraint(f"(4)[v={v + 1},t={t}]", tuple(coeffs), "<=", 0)


def _model(n: int, cons: list[Constraint]) -> IpModel:
    """The model minimizing the number of origins of n nodes under cons."""
    objective = tuple(_xname(v) for v in range(n))
    names = {name for row in cons for name, _ in row.coeffs}.union(objective)
    return IpModel(tuple(sorted(names)), objective, tuple(cons))


def build_ip_ell(g: Graph, ell: int, with_valid_ineqs: bool = False) -> IpModel:
    """Round-indexed program over rounds 1..ell.

    Families: (1) every node is observed by the last round; (2) first-round
    observation needs an origin in the closed neighborhood; (3) an edge
    variable may fire only once the tail and all its other neighbors are
    observed; (4) later observation needs an incoming edge variable from the
    previous round or origin status.  The optional valid inequalities bound
    the first round by the smallest closed neighborhood (6) and force strict
    growth per round (7).
    """
    check_rounds(ell)
    n = g.n
    # Families (1)-(4), then (6) and (7).
    coeffs = n + 2 * ell * (g.m + n + sum(g.degree(v) ** 2 for v in range(n)))
    if with_valid_ineqs and n > 0:
        coeffs += (2 * ell - 1) * n
    _check_size(coeffs)
    rounds = range(1, ell + 1)
    cons: list[Constraint] = []
    for v in range(n):
        cons.append(Constraint(f"(1)[v={v + 1}]", ((_zname(ell, v), 1),), ">=", 1))
    for v in range(n):
        coeffs = [(_zname(1, v), 1)]
        coeffs.extend((_xname(u), -1) for u in sorted(set(g.adjacency[v]) | {v}))
        cons.append(Constraint(f"(2)[v={v + 1}]", tuple(coeffs), "<=", 0))
    for u in range(n):
        for v in g.adjacency[u]:
            for w in _closed_without(g, u, v):
                for t in rounds:
                    cons.append(Constraint(
                        f"(3)[u={u + 1},v={v + 1},w={w + 1},t={t}]",
                        ((_yname(t, u, v), 1), (_zname(t, w), -1)),
                        "<=", 0,
                    ))
    cons.extend(_family4(g, ell))
    if with_valid_ineqs and n > 0:
        delta = min(g.degree(v) for v in range(n))
        cons.append(Constraint(
            "(6)", tuple((_zname(1, v), 1) for v in range(n)), ">=", delta + 1,
        ))
        for t in range(2, ell + 1):
            coeffs = [(_zname(t, v), 1) for v in range(n)]
            coeffs.extend((_zname(t - 1, v), -1) for v in range(n))
            cons.append(Constraint(f"(7)[t={t}]", tuple(coeffs), ">=", 1))
    return _model(n, cons)


def build_ip_ordering(g: Graph, with_valid_ineq: bool = False) -> IpModel:
    """Permutation program: round t dominates exactly one node.

    Families: (1) each node takes exactly one round and (2) vice versa;
    (3) an edge variable needs its tail's other neighbors already taken,
    or the tail to be an origin; (4) as in the round model.  The optional
    inequality (6) forces some edge variable to fire in every round but
    the last.
    """
    if g.n < 1:
        raise ValueError("ordering model needs at least one node")
    n = g.n
    sq = sum(g.degree(v) ** 2 for v in range(n))  # even, as the degree sum is
    # Families (1)-(4), then (6).
    coeffs = 2 * n * n + (n - 1) * (sq * (n + 4) // 2 + 2 * (g.m + n))
    if with_valid_ineq:
        coeffs += (n - 1) * 2 * g.m
    _check_size(coeffs)
    rounds = range(1, n + 1)
    cons: list[Constraint] = []
    for v in range(n):
        cons.append(Constraint(
            f"(1)[v={v + 1}]", tuple((_zname(t, v), 1) for t in rounds), "=", 1,
        ))
    for t in rounds:
        cons.append(Constraint(
            f"(2)[t={t}]", tuple((_zname(t, v), 1) for v in range(n)), "=", 1,
        ))
    for u in range(n):
        for v in g.adjacency[u]:
            for w in _closed_without(g, u, v):
                for t in range(1, n):
                    coeffs = [(_yname(t, u, v), 1)]
                    coeffs.extend((_zname(tp, w), -1) for tp in range(1, t + 1))
                    coeffs.append((_xname(u), -1))
                    cons.append(Constraint(
                        f"(3)[u={u + 1},v={v + 1},w={w + 1},t={t}]",
                        tuple(coeffs), "<=", 0,
                    ))
    cons.extend(_family4(g, n))
    if with_valid_ineq:
        for t in range(1, n):
            coeffs = [
                (_yname(t, u, v), 1)
                for u in range(n) for v in g.adjacency[u]
            ]
            cons.append(Constraint(f"(6)[t={t}]", tuple(coeffs), ">=", 1))
    return _model(n, cons)


def canonical_assignment(
    g: Graph, s: Iterable[int], ell: int,
) -> dict[str, int]:
    """Zero-one assignment read off one run of the spreading process.

    x marks the origins, z^t marks nodes observed by round t, and an edge
    variable t:u->v fires once u and every neighbor of u other than v are
    observed by round t.  The result satisfies families (1)-(4) of the
    round-indexed model whenever s observes everything within ell rounds;
    an infeasible s is rejected instead.
    """
    origins = frozenset(s)
    times = propagate(g, origins, ell).times
    if INF in times:
        raise ValueError("origin set does not observe every node within the round budget")
    a: dict[str, int] = {}
    for v in range(g.n):
        a[_xname(v)] = 1 if v in origins else 0
    for t in range(1, ell + 1):
        for v in range(g.n):
            a[_zname(t, v)] = 1 if times[v] <= t else 0
    for u in range(g.n):
        for v in g.adjacency[u]:
            others = _closed_without(g, u, v)
            for t in range(1, ell + 1):
                fires = times[u] <= t and all(times[w] <= t for w in others)
                a[_yname(t, u, v)] = 1 if fires else 0
    return a


def check_assignment(
    model: IpModel, a: Mapping[str, object],
) -> list[str]:
    """Evaluate every row exactly; an empty result means the assignment passes.

    Values may be ints, Fractions, or strings like "0.5" or "1/36".  The
    assignment must cover every declared variable.
    """
    vals: dict[str, Fraction] = {}
    for name in model.variables:
        if name not in a:
            raise ValueError(f"assignment is missing variable {name}")
        vals[name] = Fraction(a[name])  # type: ignore[arg-type]
    violated: list[str] = []
    for c in model.constraints:
        lhs = sum((vals[name] * k for name, k in c.coeffs), Fraction(0))
        if c.sense == "<=":
            ok = lhs <= c.rhs
        elif c.sense == ">=":
            ok = lhs >= c.rhs
        else:
            ok = lhs == c.rhs
        if not ok:
            violated.append(c.tag)
    return violated


def lp_matrices(model: IpModel) -> tuple[list, list, list, list, list]:
    """Dense (c, A_ub, b_ub, A_eq, b_eq) of the model's relaxation, with
    columns in variable order and ">=" rows negated into "<=" rows, as
    scipy.optimize.linprog takes them."""
    idx = {name: j for j, name in enumerate(model.variables)}
    c = [0.0] * len(model.variables)
    for name in model.objective:
        c[idx[name]] = 1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in model.constraints:
        row = [0.0] * len(model.variables)
        for name, coef in con.coeffs:
            row[idx[name]] = float(coef)
        if con.sense == "<=":
            a_ub.append(row)
            b_ub.append(float(con.rhs))
        elif con.sense == ">=":
            a_ub.append([-x for x in row])
            b_ub.append(-float(con.rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(con.rhs))
    return c, a_ub, b_ub, a_eq, b_eq


def objective_value(model: IpModel, a: Mapping[str, object]) -> Fraction:
    """Sum of the objective variables under an assignment."""
    return sum((Fraction(a[name]) for name in model.objective), Fraction(0))  # type: ignore[arg-type]


def _row_name(tag: str) -> str:
    # "(3)[u=2,v=5,w=1,t=3]" becomes "c3_u2_v5_w1_t3"; LP row names must
    # avoid brackets and equals signs.
    out = tag.replace("(", "c").replace(")", "").replace("[", "_")
    return out.replace("]", "").replace("=", "").replace(",", "_")


def _format_lhs(coeffs: tuple[tuple[str, int], ...], fallback: str) -> str:
    terms: list[str] = []
    for name, k in coeffs:
        if k == 0:
            continue
        body = name if abs(k) == 1 else f"{abs(k)} {name}"
        if not terms:
            terms.append(body if k > 0 else f"- {body}")
        else:
            terms.append(f"+ {body}" if k > 0 else f"- {body}")
    if not terms:
        # An empty row still needs a syntactically valid left side.
        return f"0 {fallback}"
    return " ".join(terms)


def emit_lp(model: IpModel, relax: bool = False) -> str:
    """Render the model in CPLEX LP syntax, deterministically.

    Row names are the constraint tags with punctuation squeezed out.  With
    relax=True the integrality section is replaced by unit-box bounds.
    """
    lines = ["Minimize"]
    lines.append(" obj: " + " + ".join(model.objective))
    lines.append("Subject To")
    for c in model.constraints:
        lhs = _format_lhs(c.coeffs, model.variables[0] if model.variables else "x")
        lines.append(f" {_row_name(c.tag)}: {lhs} {c.sense} {c.rhs}")
    if relax:
        lines.append("Bounds")
        lines.extend(f" 0 <= {name} <= 1" for name in model.variables)
    else:
        lines.append("Binary")
        lines.extend(f" {name}" for name in model.variables)
    lines.append("End")
    return "\n".join(lines) + "\n"


# Largest decimal exponent magnitude a solution value may carry; Fraction
# expands the power of ten in full, so 1e300000000 would run for minutes.
MAX_EXPONENT = 1000


def parse_solution(text: str) -> dict[str, Fraction]:
    """Read `<variable> <value>` lines into exact rationals.

    Values may be decimals, with an exponent of at most MAX_EXPONENT in
    magnitude, or p/q rationals.  Blank lines and lines starting with # are
    skipped; duplicates and malformed lines are rejected.
    """
    out: dict[str, Fraction] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"solution line {ln}: expected '<variable> <value>'")
        name, value = parts
        if name in out:
            raise ValueError(f"solution line {ln}: duplicate variable {name}")
        _, e, exponent = value.upper().partition("E")
        try:
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise ValueError(f"exponent beyond {MAX_EXPONENT}")
            out[name] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"solution line {ln}: bad value {value!r}") from exc
    return out
