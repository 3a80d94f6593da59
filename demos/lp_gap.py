"""What the strengthening inequalities buy in the relaxation.

On a 9-cycle with three rounds, the plain relaxation of the round-indexed
program drops to 0.6 because fractional observation can be spread thinly
around the cycle.  Two cutting planes (a minimum on the first round and
strict growth per round) pull the bound back up to the integer optimum.
The ordering-indexed program has no such fix: an explicit rational point
with objective 1 satisfies every row, while the true optimum grows with
the cycle length.
"""

from fractions import Fraction

from powerdom.bruteforce import solve_bf
from powerdom.generators import pendant_cycle
from powerdom.graphs import Graph
from powerdom.ipmodels import (
    build_ip_ell,
    build_ip_ordering,
    check_assignment,
    lp_matrices,
    objective_value,
)


def lp_optimum(model) -> float:
    from scipy.optimize import linprog

    c, a_ub, b_ub, a_eq, b_eq = lp_matrices(model)
    res = linprog(c, A_ub=a_ub or None, b_ub=b_ub or None,
                  A_eq=a_eq or None, b_eq=b_eq or None,
                  bounds=(0, 1), method="highs")
    assert res.status == 0
    return res.fun


def main() -> None:
    c9 = Graph(9, [(i, (i + 1) % 9) for i in range(9)])
    integer_opt = solve_bf(c9, range(9), 3)[0]
    print(f"9-cycle, 3 rounds: integer optimum {integer_opt}")
    try:
        plain = lp_optimum(build_ip_ell(c9, 3))
        cut = lp_optimum(build_ip_ell(c9, 3, with_valid_ineqs=True))
        print(f"relaxation without cuts: {plain:.6f}")
        print(f"relaxation with cuts:    {cut:.6f}")
    except ImportError:
        print("(scipy not installed; skipping the numeric relaxation)")

    g = pendant_cycle(9)
    model = build_ip_ordering(g, with_valid_ineq=True)
    cert = {name: Fraction(1, 36) if name.startswith("Y") else Fraction(1, 18)
            for name in model.variables}
    violated = check_assignment(model, cert)
    print(f"\npendant cycle on 18 nodes, ordering program with cut:")
    print(f"uniform point x=z=1/18, Y=1/36 violates {len(violated)} rows,"
          f" objective {objective_value(model, cert)}")
    print(f"true optimum {solve_bf(g, range(g.n), g.n)[0]};"
          " the gap scales with the cycle length")


if __name__ == "__main__":
    main()
