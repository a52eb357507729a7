"""Reference extremal-dual builder for `cpmatch.lp.solve_extremal_dual`.

The rational program as the package posed it before it moved to ints: each
deviation from Gamma in true units, each weight 1/|S| a `Rat`, each edge
row's right-hand side one `Rat`, and Psi summed from Gamma in `Rat`s.  It
is solved in ints (`reference_simplex.in_ints`), which keeps x.  The
package's int program scales every right-hand side and the objective by
one positive number each, so `simplex_solve` must make the same pivots on
both and the two must return the same Psi."""

from __future__ import annotations

import math
from typing import Sequence

from cpmatch.errors import StructureViolation
from cpmatch.graph import Graph, cost_value, cut_values
from cpmatch.laminar import LaminarFamily
from cpmatch.lp import DualSolution, LinearProgram, _denominators, _scaled, simplex_solve
from cpmatch.rational import ONE, Rat, ZERO
from reference_simplex import in_ints


def solve_extremal_dual(
    g: Graph, costs, fam: LaminarFamily, x: Sequence, gamma: DualSolution
) -> DualSolution:
    """Dual optimum of P_F minimizing sum |Psi(S)-Gamma(S)|/|S| over V and
    the tight family sets.

    The program fixes equality on supp(x) edges and restricts the support of
    Psi to singletons and tight sets, so its feasible points are exactly the
    dual optima; LPInfeasible therefore certifies that x is not optimal.
    Each |Psi(S)-Gamma(S)| is modelled as an up/down deviation pair from
    Gamma, keyed in the order: singletons by node id, then tight family sets
    by (size, min element).  Raises StructureViolation, with the set as
    witness, when x(delta(S)) < 1 for a family set S: x is not feasible.
    """
    tight_sets = []
    crossed = [[] for _ in range(g.m)]  # tight sets each edge crosses, in key order
    sets = fam.sets
    cuts = [g.delta(s) for s in sets]
    for s, cut, value in zip(sets, cuts, cut_values(x, cuts)):
        if value < ONE:
            raise StructureViolation("primal is below one on a cut", witness=sorted(s))
        if value == ONE:
            tight_sets.append(s)
            for e in cut:
                crossed[e].append(s)
    keys = list(range(1, g.n + 1)) + tight_sets

    lp = LinearProgram()
    up = {}
    down = {}
    for key in keys:
        w = 1 if isinstance(key, int) else Rat(1, len(key))
        up[key] = lp.add_var(w)
        down[key] = lp.add_var(w)

    gamma_restricted = DualSolution({key: gamma.get(key, ZERO) for key in keys})

    # Each edge row's right-hand side costs[e] - Gamma(keys at e) is summed
    # in units of 1/d and becomes one Rat.
    d = math.lcm(*_denominators(gamma_restricted.values()))
    units = {key: _scaled(val, d) for key, val in gamma_restricted.items()}
    for e, (u, v, _c) in enumerate(g.edges):
        coefs = {}
        load = 0
        for key in (min(u, v), max(u, v), *crossed[e]):
            coefs[up[key]] = 1
            coefs[down[key]] = -1
            load += units[key]
        rel = "=" if x[e] else "<="
        lp.add_row(coefs, rel, Rat(costs[e] * d - load, d))

    for s in tight_sets:
        # Psi(S) = Gamma(S) + up - down must stay nonnegative
        lp.add_row({down[s]: 1, up[s]: -1}, "<=", gamma_restricted[s])

    res = simplex_solve(in_ints(lp))

    psi = DualSolution()
    for key in keys:
        val, raised, lowered = gamma_restricted[key], res.x[up[key]], res.x[down[key]]
        if raised:
            val += raised
        if lowered:
            val -= lowered
        psi[key] = val
    for s in sets:
        if psi.setdefault(s, ZERO) < ZERO:
            raise StructureViolation("extremal dual is negative on a cut", witness=sorted(s))

    if sum(psi.values(), ZERO) != cost_value(x, costs):
        raise StructureViolation("extremal dual is not a dual optimum")
    return psi
