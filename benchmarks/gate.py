"""Correctness gate that shares no code with the solver.

A solve passes when it returned, its base cost equals the workload's
reference, the final trace record carries an LP-duality certificate of
optimality, and `verify_trace` printed no FAIL line.  The certificate is
checked here in `fractions.Fraction` arithmetic from the instance and the
trace text alone: `verify_trace` skips its oracle above n = 16, so without
this check nothing would certify the large instances.
"""

from __future__ import annotations

import json
from fractions import Fraction


def certificate_errors(inst, trace_lines) -> list:
    """Why the final record fails to prove its x a min-cost perfect matching.

    x must be an integral perfect matching; the node and set duals must be
    feasible for the dual of P_F (set duals nonnegative, on odd members of
    the imposed family, no edge overloaded) under the perturbed costs; and
    the dual objective must equal x's perturbed cost.  P_F contains the
    perfect matching polytope, so that makes x optimal for the perturbed
    costs, and, the perturbation summing to less than one, for the base
    costs too.
    """
    m = inst.m
    scaled = [(c << m) + (1 << (m - 1 - i)) for i, (_u, _v, c) in enumerate(inst.edges)]
    last = json.loads(trace_lines[-1])
    x = [Fraction(s) for s in last["primal"]]
    if len(x) != m:
        return [f"primal has {len(x)} entries for {m} edges"]
    errors = []
    if any(v not in (0, 1) for v in x):
        errors.append("final x is not integral")
    degree = [0] * (inst.n + 1)
    for (u, v, _c), val in zip(inst.edges, x):
        degree[u] += val
        degree[v] += val
    if any(d != 1 for d in degree[1:]):
        errors.append("final x is not a perfect matching")

    node_dual = {int(u): Fraction(val) for u, val in last["dual_nodes"].items()}
    family = {frozenset(s) for s in last["cuts_imposed"]}
    set_dual = []
    for nodes, val in last["dual_sets"]:
        s, y = frozenset(nodes), Fraction(val)
        if s not in family or len(s) % 2 == 0:
            errors.append(f"dual on a set outside the odd family: {sorted(s)}")
        if y < 0:
            errors.append(f"negative set dual on {sorted(s)}")
        set_dual.append((s, y))
    for e, (u, v, _c) in enumerate(inst.edges):
        load = node_dual.get(u, 0) + node_dual.get(v, 0)
        load += sum(y for s, y in set_dual if (u in s) != (v in s))
        if load > scaled[e]:
            errors.append(f"edge {e} overloaded by the dual")
            break
    cost = sum(c * val for c, val in zip(scaled, x))
    bound = sum(node_dual.values()) + sum(y for _s, y in set_dual)
    if bound != cost:
        errors.append(f"dual objective {bound} differs from primal cost {cost}")
    return errors


def solve_errors(inst, reference: int, result, trace_lines, verify_lines) -> list:
    """Every reason this solve counts as failed; empty when it passed."""
    errors = []
    matched = sorted(result.matching)
    base = sum(inst.edges[e][2] for e in matched)
    if base != reference or result.base_cost != reference:
        errors.append(f"cost {result.base_cost} (edges sum to {base}), reference {reference}")
    errors.extend(certificate_errors(inst, trace_lines))
    final = json.loads(trace_lines[-1])["primal"]
    if matched != [e for e, v in enumerate(final) if Fraction(v) == 1]:
        errors.append("returned matching differs from the final trace record")
    errors.extend(line for line in verify_lines if line.startswith("FAIL"))
    return errors
