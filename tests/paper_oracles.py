"""The paper's proof devices and two exhaustive enumerators, as test oracles.

The solver's loop never runs these: it needs only the relaxation optimum,
the extremal dual and the cuts that dual keeps.  The tests use them to check
the paper's lemmas on real runs: the positively-critical transform, the
consistency of successive duals, and uniqueness and optimality against every
perfect matching and every proper-half-integral vector of a small graph.
"""

from __future__ import annotations

from typing import Sequence

from cpmatch.combinatorial import CriticalMatchingFinder, is_factor_critical
from cpmatch.errors import NoPerfectMatching, StructureViolation
from cpmatch.graph import Graph
from cpmatch.laminar import sorted_sets
from cpmatch.lp import DualSolution
from cpmatch.rational import ONE, Rat, ZERO

FRACTIONAL_NODE_LIMIT = 12


class PreconditionBroken(Exception):
    """A caller-supplied solution fails its documented precondition."""


# ---------------------------------------------------------------------------
# Consistency of duals


def dual_inside(dual, s: frozenset, u: int):
    """D_S(u): the dual of u plus the duals of the set keys strictly inside
    s that contain u, by its definition (every key is scanned)."""
    total = Rat(dual.get(u, ZERO))
    for key, val in dual.items():
        if isinstance(key, frozenset) and key < s and u in key:
            total += val
    return total


def consistency_delta(pi: DualSolution, psi: DualSolution, s) -> object:
    """max over u in s of (pi_S(u) - psi_S(u)), the inner-dual gap."""
    s = frozenset(s)
    return max(dual_inside(pi, s, u) - dual_inside(psi, s, u) for u in sorted(s))


def is_consistent(
    pi: DualSolution, psi: DualSolution, s, x: Sequence, g: Graph
) -> bool:
    """psi is consistent with pi inside s when every support edge leaving s
    is incident to a node realizing the maximal inner gap."""
    s = frozenset(s)
    delta = consistency_delta(pi, psi, s)
    for e in g.delta(s):
        if x[e] == ZERO:
            continue
        a, b, _c = g.edges[e]
        u = a if a in s else b
        if dual_inside(pi, s, u) - dual_inside(psi, s, u) != delta:
            return False
    return True


# ---------------------------------------------------------------------------
# Positively-critical dual transformation


def make_positively_critical(
    g: Graph,
    costs,
    fam,
    pi_fc: DualSolution,
    psi: DualSolution,
    optimal_value=None,
) -> tuple:
    """Rewrite a dual optimum so every set with positive value is
    factor-critical, moving it toward the factor-critical dual pi_fc.

    Processes a maximal eligible set per step: blends the inner values toward
    pi_fc by lambda = min(1, psi(S)/Delta) and lowers psi(S) by
    Delta*lambda, which preserves the dual objective.  Terminates within |F|
    steps.  Returns (psi', iterations).
    """
    fam_sets = sorted_sets(fam.sets if hasattr(fam, "sets") else fam)
    psi = DualSolution(psi)
    if optimal_value is not None and sum(psi.values(), ZERO) != optimal_value:
        raise PreconditionBroken(
            f"dual objective {sum(psi.values(), ZERO)} != optimum {optimal_value}"
        )

    def identical_inside(s):
        for u in s:
            if psi.get(u, ZERO) != pi_fc.get(u, ZERO):
                return False
        for t in fam_sets:
            if t < s and psi.of_set(t) != pi_fc.of_set(t):
                return False
        return True

    iterations = 0
    limit = len(fam_sets)
    while True:
        eligible = [
            s
            for s in fam_sets
            if psi.of_set(s) > ZERO and not identical_inside(s)
        ]
        if not eligible:
            break
        maximal = [s for s in eligible if not any(s < t for t in eligible)]
        s = max(maximal, key=lambda t: (len(t), sorted(t)))
        before = sum(psi.values(), ZERO)

        delta = consistency_delta(pi_fc, psi, s)
        lam = ONE if delta <= ZERO else min(ONE, psi.of_set(s) / delta)
        for u in sorted(s):
            psi[u] = (ONE - lam) * psi.get(u, ZERO) + lam * pi_fc.get(u, ZERO)
        for t in fam_sets:
            if t < s:
                psi[t] = (ONE - lam) * psi.of_set(t) + lam * pi_fc.of_set(t)
        psi[s] = psi.of_set(s) - delta * lam

        iterations += 1
        if sum(psi.values(), ZERO) != before:
            raise StructureViolation(
                "dual objective changed during positively-critical step",
                witness=sorted(s),
            )
        if iterations > limit:
            raise StructureViolation(
                "positively-critical transformation exceeded |F| iterations"
            )
    return psi, iterations


def is_positively_critical(g, costs, fam, dual: DualSolution) -> bool:
    """Every set of the `LaminarFamily` fam with a positive dual is
    factor-critical on the tight edges of dual."""
    finder = CriticalMatchingFinder(g, fam, dual.slacks(g, costs))
    return all(
        is_factor_critical(finder, s)
        for s in fam.sets
        if dual.of_set(s) > ZERO
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration on small graphs


def enumerate_perfect_matchings(g: Graph) -> list:
    """All perfect matchings as sorted edge-id tuples (small graphs only)."""
    adj = g.neighbours
    out = []

    def recurse(mask, chosen):
        if mask == 0:
            out.append(tuple(sorted(chosen)))
            return
        u = (mask & -mask).bit_length()
        for v, e in adj[u]:
            bit = 1 << (v - 1)
            if mask & bit and v != u:
                recurse(mask & ~(1 << (u - 1)) & ~bit, chosen + [e])

    recurse((1 << g.n) - 1, [])
    return sorted(set(out))


def brute_force_fractional_opt(
    g: Graph, costs=None, node_limit: int = FRACTIONAL_NODE_LIMIT
):
    """Minimum cost over all degree-feasible proper-half-integral vectors.

    Enumerates partitions of the nodes into matched pairs and odd cycles; a
    cycle contributes half its edge costs.  Certifies the bipartite
    relaxation optimum.
    """
    if g.n > node_limit:
        raise ValueError(f"fractional enumeration limited to n <= {node_limit}")
    if costs is None:
        costs = [c for _u, _v, c in g.edges]
    adj = g.neighbours

    best = [None]

    def lowest(mask):
        return (mask & -mask).bit_length()

    def recurse(mask, acc):
        if mask == 0:
            if best[0] is None or acc < best[0]:
                best[0] = acc
            return
        u = lowest(mask)
        ubit = 1 << (u - 1)
        # pair u with a free neighbor
        for v, e in adj[u]:
            bit = 1 << (v - 1)
            if mask & bit and v != u:
                recurse(mask & ~ubit & ~bit, acc + Rat(costs[e]))
        # grow an odd cycle through u
        def walk(cur, used_mask, length, cost_half, first_edge):
            for v, e in adj[cur]:
                if e == first_edge and length == 1:
                    continue
                if v == u and length >= 2:
                    if (length + 1) % 2 == 1:
                        recurse(
                            mask & ~used_mask & ~ubit,
                            acc + (cost_half + Rat(costs[e])) / 2,
                        )
                    continue
                bit = 1 << (v - 1)
                if v != u and mask & bit and not used_mask & bit:
                    walk(v, used_mask | bit, length + 1, cost_half + Rat(costs[e]), first_edge)

        for v, e in adj[u]:
            bit = 1 << (v - 1)
            if v != u and mask & bit:
                walk(v, bit, 1, Rat(costs[e]), e)

    recurse((1 << g.n) - 1, ZERO)
    if best[0] is None:
        raise NoPerfectMatching("no degree-feasible half-integral vector")
    return best[0]
