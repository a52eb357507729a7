"""Reference brute-force oracle for `cpmatch.oracle.brute_force_mcpm`.

The same recursion, written the plain way: every candidate builds a `Rat`
sum and its full edge tuple, and equal costs are ordered by comparing the
tuples.  The package's oracle must return the same (edges, cost) or raise
the same exception type."""

from __future__ import annotations

from cpmatch.errors import NoPerfectMatching
from cpmatch.graph import Graph
from cpmatch.oracle import NODE_LIMIT
from cpmatch.rational import Rat, ZERO


def brute_force_mcpm(g: Graph, costs=None):
    """Minimum-cost perfect matching by recursive pairing of the lowest
    unmatched node, memoized on the set of unmatched nodes.

    Ties broken by lexicographic edge-index order.  Costs default to the
    graph's own; pass scaled integers to rank by perturbed cost.
    """
    if g.n > NODE_LIMIT:
        raise ValueError(f"brute force limited to n <= {NODE_LIMIT}")
    if g.n % 2 == 1 or g.n == 0:
        raise NoPerfectMatching(f"n = {g.n}")
    if costs is None:
        costs = [c for _u, _v, c in g.edges]
    adj = g.neighbours
    full = (1 << g.n) - 1

    memo = {}

    def best(mask):
        if mask == 0:
            return (ZERO, ())
        if mask in memo:
            return memo[mask]
        u = (mask & -mask).bit_length()  # lowest unmatched node (1-based)
        result = None
        for v, e in adj[u]:
            bit = 1 << (v - 1)
            if v == u or not mask & bit:
                continue
            sub = best(mask & ~(1 << (u - 1)) & ~bit)
            if sub is None:
                continue
            cand = (Rat(costs[e]) + sub[0], (e,) + sub[1])
            if result is None or cand[0] < result[0] or (
                cand[0] == result[0] and cand[1] < result[1]
            ):
                result = cand
        memo[mask] = result
        return result

    answer = best(full)
    if answer is None:
        raise NoPerfectMatching("exhausted all pairings")
    cost, edges = answer
    return sorted(edges), cost
