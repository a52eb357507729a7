"""The backtracking critical-matching search, kept as a test reference.

`cpmatch.combinatorial.CriticalMatchingFinder` decides each set on its
contracted graph with Edmonds' blossom search.  This is the exhaustive
search it replaced: it tries every tight edge at the first uncovered node
and backtracks, spending one unit of a family set's budget per crossing.
Its worst case is exponential, so tests run it on small sets only.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from cpmatch.graph import Graph
from cpmatch.laminar import sorted_sets
from cpmatch.rational import ZERO


class BacktrackingFinder:
    """Finds matchings on tight edges inside odd sets, respecting family
    budgets.

    `slacks` is `DualSolution.slacks` of the dual the edges must be tight
    for.  The answer for each (set, node) is memoised on first use.  The memo
    for a set s stays valid while the slacks of the edges inside s do not
    change and no family set strictly inside it is added or removed: those
    are its only inputs.
    """

    def __init__(self, g: Graph, fam_sets: Iterable, slacks: Sequence):
        self.g = g
        self.fam_sets = sorted_sets(frozenset(s) for s in fam_sets)
        self.slacks = slacks
        self._memo = {}

    def critical_matching(self, s, u: int):
        """An F-matching on tight edges covering s minus {u}, crossing each
        family subset of s at most once, as sorted edge ids; None if none
        exists."""
        s = frozenset(s)
        if len(s) % 2 == 0:
            raise ValueError(f"critical matchings are defined on odd sets: {sorted(s)}")
        if u not in s:
            raise ValueError(f"node {u} not in set {sorted(s)}")
        key = (s, u)
        if key in self._memo:
            return self._memo[key]

        inner = [t for t in self.fam_sets if t < s]
        neighbours, slacks = self.g.neighbours, self.slacks
        budgets = {t: 1 for t in inner}

        def crossing_sets(e):
            a, b, _c = self.g.edges[e]
            return [t for t in inner if (a in t) != (b in t)]

        # Every node left to cover lies in s minus {u}, so an edge to one
        # stays inside s.
        def search(uncovered, chosen):
            if not uncovered:
                return list(chosen)
            v = uncovered[0]
            rest = uncovered[1:]
            for w, e in neighbours[v]:
                if w not in rest or slacks[e] != ZERO:
                    continue
                crossed = crossing_sets(e)
                if any(budgets[t] == 0 for t in crossed):
                    continue
                for t in crossed:
                    budgets[t] -= 1
                chosen.append(e)
                result = search([y for y in rest if y != w], chosen)
                if result is not None:
                    return result
                chosen.pop()
                for t in crossed:
                    budgets[t] += 1
            return None

        found = search(sorted(s - {u}), [])
        result = None if found is None else sorted(found)
        self._memo[key] = result
        return result


def reference_is_factor_critical(finder: BacktrackingFinder, s) -> bool:
    """True iff every node of s admits a critical matching of s minus it."""
    return all(finder.critical_matching(s, u) is not None for u in sorted(s))
