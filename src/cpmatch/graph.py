"""Even-order multigraph, fractional solution vectors, support structure.

Node ids are 1-based.  Edges are stored in input order; that order fixes the
cost perturbation and all edge indexing.  Parallel edges are permitted,
self-loops are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ParseError
from .rational import ONE, Rat, ZERO


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph with per-edge costs.

    `edges[i] = (u, v, cost)` with an int cost (`perturb` and the LPs take
    ints only); a contracted graph keeps each surviving edge's own cost.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative node count")
        for u, v, c in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge endpoint out of range: ({u},{v})")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if type(c) is not int:
                raise ValueError(f"edge ({u},{v}) has cost {c!r}, not an int")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple:
        """incidence[u]: ids of the edges at node u, ascending; built on first use."""
        incidence = [[] for _ in range(self.n + 1)]
        for e, (u, v, _c) in enumerate(self.edges):
            incidence[u].append(e)
            incidence[v].append(e)
        return tuple(map(tuple, incidence))

    @cached_property
    def neighbours(self) -> tuple:
        """neighbours[u]: the pairs (other end, edge id) of the edges at node
        u, sorted; built on first use."""
        edges = self.edges
        return tuple(
            tuple(sorted((edges[e][1] if edges[e][0] == u else edges[e][0], e) for e in at_u))
            for u, at_u in enumerate(self.incidence)
        )

    def endpoints(self, e: int):
        u, v, _c = self.edges[e]
        return u, v

    def incident(self, u: int) -> list:
        return list(self.incidence[u])

    def _incidences(self, s):
        """Incidence lists of the members of s that are nodes of this graph;
        other members (a set read from an outside trace may hold any number)
        meet no edge."""
        incidence, n = self.incidence, self.n
        return [incidence[u] for u in s if 1 <= u <= n]

    def delta(self, nodes) -> list:
        """Edge ids with exactly one endpoint in `nodes`, ascending."""
        s = set(nodes)
        edges = self.edges
        return sorted(
            e
            for at_u in self._incidences(s)
            for e in at_u
            if (edges[e][0] in s) != (edges[e][1] in s)
        )

    def inside(self, nodes) -> list:
        """Edge ids with both endpoints in `nodes`, ascending."""
        s = set(nodes)
        edges = self.edges
        return sorted(
            {
                e
                for at_u in self._incidences(s)
                for e in at_u
                if edges[e][0] in s and edges[e][1] in s
            }
        )


class Cuts(dict):
    """delta(S) of each odd set S of one run on g, frozenset -> edge ids,
    read by `Graph.delta` on its first lookup; it lives as long as the run."""

    def __init__(self, g: Graph, *args):
        super().__init__(*args)
        self.g = g

    def __missing__(self, s):
        edges = self[s] = self.g.delta(s)
        return edges


def make_graph(n: int, edges: Iterable) -> Graph:
    return Graph(n=n, edges=tuple((u, v, c) for u, v, c in edges))


def parse_instance(text: str) -> Graph:
    """Parse the `p edge <n> <m>` / `e <u> <v> <cost>` format.

    Edge order in the file defines the perturbation order.
    """
    n = None
    declared_m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: malformed problem line: {raw!r}")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer sizes") from None
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: malformed edge line: {raw!r}")
            try:
                u, v, c = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer edge data") from None
            edges.append((u, v, c))
        else:
            raise ParseError(f"line {lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise ParseError("missing problem line")
    if declared_m != len(edges):
        raise ParseError(f"declared {declared_m} edges, found {len(edges)}")
    try:
        return make_graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_instance(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u} {v} {c}" for u, v, c in g.edges)
    return "\n".join(lines) + "\n"


@dataclass
class SupportDecomposition:
    """Partition of a proper-half-integral support into 1-edges and odd cycles.

    Cycles are node lists, sorted by minimum node id; each starts at its
    minimum node and proceeds toward its smaller-id neighbor.
    """

    matched_edges: list = field(default_factory=list)
    odd_cycles: list = field(default_factory=list)

    @property
    def o(self) -> int:
        return len(self.odd_cycles)

    def covered(self, g: "Graph") -> set:
        """Nodes the support covers.  Each is covered exactly once, by one
        1-edge or one cycle, so x(delta(u)) = 1 exactly at these nodes."""
        nodes = {u for e in self.matched_edges for u in g.endpoints(e)}
        nodes.update(u for cycle in self.odd_cycles for u in cycle)
        return nodes


def decompose_support(x: Sequence, g: Graph) -> SupportDecomposition:
    """Split supp(x) into value-1 edges and odd cycles of value-1/2 edges.

    Purely structural: degree feasibility is not checked here.  Raises
    ValueError when x is not proper-half-integral.  One pass reads only the
    nonzero entries, filling the 1-edges and the half-edge adjacency; each
    is classified by its int numerator and denominator, 1/1 or 1/2.
    """
    matched = []
    adj = {}
    edges = g.edges
    for e, val in enumerate(x):
        if not val:
            continue
        num, den = val.numerator, val.denominator
        if num == 1 and den == 1:
            matched.append(e)
        elif num == 1 and den == 2:
            u, v, _c = edges[e]
            adj.setdefault(u, []).append((v, e))
            adj.setdefault(v, []).append((u, e))
        else:
            raise ValueError(f"value of edge {e} not in {{0, 1/2, 1}}: {val}")
    for u, nbrs in adj.items():
        nbrs.sort()
        if len(nbrs) != 2:
            raise ValueError(f"node {u} has {len(nbrs)} half-edges; expected 2")

    used_nodes = set()
    for e in matched:
        for u in g.endpoints(e):
            if u in used_nodes:
                raise ValueError(f"node {u} covered twice by 1-edges")
            used_nodes.add(u)
    if used_nodes & set(adj):
        bad = min(used_nodes & set(adj))
        raise ValueError(f"node {bad} lies on both a 1-edge and a half-cycle")

    cycles = []
    seen = set()
    for start in sorted(adj):
        if start in seen:
            continue
        # walk toward the smaller-id neighbor first
        cycle = [start]
        seen.add(start)
        prev_edge = None
        cur = start
        while True:
            options = [(w, e) for (w, e) in adj[cur] if e != prev_edge]
            if not options:
                raise ValueError("broken half-edge structure")
            nxt, edge = options[0]
            prev_edge = edge
            if nxt == start:
                break
            if nxt in seen:
                raise ValueError(f"half-edges at node {nxt} do not form disjoint cycles")
            cycle.append(nxt)
            seen.add(nxt)
            cur = nxt
        if len(cycle) < 3 or len(cycle) % 2 == 0:
            raise ValueError(f"half-edge cycle of length {len(cycle)} is not odd >= 3")
        cycles.append(cycle)

    cycles.sort(key=lambda c: c[0])
    return SupportDecomposition(matched_edges=matched, odd_cycles=cycles)


def is_proper_half_integral(x: Sequence, g: Graph) -> bool:
    """True iff values lie in {0,1/2,1} and the half-support is a disjoint
    union of odd cycles with 1-edges disjoint from them."""
    try:
        decompose_support(x, g)
    except ValueError:
        return False
    return True


def in_units(x) -> tuple:
    """(scale, units) of the nonzero entries of x: scale is the lcm of their
    denominators, and units[e] = x[e] * scale, an int, for each such e, in
    ascending e.  A caller that sums x more than once computes it once and
    passes it as `units` to `cut_values`, `cost_value` and
    `feasibility_violation`."""
    support = [(e, val) for e, val in enumerate(x) if val]
    scale = math.lcm(*(val.denominator for _e, val in support))
    return scale, {e: val.numerator * (scale // val.denominator) for e, val in support}


def cut_values(x: Sequence, cuts, units=None):
    """Yield x(delta(S)) for each cut, given as its edge ids, in order.

    The one x(delta(S)) sum of the package: exact in ints, in the units of
    `in_units`, each yielded as the shared ONE or ZERO or one new Rat.  It
    is lazy, so a caller that stops early reads no further cut."""
    scale, units = units or in_units(x)
    for cut in cuts:
        k = sum(units.get(e, 0) for e in cut)
        yield ONE if k == scale else ZERO if not k else Rat(k, scale)


def cost_value(x: Sequence, costs, units=None):
    """c.x, the one objective sum of the package: the int costs times the
    units of `in_units` over the support, summed as ints, then one Rat."""
    scale, units = units or in_units(x)
    return Rat(sum(costs[e] * k for e, k in units.items()), scale)


def feasibility_violation(x: Sequence, g: Graph, cut_sets: Sequence, values=None, units=None):
    """The first breach of x >= 0, x(delta(u)) = 1 for all nodes and
    x(delta(S)) >= 1 for all cuts, as a witness dict; None if x is feasible.

    Only the nonzero entries are read, in the units of `in_units`.  A
    caller that has summed the cuts passes their `values`, in order.
    """
    scale, units = units or in_units(x)
    deg = [0] * (g.n + 1)
    for e, k in units.items():
        if k < 0:
            return {"edge": e, "reason": "negative"}
        u, v, _c = g.edges[e]
        deg[u] += k
        deg[v] += k
    node = next((u for u in range(1, g.n + 1) if deg[u] != scale), None)
    if node is not None:
        return {"node": node, "reason": "degree"}
    if values is None:
        values = cut_values(x, map(g.delta, cut_sets), (scale, units))
    for s, value in zip(cut_sets, values):
        if value < ONE:
            return {"set": sorted(s), "reason": "cut below one"}
    return None


def check_degree_and_cut_feasibility(x: Sequence, g: Graph, cut_sets) -> bool:
    """x >= 0, x(delta(u)) = 1 for all nodes, x(delta(S)) >= 1 for all cuts."""
    return feasibility_violation(x, g, cut_sets) is None
