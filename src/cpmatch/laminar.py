"""Laminar families of odd node sets and contraction w.r.t. a dual.

Sets are `frozenset[int]`.  The family keeps an explicit inclusion forest;
all queries scan it directly (|F| <= n/2, asymptotics are irrelevant here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import LaminarityViolation
from .graph import Graph
from .rational import Rat, ZERO


def odd_set(nodes: Iterable, n: int) -> frozenset:
    """Validate an odd cut set: odd cardinality, 3 <= |S| <= n - 3."""
    s = frozenset(int(u) for u in nodes)
    if len(s) % 2 == 0 or len(s) < 3:
        raise ValueError(f"odd set must have odd size >= 3, got {sorted(s)}")
    if len(s) > n - 3:
        raise ValueError(f"odd set of size {len(s)} too large for n={n}")
    if not all(1 <= u <= n for u in s):
        raise ValueError("odd set contains out-of-range node")
    return s


def sorted_sets(sets) -> list:
    """Deterministic family order: by (size, sorted members)."""
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


class LaminarFamily:
    """Immutable laminar family of odd sets over nodes 1..n."""

    def __init__(self, n: int, sets: Iterable = ()):
        self.n = n
        self._sets = []
        for s in sorted_sets(sets):
            self._insert(s)

    def _insert(self, s: frozenset):
        s = odd_set(s, self.n)
        for t in self._sets:
            if s == t:
                raise LaminarityViolation(f"duplicate set {sorted(s)}")
            inter = s & t
            if inter and not (s <= t or t <= s):
                raise LaminarityViolation(
                    f"{sorted(s)} properly crosses {sorted(t)}"
                )
        self._sets.append(s)
        if len(self._sets) > self.n // 2:
            raise LaminarityViolation(
                f"family exceeds n/2 = {self.n // 2} members"
            )

    def insert_checked(self, s) -> "LaminarFamily":
        """Return a new family with s added; LaminarityViolation on crossing."""
        fam = LaminarFamily(self.n, self._sets)
        fam._insert(frozenset(s))
        return fam

    @property
    def sets(self) -> list:
        return sorted_sets(self._sets)

    def __len__(self):
        return len(self._sets)

    def __iter__(self):
        return iter(self.sets)

    def __contains__(self, s):
        return frozenset(s) in self._sets

    def __eq__(self, other):
        return isinstance(other, LaminarFamily) and set(self._sets) == set(other._sets)

    def parent_of(self, s) -> frozenset | None:
        """Smallest family member strictly containing s, if any."""
        s = frozenset(s)
        parents = [t for t in self._sets if s < t]
        return min(parents, key=len) if parents else None

    def maximal_sets(self) -> list:
        return sorted_sets(s for s in self._sets if self.parent_of(s) is None)

    def maximal_sets_intersecting(self, nodes) -> list:
        """Inclusion-maximal members meeting `nodes`, in deterministic order."""
        nodes = frozenset(nodes)
        return [s for s in self.maximal_sets() if s & nodes]


def dual_inside(dual: Mapping, s: frozenset, u: int):
    """Total dual contribution of sets strictly inside s that contain u.

    Includes the singleton {u}; set-valued keys of `dual` are frozensets.
    """
    total = Rat(dual.get(u, ZERO))
    for key, val in dual.items():
        if isinstance(key, frozenset) and key < s and u in key:
            total += val
    return total


@dataclass
class ContractionMap:
    """Bookkeeping for contracting node sets to single nodes.

    Every contracted edge has a unique original pre-image (parallel edges are
    kept distinct so solutions lift back exactly).
    """

    node_image: dict
    edge_preimage: list
    cost_image: list

    def image_of_nodes(self, nodes) -> frozenset:
        return frozenset(self.node_image[u] for u in nodes)

    def image_node_of_set(self, s) -> int | None:
        """The single new node a contracted set maps to, else None."""
        img = self.image_of_nodes(s)
        return next(iter(img)) if len(img) == 1 else None

    def lift_vector(self, x_new, m_old: int) -> list:
        """Pull a contracted edge vector back; edges inside contracted sets
        get value 0 (callers fill them via critical matchings)."""
        x = [ZERO] * m_old
        for e_new, val in enumerate(x_new):
            x[self.edge_preimage[e_new]] = val
        return x


def contract_with_dual(
    g: Graph, costs, sets_to_contract, dual: Mapping
) -> tuple:
    """Contract each set to one node; boundary costs drop by the inner dual.

    An edge uv with u inside contracted S gets cost c(uv) - D_S(u), where
    D_S(u) sums dual values of sets strictly inside S containing u.  Returns
    (Graph, ContractionMap); the new graph's edge costs equal cost_image.
    """
    chosen = sorted_sets(frozenset(s) for s in sets_to_contract)
    for i, s in enumerate(chosen):
        for t in chosen[i + 1 :]:
            if s & t:
                raise ValueError(
                    f"contracted sets must be disjoint: {sorted(s)} vs {sorted(t)}"
                )

    in_set = {}
    for s in chosen:
        for u in s:
            in_set[u] = s

    reps = []
    for u in range(1, g.n + 1):
        if u not in in_set:
            reps.append(("node", u))
    for s in chosen:
        reps.append(("set", min(s), s))
    reps.sort(key=lambda r: r[1])

    node_image = {}
    set_node = {}
    for new_id, r in enumerate(reps, start=1):
        if r[0] == "node":
            node_image[r[1]] = new_id
        else:
            set_node[r[2]] = new_id
    for u, s in in_set.items():
        node_image[u] = set_node[s]

    new_edges = []
    preimage = []
    cost_image = []
    for e, (u, v, c) in enumerate(g.edges):
        su, sv = in_set.get(u), in_set.get(v)
        if su is not None and su == sv:
            continue
        new_c = Rat(costs[e])
        if su is not None:
            new_c -= dual_inside(dual, su, u)
        if sv is not None:
            new_c -= dual_inside(dual, sv, v)
        new_edges.append((node_image[u], node_image[v], new_c))
        preimage.append(e)
        cost_image.append(new_c)

    new_g = Graph(n=len(reps), edges=tuple(new_edges))
    cmap = ContractionMap(
        node_image=node_image,
        edge_preimage=preimage,
        cost_image=cost_image,
    )
    return new_g, cmap


def contract_maximal(
    g: Graph, costs, fam: LaminarFamily, dual: Mapping, which
) -> tuple:
    """Contract the family members selected by `which` (a predicate).

    Fails if a selected set is non-maximal among the selected ones; nested
    unselected sets simply vanish into their contracted ancestor.
    """
    selected = [s for s in fam.sets if which(s)]
    for s in selected:
        for t in selected:
            if s < t:
                raise ValueError(
                    f"selected set {sorted(s)} is nested inside selected {sorted(t)}"
                )
    return contract_with_dual(g, costs, selected, dual)
