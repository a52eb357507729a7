"""Laminar families of odd node sets and contraction w.r.t. a dual.

Sets are `frozenset[int]`.  A family is a flat list in `sorted_sets`
order, built and validated once by its constructor; queries scan it
directly (|F| <= n/2, asymptotics are irrelevant here).
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
        raise ValueError(f"odd set {sorted(s)} has a node outside 1..{n}")
    return s


def sorted_sets(sets) -> list:
    """Deterministic family order: by (size, sorted members)."""
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def maximal_sets(sets) -> list:
    """The inclusion-maximal members of `sets`, in `sorted_sets` order."""
    sets = list(sets)
    return sorted_sets(s for s in sets if not any(s < t for t in sets))


class LaminarFamily:
    """Immutable laminar family of odd sets over nodes 1..n.  The
    constructor inserts the sets in `sorted_sets` order, each checked
    against those before it: ValueError for a set that is not an odd set,
    LaminarityViolation for a duplicate, a crossing or over n/2 members."""

    def __init__(self, n: int, sets: Iterable = ()):
        self.n = n
        self._sets = []
        for s in sorted_sets(map(frozenset, sets)):
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

    @property
    def sets(self) -> list:
        return list(self._sets)

    def __len__(self):
        return len(self._sets)


@dataclass
class ContractionMap:
    """Bookkeeping for contracting node sets to single nodes.

    Every contracted edge has a unique original pre-image (parallel edges are
    kept distinct so solutions lift back exactly).
    """

    node_image: dict
    edge_preimage: list

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
    D_S(u) is the dual of u plus the duals of the set keys strictly inside S
    that contain u.  The keys are sorted to their sets in one pass, and
    D_S(u) is summed once per boundary node.  Returns (Graph,
    ContractionMap).
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

    # The set keys strictly inside each chosen set: a key inside S has all
    # its nodes in S, so the set of any one of them is the only candidate.
    inside = {s: [] for s in chosen}
    for key, val in dual.items():
        if isinstance(key, frozenset):
            s = in_set.get(next(iter(key), None))
            if s is not None and key < s:
                inside[s].append((key, val))
    d_in = {}

    def dual_in(u: int):
        """D_S(u) for the chosen set S that holds u, computed once per node."""
        if u not in d_in:
            total = Rat(dual.get(u, ZERO))
            for key, val in inside[in_set[u]]:
                if u in key:
                    total += val
            d_in[u] = total
        return d_in[u]

    new_edges = []
    preimage = []
    for e, (u, v, c) in enumerate(g.edges):
        su, sv = in_set.get(u), in_set.get(v)
        if su is not None and su == sv:
            continue
        new_c = Rat(costs[e])
        if su is not None:
            new_c -= dual_in(u)
        if sv is not None:
            new_c -= dual_in(v)
        new_edges.append((node_image[u], node_image[v], new_c))
        preimage.append(e)

    new_g = Graph(n=len(reps), edges=tuple(new_edges))
    return new_g, ContractionMap(node_image=node_image, edge_preimage=preimage)

