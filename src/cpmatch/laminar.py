"""Laminar families of odd node sets and their contraction.

Sets are `frozenset[int]`.  A family is a flat list in `sorted_sets`
order, built and validated once by its constructor; queries scan it
directly (|F| <= n/2, asymptotics are irrelevant here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import LaminarityViolation
from .graph import Graph


def odd_set(nodes: Iterable, n: int) -> frozenset:
    """Validate an odd cut set: odd cardinality, 3 <= |S| <= n - 3."""
    s = frozenset(map(int, nodes))
    if len(s) % 2 == 0 or len(s) < 3:
        raise ValueError(f"odd set must have odd size >= 3, got {sorted(s)}")
    if len(s) > n - 3:
        raise ValueError(f"odd set of size {len(s)} too large for n={n}")
    if min(s) < 1 or max(s) > n:
        raise ValueError(f"odd set {sorted(s)} has a node outside 1..{n}")
    return s


def sorted_sets(sets) -> list:
    """Deterministic family order: by (size, sorted members)."""
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def maximal_sets(sets) -> list:
    """The inclusion-maximal members of the laminar family `sets`, in
    `sorted_sets` order.  Taken largest first, a set is maximal iff no
    maximal set before it holds one of its nodes: one that did would
    contain it."""
    covered, tops = set(), []
    for s in sorted(sets, key=len, reverse=True):
        if next(iter(s)) not in covered:
            tops.append(s)
            covered.update(s)
    return sorted_sets(tops)


class LaminarFamily:
    """Immutable laminar family of odd sets over nodes 1..n.  The
    constructor adds the sets in `sorted_sets` order, each checked against
    those before it: ValueError for a set that is not an odd set,
    LaminarityViolation for a duplicate, a crossing or over n/2 members."""

    def __init__(self, n: int, sets: Iterable = ()):
        self.n = n
        self._sets = []
        owner = {}  # node -> the last set added that holds it
        for s in sorted_sets(map(frozenset, sets)):
            self._add(s, owner)

    def _add(self, s: frozenset, owner: dict):
        """Append s.  The sets come smallest first, so the family so far is
        laminar with s iff every set that owns a node of s lies strictly
        inside s; those owners are disjoint, so this reads O(|s|) nodes."""
        s = odd_set(s, self.n)
        for t in {owner.get(v, s) for v in s}:  # s stands for "no owner"
            if t is not s and not t < s:
                # name the first set before s that it duplicates or crosses
                for r in self._sets:
                    if s == r:
                        raise LaminarityViolation(f"duplicate set {sorted(s)}")
                    if s & r and not r < s:
                        raise LaminarityViolation(
                            f"{sorted(s)} properly crosses {sorted(r)}"
                        )
        self._sets.append(s)
        owner.update(dict.fromkeys(s, s))
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
    kept distinct, so a value on a contracted edge maps back exactly).
    """

    node_image: dict
    edge_preimage: list

    def image_of_nodes(self, nodes) -> frozenset:
        return frozenset(self.node_image[u] for u in nodes)

    def image_node_of_set(self, s) -> int | None:
        """The single new node a contracted set maps to, else None."""
        img = self.image_of_nodes(s)
        return next(iter(img)) if len(img) == 1 else None


def contract_with_dual(g: Graph, sets_to_contract) -> tuple:
    """Contract each of the disjoint sets to one node.

    The new nodes are numbered in the order of their least original node.
    The edges inside a set are dropped; every other edge keeps its cost and
    its place in edge order.  Returns (Graph, ContractionMap).  It takes no
    dual; `benchmarks/tracing.py` wraps it by this name.
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
    for e, (u, v, c) in enumerate(g.edges):
        su, sv = in_set.get(u), in_set.get(v)
        if su is not None and su == sv:
            continue
        new_edges.append((node_image[u], node_image[v], c))
        preimage.append(e)

    new_g = Graph(n=len(reps), edges=tuple(new_edges))
    return new_g, ContractionMap(node_image=node_image, edge_preimage=preimage)

