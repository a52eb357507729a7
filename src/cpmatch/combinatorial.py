"""Critical matchings and the half-integral matching procedure.

This module provides the combinatorial side of the solver: critical
matchings on tight edges inside odd sets, which test factor-criticality and
rematch the inside of a contracted set, and the primal-dual half-integral
matching procedure that solves the constrained relaxations without a
simplex.  The paper's proof devices, the positively-critical transform and
the consistency measure, do not run in the loop; they are test oracles in
`tests/paper_oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidConfiguration, StalledNoEpsilon, StructureViolation
from .graph import Graph, SupportDecomposition, cut_values, decompose_support
from .laminar import LaminarFamily, contract_with_dual, sorted_sets
from .lp import DualSolution, _denominators, _scaled, slackness_violation
from .rational import HALF, ONE, Rat, ZERO, format_rat


# ---------------------------------------------------------------------------
# Critical matchings and factor-criticality


class CriticalMatchingFinder:
    """Finds matchings on tight edges inside odd sets, respecting family
    budgets.

    `fam` is a `LaminarFamily`, and `slacks` is `DualSolution.slacks` of
    the dual the edges must be tight for: an edge is tight where its slack
    is 0.  A critical matching of (s, u), for a set s of `fam` and u in s,
    is a matching on tight edges inside s that covers s minus {u} and
    crosses each family set strictly inside s at most once.  A query on a
    set outside `fam` raises ValueError.

    Each set s is decided on its own contracted graph H_s.  The children of
    s are the maximal family sets strictly inside it, which `fam.children`
    lists.  H_s has one part per child and one per node of s in no child,
    and one edge per tight edge inside s that joins two parts.  Why this is
    exact:
    - A critical matching M of (s, u) covers every child t that misses u.
      t is odd, so an odd number of M's edges cross it: exactly one, as the
      budget is 1.  At the child that holds u an even number cross: none.
    - Inside a child t, M is then a critical matching of (t, w), where w is
      the node at which the crossing edge enters t (or u itself).  A family
      set r inside t that this edge crosses holds w, so M inside t crosses r
      an even number of times, that is never.  So the budgets of t's own
      inner sets work out too, and conversely such pieces always glue to a
      critical matching of (s, u).
    - So (s, u) has a critical matching iff H_s minus u's part has a perfect
      matching on usable edges, and (t, u) has one when u lies in a child t.
      An edge is usable iff each child it enters, at w say, has a critical
      matching of (child, w): call such a w good in that child.

    One maximum matching and one more blossom search per set find every
    good node at once.  Take a maximum matching of the usable H_s.  If it leaves exactly one part r
    exposed, the parts P for which H_s - P has a perfect matching are the
    parts that some maximum matching leaves exposed (Gallai-Edmonds), that
    is the parts the search grown from r labels even; otherwise there are
    none.  The good nodes of s are the nodes of those parts that are good
    in their part.  s is factor-critical iff all its nodes are good, so iff
    every child is factor-critical and H_s is a factor-critical graph.

    Sets are decided in `sorted_sets` order, children first, and each set's
    H_s and each (set, node)'s matching is memoised.  The tight flags are
    built on the first query.  H_s of a set s depends only on the tight
    flags of the edges inside s and on the family sets strictly inside it;
    its `boundary`, the tight edges leaving s, depends only on the tight
    flags of the edges that cross s.

    A finder given a `previous` finder on the same graph takes over, on its
    first query, the H_s that finder decided for each family set s with the
    same family sets strictly inside it and no edge inside s whose tight
    flag changed; the boundary of such a set is rebuilt from the changed
    edges that cross it, since a parent decided again reads it.  It then
    drops `previous`.  A finder with no previous one starts with an empty
    memo; the two decide every set alike.
    """

    def __init__(
        self, g: Graph, fam: LaminarFamily, slacks: Sequence,
        previous: CriticalMatchingFinder | None = None,
    ):
        if previous is not None and previous.g is not g:
            raise ValueError("a finder takes over only a finder on the same graph")
        self.g = g
        self.fam = fam
        self.slacks = slacks
        self._previous = previous
        self._tight = None  # per edge, built on the first query
        self._decided = {}  # set -> its _Contracted
        self._memo = {}  # (set, node) -> sorted edge ids or None

    def _take_over(self, previous: CriticalMatchingFinder) -> None:
        """Take over the H_s of `previous` for each family set s whose
        inputs are unchanged, children first, rebuilding its boundary.

        One pass over the tight flags lists the changed edges.  Walking up
        the family tree from each end of a changed edge e, the sets below
        the least set holding both ends cross e, and that set and every set
        above it hold e inside."""
        children = self.fam.children
        parent = {t: s for s, kids in children.items() for t in kids}
        innermost = {}  # node -> the least family set that holds it
        for s, kids in children.items():
            innermost.update(dict.fromkeys(s.difference(*kids), s))
        tight, edges = self._tight, self.g.edges
        dirty, crossing = set(), {}  # crossing: set -> changed edges leaving it
        for e, was, now in zip(range(len(tight)), previous._tight, tight):
            if was is now:
                continue
            u, v, _c = edges[e]
            for a, b in ((u, v), (v, u)):
                t, x = innermost.get(a), (a, b, e)
                while t is not None and b not in t:
                    crossing.setdefault(t, []).append(x)
                    t = parent.get(t)
            while t is not None and t not in dirty:
                dirty.add(t)
                t = parent.get(t)
        decided, old = self._decided, previous._decided
        for s, kids in children.items():  # smallest first
            h = old.get(s)
            if (h is None or s in dirty or not all(t in decided for t in kids)
                    or {t for t in h.parts if type(t) is frozenset} != set(kids)):
                continue
            changes = crossing.get(s)
            if changes:
                boundary = [x for x in h.boundary if tight[x[2]]]
                boundary += [x for x in changes if tight[x[2]]]
                h = _Contracted(h.parts, h.edges, h.good, tuple(boundary))
            decided[s] = h

    def _decide(self, s: frozenset) -> _Contracted:
        """H_s of the family set s, after deciding every set inside s not
        yet decided."""
        children = self.fam.children
        if s not in children:
            raise ValueError(f"{sorted(s)} is not a set of the finder's family")
        if self._tight is None:  # the first query: the tight flags, then the take-over
            self._tight = [not v for v in self.slacks]
            previous, self._previous = self._previous, None
            if previous is not None and previous._decided:
                self._take_over(previous)
        decided = self._decided
        if s not in decided:
            todo, stack = [], [s]
            while stack:
                t = stack.pop()
                todo.append(t)
                stack.extend(c for c in children[t] if c not in decided)
            for t in sorted_sets(todo):
                decided[t] = self._contract(t)
        return decided[s]

    def _contract(self, s) -> _Contracted:
        """H_s of s, whose children are decided; its parts are numbered in
        the order of their least node.

        Its edges are read at its own nodes (those in no child), whose
        neighbour lists no other set reads, and from its children's
        boundaries, the tight edges with one end in the child, each kept as
        (inner end, outer end, edge id).  A node's neighbours are thus read
        once per finder, however deep the family."""
        kids, decided = self.fam.children[s], self._decided
        # the nodes of children that no usable edge may enter
        bad = set().union(*(t - decided[t].good for t in kids))
        own = s.difference(*kids)
        # one part per child, keyed by its least node, and one per own node
        least = {min(t): t for t in kids}
        order = sorted(own.union(least))
        part_of, children, parts = {}, [], []
        for p, v in enumerate(order):
            t = least.get(v)
            if t is None:
                part_of[v] = p
                parts.append(v)
            else:
                part_of.update(dict.fromkeys(t, p))
                parts.append(t)
            children.append(t)
        tight, neighbours = self._tight, self.g.neighbours
        edge, boundary = {}, []
        for v in own:
            p = part_of[v]
            for w, e in neighbours[v]:
                if tight[e]:
                    q = part_of.get(w)
                    if q is None:
                        boundary.append((v, w, e))
                    elif w not in bad and (p < q or q < p and children[q] is not None):
                        # an edge between two own nodes is read from both
                        # ends and kept from the lower part's
                        key = (p, q) if p < q else (q, p)
                        if edge.get(key, e) >= e:
                            edge[key] = e
        for t in kids:
            for x in decided[t].boundary:
                v, w, e = x
                q = part_of.get(w)
                if q is None:
                    boundary.append(x)
                elif v not in bad and w not in bad and children[q] is not None:
                    # between two children, read at both: kept from the
                    # lower part's; an edge to an own node was read above
                    p = part_of[v]
                    if p < q and edge.get((p, q), e) >= e:
                        edge[p, q] = e
        pairs = sorted(edge)
        adj = [[] for _ in children]
        for p, q in pairs:
            adj[p].append(q)
            adj[q].append(p)
        _mate, even = _max_matching(len(children), adj)
        # an even part's good nodes: its own node, or its child's good nodes
        good = set()
        for p in even:
            t = children[p]
            if t is None:
                good.add(order[p])
            else:
                good |= decided[t].good
        edges = []
        for key in pairs:
            edges += key
            edges.append(edge[key])
        good = s if len(good) == len(s) else frozenset(good)
        return _Contracted(tuple(parts), tuple(edges), good, tuple(boundary))

    def critical_matching(self, s, u: int):
        """An F-matching on tight edges covering s minus {u}, crossing each
        family subset of s at most once, as sorted edge ids; None if none
        exists."""
        s = frozenset(s)
        if u not in s:
            raise ValueError(f"node {u} not in set {sorted(s)}")
        key = (s, u)
        if key in self._memo:
            return self._memo[key]
        result = None
        if u in self._decide(s).good:
            # a perfect matching of H_t minus w's part for each (t, w) on the
            # stack, then each child at the node where it is entered
            result = []
            stack = [(s, u)]
            while stack:
                t, w = stack.pop()
                h = self._decided[t]
                skip = h.part(w)
                if type(h.parts[skip]) is frozenset:
                    stack.append((h.parts[skip], w))
                adj, edge, flat = [[] for _ in h.parts], {}, iter(h.edges)
                for p, q, e in zip(flat, flat, flat):
                    adj[p].append(q)
                    adj[q].append(p)
                    edge[p, q] = e
                mate, _even = _max_matching(len(h.parts), adj, skip)
                for p, q in enumerate(mate):
                    if p < q:
                        e = edge[p, q]
                        result.append(e)
                        for x in self.g.endpoints(e):
                            for child in (h.parts[p], h.parts[q]):
                                if type(child) is frozenset and x in child:
                                    stack.append((child, x))
            result.sort()
        self._memo[key] = result
        return result


@dataclass(slots=True)
class _Contracted:
    """H_s of one set s, on usable tight edges only, kept small: a finder
    carried from one check to the next holds one per family set.

    `edges` is flat: p, q and the lowest edge id for each pair of parts
    p < q that a usable edge joins, ascending by (p, q).  `boundary` holds
    (end in s, end outside, id) for each tight edge leaving s, the same
    tuple as in the boundary of the child it leaves, if any."""

    parts: tuple  # part -> its own node (an int), or its child set
    edges: tuple
    good: frozenset  # the nodes u with a critical matching of (s, u): s if all
    boundary: tuple

    def part(self, v: int) -> int:
        """The part that holds the node v of s."""
        for p, t in enumerate(self.parts):
            if (v in t) if type(t) is frozenset else t == v:
                return p
        raise ValueError(f"node {v} not in the set")


def _max_matching(h: int, adj: Sequence, skip: int = -1) -> tuple:
    """A maximum matching of the graph on nodes 0..h-1 with neighbour lists
    `adj`, node `skip` left out, by Edmonds' blossom search.

    Returns (mate, even).  mate[v] is v's partner, or -1.  If the matching
    leaves exactly one node r exposed, even is the set of nodes the search
    grown from r labels even, which is every node some maximum matching
    leaves exposed; otherwise it is empty.
    """
    mate = [-1] * h
    for v in range(h):  # a greedy start saves most of the searches
        if v != skip and mate[v] < 0:
            for w in adj[v]:
                if w != skip and mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    exposed, labels = [], None
    for root in range(h):
        if root == skip or mate[root] >= 0:
            continue
        end, parent, even = _grow(root, adj, mate, skip)
        if end < 0:
            # no augmenting path will ever reach root; its labels hold
            # until the next augmentation
            exposed.append(root)
            labels = even
            continue
        labels = None
        while end >= 0:
            v = parent[end]
            nxt = mate[v]
            mate[end], mate[v] = v, end
            end = nxt
    if len(exposed) != 1:
        return mate, set()
    if labels is None:
        labels = _grow(exposed[0], adj, mate, skip)[2]
    return mate, {v for v in range(h) if labels[v]}


def _grow(root: int, adj: Sequence, mate: list, skip: int) -> tuple:
    """Grow the alternating tree of Edmonds' search from the exposed node
    root, breadth first, shrinking each blossom by relabelling its base.

    Returns (end, parent, even): end is the exposed node that an augmenting
    path from root reaches, or -1; parent[v] is the tree edge into each odd
    node v, and even[v] says whether v is labelled even.
    """
    h = len(mate)
    parent = [-1] * h
    base = list(range(h))
    even = [False] * h
    even[root] = True
    queue = [root]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in adj[v]:
            if w == skip or base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # w is even too: v and w close a blossom, based at the
                # nearest common base of their paths to the root
                seen = set()
                a = v
                while True:
                    a = base[a]
                    seen.add(a)
                    if mate[a] < 0:
                        break
                    a = parent[mate[a]]
                b = w
                while base[b] not in seen:
                    b = parent[mate[base[b]]]
                b = base[b]
                blossom = set()
                for x, child in ((v, w), (w, v)):
                    while base[x] != b:
                        blossom.add(base[x])
                        blossom.add(base[mate[x]])
                        parent[x] = child
                        child = mate[x]
                        x = parent[child]
                for x in range(h):
                    if base[x] in blossom:
                        base[x] = b
                        if not even[x]:
                            even[x] = True
                            queue.append(x)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    return w, parent, even
                even[mate[w]] = True
                queue.append(mate[w])
    return -1, parent, even


def is_factor_critical(finder: CriticalMatchingFinder, s) -> bool:
    """True iff every node of s admits a critical matching of s minus it."""
    s = frozenset(s)
    return len(finder._decide(s).good) == len(s)


def fill_inside(g: Graph, z: list, s, cut, finder: CriticalMatchingFinder) -> None:
    """Rematch z inside the odd set s, in place, to agree with its boundary
    `cut`, the edge ids of delta(s).

    The edges inside s are cleared and refilled from critical matchings of
    s: the full matching missing u when one 1-edge, or two half-edges, enter
    s at u; half of each of the two matchings when two half-edges enter at
    different nodes.  A set with an empty boundary stays empty.  Raises
    StructureViolation on any other boundary pattern or a missing critical
    matching.
    """
    ins = []
    for e in cut:
        if z[e] != ZERO:
            a, b, _c = g.edges[e]
            ins.append((a if a in s else b, z[e]))
    for e in g.inside(s):
        z[e] = ZERO
    if not ins:
        return
    if len(ins) == 1 and ins[0][1] == ONE:
        picks = [(ins[0][0], ONE)]
    elif len(ins) == 2 and all(v == HALF for _u, v in ins):
        if ins[0][0] == ins[1][0]:
            picks = [(ins[0][0], ONE)]
        else:
            picks = [(ins[0][0], HALF), (ins[1][0], HALF)]
    else:
        raise StructureViolation(
            f"unexpected boundary pattern {ins} at {sorted(s)}", witness=sorted(s)
        )
    for u, weight in picks:
        m = finder.critical_matching(s, u)
        if m is None:
            raise StructureViolation(
                f"no critical matching for {u} in {sorted(s)}", witness=sorted(s)
            )
        for e in m:
            z[e] += weight


# ---------------------------------------------------------------------------
# Valid configurations


@dataclass
class ValidConfiguration:
    """State tuple of the half-integral matching procedure.

    `laminar` holds the sets whose cut constraints are kept as inequalities
    (positive dual required); `disjoint` holds the pinned sets, disjoint
    from each other, whose cuts are pinned to equality (dual free in sign).
    A laminar set may lie inside a pinned set.  The procedure keeps each
    pinned set shrunk to one node, which may start exposed, with one odd
    support cycle through it.
    """

    laminar: list
    disjoint: list
    z: list
    dual: DualSolution


def validate_configuration(
    g: Graph,
    costs,
    cfg: ValidConfiguration,
    allow_exposed_nodes=False,
    previous: CriticalMatchingFinder | None = None,
    support: SupportDecomposition | None = None,
) -> tuple:
    """Raise InvalidConfiguration unless (A), (B), (C) hold.

    The sets form one `LaminarFamily`, and every pinned set is one of its
    maximal sets: so a laminar set may lie strictly inside a pinned set and
    may not meet one otherwise, and two pinned sets are disjoint.
    `lp.slackness_violation` checks the dual and z against the
    laminar sets only, whose duals must be positive: the pinned sets' duals
    are free in sign.  The rest is factor-criticality and the support of z,
    with each pinned cut 0 or 1.  A pinned set with cut 0 must be spanned by
    exactly one odd support cycle once its maximal inner sets are taken as
    single nodes: the cycle meets each of those sets and passes every other
    node of the pinned set.

    What a caller already has is not computed again, and every check still
    runs on every set.  delta(S) is read from `cfg.dual.cuts(g)`: it
    depends on S and g alone.  The finder starts from `previous`, an
    earlier finder on g, and takes over each of its
    decisions whose inputs, the tight edges and family sets inside the set,
    are unchanged (see `CriticalMatchingFinder`).  `support`, when given,
    is the decomposition of cfg.z by `decompose_support`; z is proper
    half-integral exactly when that call returns one.

    Returns (finder, support).  The finder checked every set of the
    configuration: it holds their family (`finder.fam`), tight edges and
    critical matchings under cfg.dual.  support is the decomposition of the
    support of cfg.z.
    """
    lam_sets = [frozenset(s) for s in cfg.laminar]
    kay_sets = [frozenset(s) for s in cfg.disjoint]
    every = lam_sets + kay_sets
    try:
        fam = LaminarFamily(g.n, every)
    except ValueError as exc:  # LaminarityViolation or a bad odd set
        raise InvalidConfiguration(str(exc)) from None
    tops = set(fam.tops)
    for s in kay_sets:
        if s not in tops:
            top = next(t for t in fam.tops if s < t)
            raise InvalidConfiguration(f"equality set {sorted(s)} intersects {sorted(top)}")
    for s in lam_sets:
        if cfg.dual.of_set(s) <= ZERO:
            raise InvalidConfiguration(f"nonpositive dual on {sorted(s)}")
    slacks = cfg.dual.slacks(g, costs)
    cut = dict(zip(every, cut_values(cfg.z, map(cfg.dual.cuts(g).__getitem__, every))))
    violation = slackness_violation(cfg.z, cfg.dual, slacks, {s: cut[s] for s in lam_sets})
    if violation is not None:
        raise InvalidConfiguration(f"complementary slackness fails: {violation}")
    finder = CriticalMatchingFinder(g, fam, slacks, previous)
    for s in every:
        if not is_factor_critical(finder, s):
            raise InvalidConfiguration(f"{sorted(s)} is not factor-critical")

    dec = support
    if dec is None:
        try:
            dec = decompose_support(cfg.z, g)
        except ValueError:
            raise InvalidConfiguration("z is not proper-half-integral") from None
    if not allow_exposed_nodes:
        covered = dec.covered(g)
        for u in range(1, g.n + 1):
            if u in covered:
                continue
            owner = next((s for s in kay_sets if u in s), None)
            if owner is None or cut[owner] != ZERO:
                raise InvalidConfiguration(f"node {u} exposed outside an exposed equality set")
    for s in kay_sets:
        if cut[s] not in (ZERO, ONE):
            raise InvalidConfiguration(
                f"equality set {sorted(s)} has boundary value {cut[s]}"
            )
        if cut[s] == ZERO:
            # No support edge leaves s, so each support cycle at a node of s
            # lies in s.  With each maximal inner set taken as one node (a
            # part), a cycle inside one of them vanishes, and the spanning
            # cycle meets every part.
            kids = fam.children[s]
            part = {v: t for t in kids for v in t}
            parts = len(s) - sum(map(len, kids)) + len(kids)
            images = [{part.get(v, v) for v in c} for c in dec.odd_cycles if c[0] in s]
            images = [img for img in images if len(img) > 1]
            if len(images) != 1 or len(images[0]) != parts:
                raise InvalidConfiguration(
                    f"support inside {sorted(s)} is not a spanning odd cycle"
                )
    return finder, dec


class CarriedCheck:
    """What the output check of the last `run_half_integral_procedure` call
    given this object leaves for the next: its finder, the z it checked,
    and the decomposition of that z.  A driver run hands one from each
    relaxation to the next, whose input z is that z.  The next input check
    starts from the finder and takes the decomposition, and the carry is
    emptied as it does, so a run holds at most one earlier finder."""

    def __init__(self):
        self.finder = None
        self.z = None
        self.support = None

    def take(self, z) -> tuple:
        """(finder, decomposition of z or None), emptying the carry."""
        finder, support = self.finder, self.support if self.z is z else None
        self.finder = self.z = self.support = None
        return finder, support


# ---------------------------------------------------------------------------
# The half-integral matching procedure


@dataclass
class ProcedureStats:
    iterations: int = 0
    case_counts: dict = field(default_factory=lambda: {"Ia": 0, "Ib": 0, "Ic": 0, "II": 0})
    phase_lengths: list = field(default_factory=list)
    initial_potential: int = 0
    initial_exposed: int = 0
    unshrinks: int = 0
    workspace_nodes: int = 0
    input_laminar: int = 0
    input_pinned: int = 0
    events: list = field(default_factory=list)  # JSON-able step records


class _Workspace:
    """Contracted tight-edge view of the current configuration.

    The procedure builds one per run, and a new one only after an unshrink,
    the one step that changes the top sets.  It contracts the tops of `fam`,
    the configuration's checked `LaminarFamily` (the input check's, or after
    an unshrink a new one), each to the node `cmap.set_node` gives it, and
    `lam_sets` are the family's laminar sets.  In between builds the
    workspace is kept up to date, and these invariants hold after every step:
    - every dual change since the build is an int in units of 1/`unit`.
      The build sets `unit` to twice the lcm of the denominators of the
      contracted edges' slacks and of the top laminar sets' duals, and a
      Case II step doubles it (and every int over it) when its epsilon
      is half a unit;
    - the current dual is the build's dual plus `moved`, which maps each
      dual key a Case II step changed to its net change, so the run's
      `DualSolution` is behind until `write_back` adds `moved` to it;
    - `set_units[s]` is the build dual of each top laminar set s, so its
      current dual is `set_units[s] + moved.get(s, 0)` units;
    - for each contracted edge e, `slack[e]` is the current slack of its
      preimage edge in units, zero exactly when the edge is tight, and
      `z2[e]` is twice the value of z on the preimage, an int 0, 1 or 2;
    - for each workspace node v, `deg2[v]` holds twice its support degree
      and `halves[v]` the number of half-edges at it;
    - `o` is the number of odd cycles in the workspace support.  The build
      takes it from one decomposition; after that, Case I(b) folds one
      cycle and Case I(c) opens one, and the procedure counts them.

    After each step, `check_nodes` checks every node the step touched: no
    half-edge or two, support degree at most one, and no 1-edge beside
    half-edges.  A node that fails raises StructureViolation.

    `slacks` is `dual.slacks(g, costs)`, ints over `slacks.unit`, which
    the caller has at hand: the first build takes the list that validated
    the run's input, and rescales the slacks it keeps to its own unit.  The
    workspace reads no cost: its slacks are all it needs of them.
    """

    def __init__(self, g, fam, lam_sets, z, dual, slacks):
        self.wg, self.cmap = contract_with_dual(g, fam.tops)
        self.kind = {node: s for s, node in self.cmap.set_node.items()}
        self._plain = {img: u for u, img in self.cmap.node_image.items() if img not in self.kind}
        # The contracted edges' slacks are ints over slacks.unit.  In lowest
        # terms their denominators have the lcm slacks.unit // common, with
        # common the gcd of that unit and the slacks.
        slack = [slacks[e] for e in self.cmap.edge_preimage]
        common = math.gcd(slacks.unit, *slack)
        reduced = slacks.unit // common
        lam = set(lam_sets)
        lam_tops = [s for s in fam.tops if s in lam]
        top_duals = [dual.of_set(s) for s in lam_tops]
        self.unit = 2 * math.lcm(reduced, *_denominators(top_duals))
        self.slack = [v // common * (self.unit // reduced) for v in slack]
        self.set_units = {s: _scaled(v, self.unit) for s, v in zip(lam_tops, top_duals)}
        self.moved = {}
        values = [z[e] for e in self.cmap.edge_preimage]
        try:
            self.o = decompose_support(values, self.wg).o
        except ValueError as exc:
            raise StructureViolation(f"workspace support: {exc}") from None
        self.z2 = [0] * self.wg.m
        self.deg2 = [0] * (self.wg.n + 1)
        self.halves = [0] * (self.wg.n + 1)
        for e_star, val in enumerate(values):
            if val != ZERO:
                self.set_value(e_star, _twice(val))

    def set_value(self, e_star: int, v2: int) -> None:
        """z2[e_star] = v2 (0, 1 or 2), keeping the node counts."""
        old = self.z2[e_star]
        self.z2[e_star] = v2
        d2 = v2 - old
        dh = (v2 == 1) - (old == 1)
        for v in self.wg.endpoints(e_star):
            self.deg2[v] += d2
            self.halves[v] += dh

    def check_nodes(self, nodes) -> None:
        """Raise StructureViolation unless each node has no half-edge or two,
        support degree at most one, and no 1-edge if it has half-edges."""
        for v in nodes:
            halves, d2 = self.halves[v], self.deg2[v]
            if halves not in (0, 2) or d2 > 2 or (halves and d2 != 2):
                raise StructureViolation(
                    f"workspace node {v} has {halves} half-edges and twice-degree {d2}",
                    witness=v,
                )

    def set_dual(self, s) -> int:
        """The current dual of the top laminar set s, in units."""
        return self.set_units[s] + self.moved.get(s, 0)

    def epsilon(self, bound2: int) -> int:
        """The Case II step for a bound of `bound2` half-units, in units.

        An even bound halves exactly.  An odd one first doubles the unit,
        with every slack and dual counted in it, so that the step is an int.
        """
        if bound2 % 2 == 0:
            return bound2 // 2
        self.unit *= 2
        self.slack = [2 * v for v in self.slack]
        self.set_units = {s: 2 * v for s, v in self.set_units.items()}
        self.moved = {key: 2 * v for key, v in self.moved.items()}
        return bound2

    def shift_duals(self, raised, lowered, eps: int) -> None:
        """Raise the dual keys of the `raised` nodes by eps units and lower
        those of the `lowered` nodes by eps, in `moved` and in the slacks.

        Each workspace edge joins two distinct workspace nodes, so its slack
        moves by exactly the net change at its two ends, counted here in
        units of eps; a node in both lists nets to zero, and so does an edge
        from a raised to a lowered node.
        """
        net = dict.fromkeys(raised, 1)
        for v in lowered:
            net[v] = net.get(v, 0) - 1
        moved = self.moved
        for v, k in net.items():
            if k:
                key = self.dual_key(v)
                moved[key] = moved.get(key, 0) + k * eps
        slack, incidence = self.slack, self.wg.incidence
        for e in {e for v in net for e in incidence[v]}:
            a, b = self.wg.endpoints(e)
            k = net.get(a, 0) + net.get(b, 0)
            if k:
                slack[e] -= k * eps

    def write_back(self, dual: DualSolution) -> None:
        """Add the dual changes carried since the build to `dual`, the dual
        the workspace was built from.  The run calls it once, when it is
        done with the workspace: before an unshrink rebuilds it and at the
        end."""
        for key, k in self.moved.items():
            if k:
                dual[key] = dual.get(key, ZERO) + Rat(k, self.unit)

    @property
    def exposed(self) -> list:
        return [v for v in range(1, self.wg.n + 1) if self.deg2[v] == 0]

    def key_of(self, node: int):
        return self.kind.get(node, None)

    def dual_key(self, node: int):
        """Dual key adjusted when this workspace node moves in the forest."""
        s = self.kind.get(node)
        return s if s is not None else self._plain[node]


def _twice(val) -> int:
    return 2 if val == ONE else 1 if val == HALF else 0


# z values by twice their value, as the workspace holds them
_VALUE_OF_TWICE = (ZERO, HALF, ONE)


def _alternating_search(ws: _Workspace):
    """BFS over (node, parity) states on tight 0/1-edges.

    A state of parity 0 leaves on 0-edges, one of parity 1 on 1-edges, each
    in `ws.wg.neighbours` order.  Returns ("walk", [(node, edge_to_node),
    ...]) for the first discovered shortest alternating walk from an exposed
    node to an exposed or half-cycle node, or ("frontier", b_plus, b_minus)
    when no such walk exists.
    """
    slack, z2, nbrs = ws.slack, ws.z2, ws.wg.neighbours
    deg2, halves = ws.deg2, ws.halves
    parent = {}
    queue = []
    for t in ws.exposed:
        state = (t, 0)
        parent[state] = None
        queue.append(state)
    qi = 0
    while qi < len(queue):
        node, parity = queue[qi]
        qi += 1
        want = 2 * parity
        for w, e in nbrs[node]:
            if z2[e] != want or slack[e]:
                continue
            nstate = (w, 1 - parity)
            if nstate in parent:
                continue
            parent[nstate] = ((node, parity), e)
            if parity == 0 and (deg2[w] == 0 or halves[w]):
                walk = [(w, e)]
                cur = (node, parity)
                while parent[cur] is not None:
                    prev, edge = parent[cur]
                    walk.append((cur[0], edge))
                    cur = prev
                walk.append((cur[0], None))
                walk.reverse()
                return ("walk", walk)
            queue.append(nstate)
    b_plus = sorted({v for (v, p) in parent if p == 0})
    b_minus = sorted({v for (v, p) in parent if p == 1})
    return ("frontier", b_plus, b_minus)


def _half_cycle(ws: _Workspace, start: int) -> tuple:
    """(nodes, edges) of the half-cycle through workspace node `start`.

    The edges run in walking order from start.  The nodes are listed as
    `decompose_support` lists a cycle: minimum node first, then toward its
    smaller-id neighbour.
    """
    nodes, edges = [start], []
    cur, prev = start, None
    while True:
        e = next(f for f in ws.wg.incidence[cur] if ws.z2[f] == 1 and f != prev)
        edges.append(e)
        a, b = ws.wg.endpoints(e)
        cur, prev = (b if a == cur else a), e
        if cur == start:
            break
        nodes.append(cur)
    i = nodes.index(min(nodes))
    nodes = nodes[i:] + nodes[:i]
    if nodes[-1] < nodes[1]:
        nodes = nodes[:1] + nodes[:0:-1]
    return nodes, edges


def _edge_bound(ws: _Workspace, b_plus: list, b_minus: list):
    """The largest Case II step the workspace edges allow, in half-units of
    the workspace, or None.

    Raising B+ and lowering B- by eps lowers the slack of an edge by d*eps,
    d its ends in B+ less its ends in B-.  The bound is the least slack/d
    over the non-tight edges with d > 0, and d is 1 or 2, so 2*slack//d is
    exact.  Such an edge has an end in B+, so only the edges at B+ nodes are
    read.
    """
    plus = set(b_plus)
    minus = set(b_minus)
    slack, endpoints = ws.slack, ws.wg.endpoints
    bound = None
    for node in b_plus:
        for e_star in ws.wg.incidence[node]:
            if not slack[e_star]:
                continue
            a, b = endpoints(e_star)
            d = (a in plus) - (a in minus) + (b in plus) - (b in minus)
            if d > 0:
                cand = 2 * slack[e_star] // d
                if bound is None or cand < bound:
                    bound = cand
    return bound


def run_half_integral_procedure(
    g: Graph,
    costs,
    cfg: ValidConfiguration,
    allow_exposed_nodes: bool = False,
    carry: CarriedCheck | None = None,
) -> tuple:
    """Drive a valid configuration to an optimum of the pinned-cut relaxation.

    The workspace contracts the maximal sets of the configuration, each
    pinned set with the laminar sets inside it; this is the run's only
    contraction.  The procedure grows alternating forests from the exposed
    nodes of the contracted tight graph; augments along exposed-to-exposed
    paths, trades half-cycles for blossoms and back, and adjusts duals when
    the forest is stuck.  Sets in `laminar` whose dual hits zero are
    unshrunk; sets in `disjoint` stay contracted and end with their boundary
    pinned to one.  Whenever a step changes z at a contracted set, the
    inside of that set, inner sets included, is rematched from the critical
    matchings of the finder that validated the input.

    Both ends of the run are checked by `validate_configuration`, and the
    checks share what is known.  The output check starts from the input
    check's finder: the run moves only top-level dual keys, which cross no
    edge inside a top set, and an unshrink removes only a top set, so every
    set keeps its tight inside and its inner family, and the output check
    takes over every decision, rebuilding only boundaries.  With `carry`,
    the input check starts from the finder that the last run given the
    same carry left in it, and takes that run's decomposition when cfg.z
    is the z it returned; this run then leaves its own output check there.

    Returns (final ValidConfiguration, ProcedureStats).  Raises
    InvalidConfiguration on a bad input and StalledNoEpsilon when the dual
    adjustment is unbounded (the pinned relaxation is infeasible).
    """
    if carry is None:
        carry = CarriedCheck()
    lam_sets = [frozenset(s) for s in cfg.laminar]
    kay_sets = [frozenset(s) for s in cfg.disjoint]
    # the carried finder is handed on, not kept: the input check's finder
    # drops it once it has taken its decisions over
    finder, dec_in = validate_configuration(
        g, costs, cfg, allow_exposed_nodes, *carry.take(cfg.z)
    )
    z = list(cfg.z)
    # the run's dual shares the map of delta(S) of cfg.dual, for the
    # repairs, the output check and the slacks of each rebuilt workspace
    dual = DualSolution(cfg.dual)
    dual.cut_edges = cuts = cfg.dual.cuts(g)

    pinned_nodes = frozenset().union(*kay_sets)
    stats = ProcedureStats(
        input_laminar=sum(pinned_nodes.isdisjoint(s) for s in lam_sets),
        input_pinned=len(kay_sets),
    )
    # The finder that validated the input serves the whole run, its memo
    # already filled from the input dual.  It is asked only about top sets
    # (by fill_inside).  Case II changes only the duals of top-level
    # workspace keys, top sets and plain nodes, and none of those crosses an
    # edge inside a top set.  Unshrinking removes only a top set, whose
    # children become top sets with their insides untouched.  So the slacks
    # inside every top set stay as validated, and so does the memo.

    def apply_edge_values(ws: _Workspace, changes: dict):
        """Set each workspace edge of `changes` to twice-value v2, and z on
        its preimage to match; check the touched nodes and repair the
        contracted ones."""
        touched_nodes = set()
        for e_star, v2 in changes.items():
            z[ws.cmap.edge_preimage[e_star]] = _VALUE_OF_TWICE[v2]
            ws.set_value(e_star, v2)
            touched_nodes.update(ws.wg.endpoints(e_star))
        touched_nodes = sorted(touched_nodes)
        ws.check_nodes(touched_nodes)
        for node in touched_nodes:
            s = ws.key_of(node)
            if s is not None:
                fill_inside(g, z, s, cuts[s], finder)

    hard_cap = 16 * (g.n + len(lam_sets) + len(kay_sets) + 4) * (g.n + 4)
    first = True
    phase_iters = 0
    prev_potential = None

    ws = _Workspace(g, finder.fam, lam_sets, z, dual, finder.slacks)
    while True:
        exposed = ws.exposed
        potential = len(exposed) + ws.o
        if first:
            stats.initial_potential = potential
            stats.initial_exposed = len(exposed)
            stats.workspace_nodes = ws.wg.n
            prev_potential = potential
            first = False
        if potential < prev_potential:
            stats.phase_lengths.append(phase_iters)
            phase_iters = 0
        prev_potential = potential
        if not exposed:
            break
        if stats.iterations >= hard_cap:
            raise StructureViolation("half-integral procedure exceeded hard cap")

        outcome = _alternating_search(ws)
        stats.iterations += 1
        phase_iters += 1

        if outcome[0] == "walk":
            walk = outcome[1]
            nodes = [node for node, _e in walk]
            repeat_at = {}
            blossom = None
            for j, v in enumerate(nodes):
                if v in repeat_at:
                    blossom = (repeat_at[v], j)
                    break
                repeat_at[v] = j

            if blossom is None:
                end = nodes[-1]
                changes = {e: 2 - ws.z2[e] for _node, e in walk[1:]}
                if ws.deg2[end] == 0:
                    # Case I(a): augment between two exposed nodes.
                    stats.case_counts["Ia"] += 1
                    stats.events.append({"case": "I(a)", "walk": nodes})
                    apply_edge_values(ws, changes)
                else:
                    # Case I(b): augment to a half-cycle, fold it to a blossom.
                    stats.case_counts["Ib"] += 1
                    cycle, cyc_edges = _half_cycle(ws, end)
                    stats.events.append({"case": "I(b)", "walk": nodes, "cycle": cycle})
                    for t, e in enumerate(cyc_edges, start=1):
                        changes[e] = 2 if t % 2 == 0 else 0
                    apply_edge_values(ws, changes)
                    ws.o -= 1
            else:
                # Case I(c): even path to a blossom; open it to a half-cycle.
                stats.case_counts["Ic"] += 1
                i, j = blossom
                if i % 2 != 0 or (j - i) % 2 != 1:
                    raise StructureViolation("malformed blossom walk", witness=nodes)
                stats.events.append(
                    {"case": "I(c)", "walk": nodes, "blossom": nodes[i : j + 1]}
                )
                changes = {}
                for node, e in walk[1 : i + 1]:
                    changes[e] = 2 - ws.z2[e]
                for node, e in walk[i + 1 : j + 1]:
                    changes[e] = 1
                apply_edge_values(ws, changes)
                ws.o += 1
            continue

        # Case II: dual adjustment.
        _tag, b_plus, b_minus = outcome
        stats.case_counts["II"] += 1
        if len(b_plus) < len(b_minus):
            raise StructureViolation("dual objective would decrease in Case II")
        # The bound is in half-units: the lowered top laminar sets may fall
        # to zero, no further.
        bound = _edge_bound(ws, b_plus, b_minus)
        lowered_sets = [s for s in map(ws.key_of, b_minus) if s in ws.set_units]
        for s in lowered_sets:
            cand = 2 * ws.set_dual(s)
            if bound is None or cand < bound:
                bound = cand
        if bound is None:
            raise StalledNoEpsilon(
                "dual adjustment unbounded: pinned relaxation infeasible"
            )
        if bound <= 0:
            raise StructureViolation(
                "nonpositive dual step", witness=format_rat(Rat(bound, 2 * ws.unit))
            )
        eps = ws.epsilon(bound)
        stats.events.append(
            {
                "case": "II",
                "epsilon": format_rat(Rat(eps, ws.unit)),
                "raised": b_plus,
                "lowered": b_minus,
            }
        )
        ws.shift_duals(b_plus, b_minus, eps)
        unshrunk = [s for s in lowered_sets if ws.set_dual(s) == 0]
        for s in unshrunk:
            lam_sets.remove(s)
        stats.unshrinks += len(unshrunk)
        if unshrunk:
            ws.write_back(dual)
            fam = LaminarFamily(g.n, lam_sets + kay_sets)
            ws = _Workspace(g, fam, lam_sets, z, dual, dual.slacks(g, costs))

    ws.write_back(dual)
    stats.phase_lengths.append(phase_iters)
    out = ValidConfiguration(
        laminar=list(lam_sets), disjoint=list(kay_sets), z=z, dual=dual
    )
    finder, dec_out = validate_configuration(g, costs, out, previous=finder)
    # a run with exposed nodes (the first relaxation's, from a greedy
    # matching) may form odd cycles
    if not allow_exposed_nodes and dec_out.o > dec_in.o:
        raise StructureViolation(f"odd cycle count increased: {dec_in.o} -> {dec_out.o}")
    carry.finder, carry.z, carry.support = finder, z, dec_out
    return out, stats


def greedy_start(g: Graph, costs) -> ValidConfiguration:
    """A valid configuration for the bipartite relaxation: a greedy feasible
    node dual and a matching on its tight edges.

    The nodes are visited in id order, and each gets the largest dual that
    keeps its edges to earlier nodes feasible and is at most c_e/2 on its
    edges to later nodes (0 on a node with no edge).  Tight edges whose ends
    are both exposed are matched in edge order.  Then each node still
    exposed, in id order, has its dual raised by its least edge slack, and
    is matched along the first newly tight edge to an exposed neighbour.
    The duals and slacks are ints in units of 1/2, so each c_e/2 is an int.
    """
    c = [2 * v for v in costs]
    y = [0] * (g.n + 1)
    for u in range(1, g.n + 1):
        y[u] = min((c[e] - y[w] if w < u else c[e] // 2 for w, e in g.neighbours[u]), default=0)
    slack = [c[e] - y[u] - y[v] for e, (u, v, _c) in enumerate(g.edges)]
    z = [ZERO] * g.m
    exposed = [True] * (g.n + 1)

    def match(e: int) -> None:
        z[e] = ONE
        for v in g.endpoints(e):
            exposed[v] = False

    for e, (u, v, _c) in enumerate(g.edges):
        if not slack[e] and exposed[u] and exposed[v]:
            match(e)
    for u in range(1, g.n + 1):
        edges = g.incidence[u]
        if not exposed[u] or not edges:
            continue
        rise = min(slack[e] for e in edges)
        y[u] += rise
        for e in edges:
            slack[e] -= rise
        for w, e in g.neighbours[u]:
            if not slack[e] and exposed[w]:
                match(e)
                break
    dual = DualSolution({u: Rat(y[u], 2) for u in range(1, g.n + 1)})
    return ValidConfiguration(laminar=[], disjoint=[], z=z, dual=dual)


def solve_bipartite_via_procedure(g: Graph, costs, carry: CarriedCheck | None = None) -> tuple:
    """Solve the bipartite relaxation combinatorially from a greedy start.

    Starts from `greedy_start`: a feasible node dual and a matching on its
    tight edges, which leaves most nodes matched.  The procedure's
    exposed-node machinery then behaves like a primal-dual matching run
    from that warm start.  Output z is optimal by complementary slackness
    with the final feasible dual.  `carry` is passed to the run.
    """
    if g.m == 0:
        raise StalledNoEpsilon("graph has no edges")
    return run_half_integral_procedure(
        g, costs, greedy_start(g, costs), allow_exposed_nodes=True, carry=carry
    )
