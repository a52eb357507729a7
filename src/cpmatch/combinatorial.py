"""Factor-criticality machinery and the half-integral matching procedure.

This module provides the combinatorial side of the solver: critical
matchings inside odd sets, the transformation of a dual optimum into a
positively-critical one, consistency measurements between duals, and the
primal-dual half-integral matching procedure that solves the constrained
relaxations without a simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    InvalidConfiguration,
    PreconditionBroken,
    StalledNoEpsilon,
    StructureViolation,
)
from .graph import Graph, decompose_support, is_proper_half_integral
from .laminar import contract_with_dual, dual_inside, sorted_sets
from .lp import DualSolution
from .rational import HALF, ONE, Rat, ZERO, format_rat


# ---------------------------------------------------------------------------
# Critical matchings and factor-criticality


class NotCritical:
    """Sentinel: no critical matching exists for the queried node."""

    def __repr__(self):
        return "NotCritical"


NOT_CRITICAL = NotCritical()


class CriticalMatchingFinder:
    """Finds matchings on tight edges inside odd sets, respecting family
    budgets.

    The tight edges inside each set, and the answer for each (set, node), are
    memoised on first use.  The memo for a set s stays valid while the duals
    of its nodes and of the family sets strictly inside it do not change and
    no family set strictly inside it is added or removed: those are the only
    inputs of the slack of an edge inside s and of the crossing budgets.
    """

    def __init__(self, g: Graph, costs, fam_sets: Iterable, dual: DualSolution):
        self.g = g
        self.costs = costs
        self.fam_sets = sorted_sets(frozenset(s) for s in fam_sets)
        self.dual = dual
        self._tight = {}
        self._memo = {}

    def _tight_inside(self, s: frozenset) -> list:
        edges = self._tight.get(s)
        if edges is None:
            edges = [
                e
                for e in self.g.inside(s)
                if self.dual.slack(self.g, self.costs, e) == ZERO
            ]
            self._tight[s] = edges
        return edges

    def critical_matching(self, s, u: int):
        """An F-matching on tight edges covering s minus {u}, crossing each
        family subset of s at most once; NOT_CRITICAL if none exists."""
        s = frozenset(s)
        if len(s) % 2 == 0:
            raise ValueError(f"critical matchings are defined on odd sets: {sorted(s)}")
        if u not in s:
            raise ValueError(f"node {u} not in set {sorted(s)}")
        key = (s, u)
        if key in self._memo:
            return self._memo[key]

        inner = [t for t in self.fam_sets if t < s]
        edges = self._tight_inside(s)
        adj = {}
        for e in edges:
            a, b, _c = self.g.edges[e]
            adj.setdefault(a, []).append((b, e))
            adj.setdefault(b, []).append((a, e))
        for a in adj:
            adj[a].sort()

        target = sorted(s - {u})
        budgets = {t: 1 for t in inner}

        def crossing_sets(e):
            a, b, _c = self.g.edges[e]
            return [t for t in inner if (a in t) != (b in t)]

        def search(uncovered, chosen):
            if not uncovered:
                return list(chosen)
            v = uncovered[0]
            rest = uncovered[1:]
            for w, e in adj.get(v, ()):
                if w == u or w not in uncovered or w == v:
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

        found = search(target, [])
        result = NOT_CRITICAL if found is None else sorted(found)
        self._memo[key] = result
        return result


def critical_matching(g, costs, s, fam_sets, dual, u):
    return CriticalMatchingFinder(g, costs, fam_sets, dual).critical_matching(s, u)


def is_factor_critical(g, costs, s, fam_sets, dual) -> bool:
    """True iff every node of s admits a critical matching of s minus it."""
    finder = CriticalMatchingFinder(g, costs, fam_sets, dual)
    return all(
        not isinstance(finder.critical_matching(s, u), NotCritical)
        for u in sorted(s)
    )


def fill_inside(g: Graph, z: list, s, finder: CriticalMatchingFinder) -> None:
    """Rematch z inside the odd set s, in place, to agree with its boundary.

    The edges inside s are cleared and refilled from critical matchings of
    s: the full matching missing u when one 1-edge, or two half-edges, enter
    s at u; half of each of the two matchings when two half-edges enter at
    different nodes.  A set with an empty boundary stays empty.  Raises
    StructureViolation on any other boundary pattern or a missing critical
    matching.
    """
    ins = []
    for e in g.delta(s):
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
        if isinstance(m, NotCritical):
            raise StructureViolation(
                f"no critical matching for {u} in {sorted(s)}", witness=sorted(s)
            )
        for e in m:
            z[e] += weight


# ---------------------------------------------------------------------------
# Consistency of duals


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
    if optimal_value is not None and psi.objective() != optimal_value:
        raise PreconditionBroken(
            f"dual objective {psi.objective()} != optimum {optimal_value}"
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
        before = psi.objective()

        delta = consistency_delta(pi_fc, psi, s)
        lam = ONE if delta <= ZERO else min(ONE, psi.of_set(s) / delta)
        for u in sorted(s):
            psi[u] = (ONE - lam) * psi.get(u, ZERO) + lam * pi_fc.get(u, ZERO)
        for t in fam_sets:
            if t < s:
                psi[t] = (ONE - lam) * psi.of_set(t) + lam * pi_fc.of_set(t)
        psi[s] = psi.of_set(s) - delta * lam

        iterations += 1
        if psi.objective() != before:
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
    fam_sets = fam.sets if hasattr(fam, "sets") else sorted_sets(fam)
    return all(
        is_factor_critical(g, costs, s, fam_sets, dual)
        for s in fam_sets
        if dual.of_set(s) > ZERO
    )


# ---------------------------------------------------------------------------
# Valid configurations


@dataclass
class ValidConfiguration:
    """State tuple of the half-integral matching procedure.

    `laminar` holds the sets whose cut constraints are kept as inequalities
    (positive dual required); `disjoint` holds the sets whose cuts are pinned
    to equality and may start exposed with an odd support cycle inside.
    """

    laminar: list
    disjoint: list
    z: list
    dual: DualSolution

    def copy(self) -> "ValidConfiguration":
        return ValidConfiguration(
            laminar=[frozenset(s) for s in self.laminar],
            disjoint=[frozenset(s) for s in self.disjoint],
            z=list(self.z),
            dual=DualSolution(self.dual),
        )


def _cut_value(z, g, s):
    return sum((z[e] for e in g.delta(s)), ZERO)


def validate_configuration(
    g: Graph, costs, cfg: ValidConfiguration, allow_exposed_nodes=False
) -> None:
    """Raise InvalidConfiguration unless (A), (B), (C) hold."""
    lam_sets = [frozenset(s) for s in cfg.laminar]
    kay_sets = [frozenset(s) for s in cfg.disjoint]
    every = lam_sets + kay_sets
    for s in every:
        if len(s) % 2 == 0 or len(s) < 3:
            raise InvalidConfiguration(f"set {sorted(s)} not odd of size >= 3")
    for i, s in enumerate(every):
        for t in every[i + 1 :]:
            if s & t and not (s <= t or t <= s):
                raise InvalidConfiguration(
                    f"{sorted(s)} crosses {sorted(t)}"
                )
    for s in kay_sets:
        for t in lam_sets + [k for k in kay_sets if k != s]:
            if s & t:
                raise InvalidConfiguration(
                    f"equality set {sorted(s)} intersects {sorted(t)}"
                )
    for s in lam_sets:
        if cfg.dual.of_set(s) <= ZERO:
            raise InvalidConfiguration(f"nonpositive dual on {sorted(s)}")
    for e in range(g.m):
        if cfg.dual.slack(g, costs, e) < ZERO:
            raise InvalidConfiguration(f"dual infeasible on edge {e}")
    for s in every:
        if not is_factor_critical(g, costs, s, every, cfg.dual):
            raise InvalidConfiguration(f"{sorted(s)} is not factor-critical")

    if not is_proper_half_integral(cfg.z, g):
        raise InvalidConfiguration("z is not proper-half-integral")
    deg = {u: ZERO for u in range(1, g.n + 1)}
    for e, val in enumerate(cfg.z):
        u, v, _c = g.edges[e]
        deg[u] += val
        deg[v] += val
    for u, d in deg.items():
        if d == ONE:
            continue
        if d == ZERO:
            if allow_exposed_nodes:
                continue
            owner = next((s for s in kay_sets if u in s), None)
            if owner is None or _cut_value(cfg.z, g, owner) != ZERO:
                raise InvalidConfiguration(f"node {u} exposed outside an exposed equality set")
        else:
            raise InvalidConfiguration(f"node {u} has degree {d}")
    for s in kay_sets:
        cut = _cut_value(cfg.z, g, s)
        if cut not in (ZERO, ONE):
            raise InvalidConfiguration(
                f"equality set {sorted(s)} has boundary value {cut}"
            )
        if cut == ZERO:
            inside = [e for e in g.inside(s) if cfg.z[e] != ZERO]
            if any(cfg.z[e] != HALF for e in inside):
                raise InvalidConfiguration(
                    f"exposed set {sorted(s)} must hold a half-cycle"
                )
            nodes = set()
            for e in inside:
                nodes.update(g.endpoints(e))
            if nodes != set(s) or len(inside) != len(s):
                raise InvalidConfiguration(
                    f"support inside {sorted(s)} is not a spanning odd cycle"
                )
    for s in lam_sets:
        if _cut_value(cfg.z, g, s) != ONE:
            raise InvalidConfiguration(f"cut of {sorted(s)} not equal to one")
    for e, val in enumerate(cfg.z):
        if val != ZERO and cfg.dual.slack(g, costs, e) != ZERO:
            raise InvalidConfiguration(f"support edge {e} not tight")


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
    """Contracted tight-edge view of the current configuration."""

    def __init__(self, g, costs, lam_sets, kay_sets, z, dual):
        self.g = g
        self.costs = costs
        self.dual = dual
        tops = []
        every = lam_sets + kay_sets
        for s in every:
            if not any(s < t for t in every):
                tops.append(s)
        self.tops = sorted_sets(tops)
        self.wg, self.cmap = contract_with_dual(g, costs, self.tops, dual)
        self.kind = {}
        for s in self.tops:
            node = self.cmap.image_node_of_set(s)
            self.kind[node] = s
        self._plain = {}
        contracted_nodes = set(self.kind)
        for u, img in self.cmap.node_image.items():
            if img not in contracted_nodes:
                self._plain[img] = u
        self.z_star = [z[self.cmap.edge_preimage[e]] for e in range(self.wg.m)]
        self.tight = [
            self.dual.slack(g, costs, self.cmap.edge_preimage[e]) == ZERO
            for e in range(self.wg.m)
        ]
        deg = {v: ZERO for v in range(1, self.wg.n + 1)}
        for e, val in enumerate(self.z_star):
            a, b, _c = self.wg.edges[e]
            deg[a] += val
            deg[b] += val
        self.exposed = sorted(v for v, d in deg.items() if d == ZERO)
        self.half_nodes = set()
        for e, val in enumerate(self.z_star):
            if val == HALF:
                self.half_nodes.update(self.wg.endpoints(e))

    def key_of(self, node: int):
        return self.kind.get(node, None)

    def dual_key(self, node: int):
        """Dual key adjusted when this workspace node moves in the forest."""
        s = self.kind.get(node)
        return s if s is not None else self._plain[node]


def _alternating_search(ws: _Workspace):
    """BFS over (node, parity) states on tight 0/1-edges.

    Returns ("walk", [(node, edge_to_node), ...]) for the first discovered
    shortest alternating walk from an exposed node to R, or
    ("frontier", b_plus, b_minus) when no such walk exists.
    """
    adj0 = {}
    adj1 = {}
    for e in range(ws.wg.m):
        if not ws.tight[e]:
            continue
        val = ws.z_star[e]
        if val == HALF:
            continue
        a, b, _c = ws.wg.edges[e]
        target = adj1 if val == ONE else adj0
        target.setdefault(a, []).append((b, e))
        target.setdefault(b, []).append((a, e))
    for d in (adj0, adj1):
        for v in d:
            d[v].sort()

    targets = set(ws.exposed) | ws.half_nodes
    parent = {}
    queue = []
    for t in ws.exposed:
        state = (t, 0)
        if state not in parent:
            parent[state] = None
            queue.append(state)
    qi = 0
    while qi < len(queue):
        node, parity = queue[qi]
        qi += 1
        nbrs = adj0.get(node, ()) if parity == 0 else adj1.get(node, ())
        for w, e in nbrs:
            nstate = (w, 1 - parity)
            if nstate in parent:
                continue
            parent[nstate] = ((node, parity), e)
            if parity == 0 and w in targets:
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


def run_half_integral_procedure(
    g: Graph,
    costs,
    cfg: ValidConfiguration,
    allow_exposed_nodes: bool = False,
    revalidate_each_iteration: bool = False,
) -> tuple:
    """Drive a valid configuration to an optimum of the pinned-cut relaxation.

    Grows alternating forests from the exposed nodes of the contracted tight
    graph; augments along exposed-to-exposed paths, trades half-cycles for
    blossoms and back, and adjusts duals when the forest is stuck.  Sets in
    `laminar` whose dual hits zero are unshrunk; sets in `disjoint` stay
    contracted and keep their boundary pinned to one.

    Returns (final ValidConfiguration, ProcedureStats).  Raises
    InvalidConfiguration on a bad input and StalledNoEpsilon when the dual
    adjustment is unbounded (the pinned relaxation is infeasible).
    """
    validate_configuration(g, costs, cfg, allow_exposed_nodes=allow_exposed_nodes)
    state = cfg.copy()
    lam_sets = [frozenset(s) for s in state.laminar]
    kay_sets = [frozenset(s) for s in state.disjoint]
    z = list(state.z)
    dual = DualSolution(state.dual)

    stats = ProcedureStats(
        input_laminar=len(lam_sets), input_pinned=len(kay_sets)
    )
    # One finder serves the whole run.  It is asked only about top sets (by
    # fill_inside).  Case II changes only the duals of top-level workspace
    # keys, top sets and plain nodes, and none of those crosses an edge
    # inside a top set.  Unshrinking removes only a top set, whose children
    # become top sets with their insides untouched.  So every memoised
    # critical matching stays valid until the run ends.
    finder = CriticalMatchingFinder(g, costs, lam_sets + kay_sets, dual)

    def apply_edge_values(ws: _Workspace, changes: dict):
        touched_nodes = set()
        for e_star, val in changes.items():
            z[ws.cmap.edge_preimage[e_star]] = val
            touched_nodes.update(ws.wg.endpoints(e_star))
        for node in sorted(touched_nodes):
            s = ws.key_of(node)
            if s is not None:
                fill_inside(g, z, s, finder)

    hard_cap = 16 * (g.n + len(lam_sets) + len(kay_sets) + 4) * (g.n + 4)
    first = True
    phase_iters = 0
    prev_potential = None

    while True:
        ws = _Workspace(g, costs, lam_sets, kay_sets, z, dual)
        dec_star = decompose_support(ws.z_star, ws.wg)
        potential = len(ws.exposed) + dec_star.o
        if first:
            stats.initial_potential = potential
            stats.initial_exposed = len(ws.exposed)
            stats.workspace_nodes = ws.wg.n
            prev_potential = potential
            first = False
        if potential < prev_potential:
            stats.phase_lengths.append(phase_iters)
            phase_iters = 0
        prev_potential = potential
        if not ws.exposed:
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
                if end in ws.exposed:
                    # Case I(a): augment between two exposed nodes.
                    stats.case_counts["Ia"] += 1
                    stats.events.append({"case": "I(a)", "walk": nodes})
                    changes = {}
                    for node, e in walk[1:]:
                        changes[e] = ONE - ws.z_star[e]
                    apply_edge_values(ws, changes)
                else:
                    # Case I(b): augment to a half-cycle, fold it to a blossom.
                    stats.case_counts["Ib"] += 1
                    changes = {}
                    for node, e in walk[1:]:
                        changes[e] = ONE - ws.z_star[e]
                    cycle = next(
                        c for c in dec_star.odd_cycles if end in c
                    )
                    stats.events.append({"case": "I(b)", "walk": nodes, "cycle": cycle})
                    idx = cycle.index(end)
                    ordered = cycle[idx:] + cycle[:idx]
                    cyc_edges = _cycle_edges(ws, ordered)
                    for t, e in enumerate(cyc_edges, start=1):
                        changes[e] = ONE if t % 2 == 0 else ZERO
                    apply_edge_values(ws, changes)
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
                    changes[e] = ONE - ws.z_star[e]
                for node, e in walk[i + 1 : j + 1]:
                    changes[e] = HALF
                apply_edge_values(ws, changes)
            if revalidate_each_iteration:
                validate_configuration(
                    g,
                    costs,
                    ValidConfiguration(lam_sets, kay_sets, z, dual),
                    allow_exposed_nodes=allow_exposed_nodes,
                )
            continue

        # Case II: dual adjustment.
        _tag, b_plus, b_minus = outcome
        stats.case_counts["II"] += 1
        if len(b_plus) < len(b_minus):
            raise StructureViolation("dual objective would decrease in Case II")
        plus = set(b_plus)
        minus = set(b_minus)
        bound = None
        for e_star in range(ws.wg.m):
            if ws.tight[e_star]:
                continue
            a, b, _c = ws.wg.edges[e_star]
            d = (ONE if a in plus else -ONE if a in minus else ZERO) + (
                ONE if b in plus else -ONE if b in minus else ZERO
            )
            if d > ZERO:
                slack = dual.slack(g, costs, ws.cmap.edge_preimage[e_star])
                cand = slack / d
                if bound is None or cand < bound:
                    bound = cand
        for node in b_minus:
            s = ws.key_of(node)
            if s is not None and s in lam_sets:
                cand = dual.of_set(s)
                if bound is None or cand < bound:
                    bound = cand
        if bound is None:
            raise StalledNoEpsilon(
                "dual adjustment unbounded: pinned relaxation infeasible"
            )
        if bound <= ZERO:
            raise StructureViolation("nonpositive dual step", witness=str(bound))
        stats.events.append(
            {
                "case": "II",
                "epsilon": format_rat(bound),
                "raised": b_plus,
                "lowered": b_minus,
            }
        )
        for node in b_plus:
            key = ws.dual_key(node)
            dual[key] = dual.get(key, ZERO) + bound
        for node in b_minus:
            key = ws.dual_key(node)
            dual[key] = dual.get(key, ZERO) - bound
        for s in list(lam_sets):
            if dual.of_set(s) == ZERO:
                lam_sets.remove(s)
                stats.unshrinks += 1
        if revalidate_each_iteration:
            validate_configuration(
                g,
                costs,
                ValidConfiguration(lam_sets, kay_sets, z, dual),
                allow_exposed_nodes=allow_exposed_nodes,
            )

    stats.phase_lengths.append(phase_iters)
    out = ValidConfiguration(
        laminar=list(lam_sets), disjoint=list(kay_sets), z=z, dual=dual
    )
    validate_configuration(g, costs, out, allow_exposed_nodes=False)
    if not allow_exposed_nodes:
        # from-scratch runs start with an empty support, so cycles may appear
        o_in = decompose_support(cfg.z, g).o
        o_out = decompose_support(z, g).o
        if o_out > o_in:
            raise StructureViolation(
                f"odd cycle count increased: {o_in} -> {o_out}"
            )
    return out, stats


def _cycle_edges(ws: _Workspace, ordered_nodes: list) -> list:
    """Half-edge ids around a support cycle given its node order."""
    edges = []
    used = set()
    k = len(ordered_nodes)
    for t in range(k):
        a, b = ordered_nodes[t], ordered_nodes[(t + 1) % k]
        cands = [
            e
            for e, (x, y, _c) in enumerate(ws.wg.edges)
            if ws.z_star[e] == HALF and {x, y} == {a, b} and e not in used
        ]
        if not cands:
            raise StructureViolation(f"no half-edge between {a} and {b}")
        edges.append(cands[0])
        used.add(cands[0])
    return edges


def solve_bipartite_via_procedure(g: Graph, costs) -> tuple:
    """Solve the bipartite relaxation combinatorially from the empty solution.

    Starts from z == 0 with a uniform feasible node dual; the procedure's
    exposed-node machinery then behaves exactly like a from-scratch
    primal-dual matching run.  Output z is optimal by complementary
    slackness with the final feasible dual.
    """
    if g.m == 0:
        raise StalledNoEpsilon("graph has no edges")
    cmin = min(Rat(costs[e]) for e in range(g.m))
    dual = DualSolution({u: cmin / 2 for u in range(1, g.n + 1)})
    cfg = ValidConfiguration(laminar=[], disjoint=[], z=[ZERO] * g.m, dual=dual)
    return run_half_integral_procedure(g, costs, cfg, allow_exposed_nodes=True)
