"""The cutting-plane loop: solve, pick duals, retain and add cuts, repeat.

Each iteration solves the current relaxation (exact simplex by default, the
half-integral matching procedure as an independent route), computes the
extremal dual against the previous one, keeps the cuts with positive dual
value and adds one new cut per odd support cycle, unioned with the retained
maximal sets it meets so the family stays laminar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import (
    LPInfeasible,
    NoPerfectMatching,
    StalledNoEpsilon,
    StructureViolation,
)
from .graph import (
    Graph,
    SupportDecomposition,
    check_degree_and_cut_feasibility,
    cost_value,
    decompose_support,
)
from .combinatorial import (
    CarriedCheck,
    ProcedureStats,
    ValidConfiguration,
    run_half_integral_procedure,
    solve_bipartite_via_procedure,
)
from .laminar import LaminarFamily
from .lp import DualSolution, WarmStart, certify_optimum, solve_extremal_dual, solve_primal
from .rational import ONE, PerturbedCosts, ZERO, format_rat, perturb

TRACE_SCHEMA = "cpmatch-trace-1"

SOLVER_CHOICES = ("simplex", "combinatorial", "cross-check")


def iteration_bound(n: int) -> int:
    """Cap on the number of relaxation solves: ceil((n/2) H_ceil(n/3)) + n."""
    k = max(1, -(-n // 3))
    den = math.lcm(*range(1, k + 1))
    num = sum(den // i for i in range(1, k + 1))  # H_k = num / den
    return -(-n * num // (2 * den)) + n


@dataclass
class IterationRecord:
    """One replayable iteration of the driver."""

    iteration: int
    cuts_imposed: list
    primal: list
    dual_nodes: dict
    dual_sets: list
    dual_kind: str
    odd_cycle_count: int
    cuts_retained: list
    cuts_added: list
    objective_scaled: str
    terminal: bool = False
    cross_checked: bool = False
    procedure: dict | None = None


@dataclass
class DriverState:
    iteration: int
    fam: LaminarFamily
    gamma: DualSolution
    x: list | None = None
    o: int | None = None
    terminal: bool = False
    # the new cuts of fam, which the next combinatorial solve pins
    pinned: list = field(default_factory=list)
    # the last primal tableau, which the next simplex solve starts from
    warm: WarmStart = field(default_factory=WarmStart)
    # the last procedure run's output check, which the next run's input
    # check starts from, and x's support decomposition
    carry: CarriedCheck = field(default_factory=CarriedCheck)


def trace_header(g: Graph) -> dict:
    """The first line of every trace: schema tag and the instance it solves."""
    return {
        "schema": TRACE_SCHEMA,
        "n": g.n,
        "m": g.m,
        "edges": [[u, v] for u, v, _c in g.edges],
        "base_costs": [int(c) for _u, _v, c in g.edges],
        "scale_log2": g.m,
    }


def encode_trace(header: dict, records) -> list:
    """JSONL lines of a trace: the header, then one line per record, each
    record's fields as one JSON object."""
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(vars(r), sort_keys=True) for r in records)
    return lines


@dataclass
class RunResult:
    matching: list
    base_cost: int
    perturbed_cost: object
    lp_solves: int
    records: list
    graph: Graph
    perturbed: PerturbedCosts

    def trace_lines(self) -> list:
        return encode_trace(trace_header(self.graph), self.records)


def select_old_cuts(fam: LaminarFamily, pi: DualSolution) -> LaminarFamily:
    """Retain exactly the cuts with positive extremal dual value."""
    kept = [s for s in fam.sets if pi.of_set(s) > ZERO]
    return LaminarFamily(fam.n, kept)


def select_new_cuts(
    dec: SupportDecomposition, h_prime: LaminarFamily
) -> list:
    """One new cut per odd support cycle: the cycle's nodes unioned with the
    maximal retained sets it intersects.

    Returns (cycle_nodes, absorbed_sets, hat_set) triples.  Raises
    StructureViolation if a retained set meets two cycles or a union comes
    out even.  The unions are then disjoint, as the cycles and the maximal
    retained sets are.
    """
    claimed = {}
    out = []
    for cycle in dec.odd_cycles:
        nodes = frozenset(cycle)
        absorbed = [s for s in h_prime.tops if s & nodes]
        for s in absorbed:
            if s in claimed:
                raise StructureViolation(
                    "retained cut intersects two odd cycles",
                    witness=sorted(s),
                )
            claimed[s] = nodes
        hat = frozenset(nodes.union(*absorbed)) if absorbed else nodes
        if len(hat) % 2 == 0:
            raise StructureViolation(
                "new cut set has even cardinality", witness=sorted(hat)
            )
        out.append((nodes, absorbed, hat))
    return out


def _solve_primal_combinatorial(
    g: Graph, costs, fam: LaminarFamily, state: DriverState
) -> tuple:
    """Next relaxation optimum via the half-integral matching procedure.

    The first solve runs the procedure from a greedy start.  Every later
    solve runs it once on g, from the previous optimum and Gamma.  The new
    cuts are pinned to equality with the zero dual `step` gave them; the
    retained cuts stay inequalities, those a new cut absorbed included,
    which lie inside it.  The procedure's workspace shrinks each new cut
    and rematches its inside.  Every run is given `state.carry`, so its
    input check starts from the last run's output check (see
    `run_half_integral_procedure`).  Its output is accepted when it is feasible
    for the current family and the extremal-dual program for it is
    feasible, which certifies optimality by complementary slackness and
    uniqueness.  Returns (x, psi, stats); raises StructureViolation, with
    the new cuts or a cut x leaves below one as witness, when that attempt
    is not certified.
    """
    if state.x is None:
        out, stats = solve_bipartite_via_procedure(g, costs, state.carry)
        # only z is read: the run's output dual is dropped before the LP
        z = out.z
        del out
        psi = solve_extremal_dual(g, costs, fam, z, state.gamma)
        return z, psi, stats

    pinned = set(state.pinned)
    witness = [sorted(hat) for hat in state.pinned]
    cfg = ValidConfiguration(
        laminar=[s for s in fam.sets if s not in pinned],
        disjoint=state.pinned,
        z=state.x,
        dual=state.gamma,
    )
    try:
        out, stats = run_half_integral_procedure(g, costs, cfg, carry=state.carry)
    except StalledNoEpsilon:
        # Either no perfect matching survives the cuts or a coupling
        # invariant broke.
        solve_primal(g, costs, fam)  # raises LPInfeasible when no matching exists
        raise StructureViolation(
            "pinned-cut procedure stalled on a feasible relaxation", witness=witness
        )

    # only z is read: the run's output dual is dropped before the LP
    z = out.z
    del out
    # the cuts are left to solve_extremal_dual, which sums them anyway
    if not check_degree_and_cut_feasibility(z, g, ()):
        raise StructureViolation(
            "pinned-cut optimum is infeasible for the relaxation", witness=witness
        )
    try:
        psi = solve_extremal_dual(g, costs, fam, z, state.gamma)
    except LPInfeasible as exc:
        raise StructureViolation(
            "pinned-cut optimum is not optimal for the relaxation", witness=witness
        ) from exc
    return z, psi, stats


def _record_dual(psi: DualSolution, g: Graph) -> tuple:
    nodes = {str(u): format_rat(psi.node(u)) for u in range(1, g.n + 1)}
    sets = [[sorted(s), format_rat(psi[s])] for s in psi.set_keys()]
    return nodes, sets


# A simplex optimum whose extremal-dual program has no feasible point is
# not optimal: a broken invariant, not a missing perfect matching.
_NO_EXTREMAL_DUAL = "the simplex optimum has no extremal dual"


def step(state: DriverState, g: Graph, pc: PerturbedCosts, solver: str = "simplex") -> tuple:
    """One driver iteration; returns (next_state, record)."""
    if state.terminal:
        return state, None
    costs = pc.scaled
    fam = state.fam

    stats = None
    basis_dual = psi = None
    cuts = state.gamma.cuts(g)  # the run's map of delta(S)
    if solver == "simplex":
        x, basis_dual, objective = solve_primal(g, costs, fam, state.warm, cuts=cuts)
    elif solver == "combinatorial":
        x, psi, stats = _solve_primal_combinatorial(g, costs, fam, state)
        objective = cost_value(x, costs)
    elif solver == "cross-check":
        x_s, basis_dual, objective = solve_primal(g, costs, fam, state.warm, cuts=cuts)
        try:
            x, psi, stats = _solve_primal_combinatorial(g, costs, fam, state)
        except LPInfeasible as exc:
            raise StructureViolation(_NO_EXTREMAL_DUAL) from exc
        if x != x_s:
            diff = [e for e in range(g.m) if x[e] != x_s[e]]
            raise StructureViolation(
                "simplex and combinatorial optima differ", witness=diff
            )
    else:
        raise ValueError(f"unknown solver {solver!r}")

    # the procedure's output check already decomposed its x
    carry = state.carry
    try:
        dec = carry.support if carry.z is x else decompose_support(x, g)
    except ValueError:
        raise StructureViolation(
            "intermediate optimum is not proper-half-integral",
            witness=[format_rat(v) for v in x],
        ) from None
    if state.o is not None and dec.o > state.o:
        raise StructureViolation(
            f"odd cycle count increased from {state.o} to {dec.o}"
        )

    # A terminal iteration records the basis dual when the simplex gave one;
    # every other iteration records the extremal dual, which certifies a
    # simplex optimum before its record is written.  x is proper
    # half-integral here, so it is integral exactly when it has no odd
    # cycle.
    terminal = not dec.odd_cycles
    if terminal and basis_dual is not None:
        dual, kind = basis_dual, "basis"
    else:
        if psi is None:
            try:
                psi = solve_extremal_dual(g, costs, fam, x, state.gamma)
            except LPInfeasible as exc:
                raise StructureViolation(_NO_EXTREMAL_DUAL) from exc
        if solver != "combinatorial":
            certify_optimum(g, costs, fam.sets, x, objective, psi)
        dual, kind = psi, "extremal"

    hp_sets, hats = [], []
    next_fam, gamma_next = fam, state.gamma
    if not terminal:
        hp = select_old_cuts(fam, psi)
        hp_sets = hp.sets
        hats = [hat for _cycle, _absorbed, hat in select_new_cuts(dec, hp)]
        try:
            next_fam = LaminarFamily(g.n, hp_sets + hats)
        except ValueError as exc:  # LaminarityViolation or a bad odd set
            raise StructureViolation(f"new cut breaks the family: {exc}", witness=[sorted(h) for h in hats]) from None
        gamma_next = DualSolution(psi | dict.fromkeys(hats, ZERO))
        gamma_next.cut_edges = psi.cut_edges

    nodes, sets = _record_dual(dual, g)
    record = IterationRecord(
        iteration=state.iteration,
        cuts_imposed=[sorted(s) for s in fam.sets],
        primal=[format_rat(v) for v in x],
        dual_nodes=nodes,
        dual_sets=sets,
        dual_kind=kind,
        odd_cycle_count=dec.o,
        cuts_retained=[sorted(s) for s in hp_sets],
        cuts_added=[sorted(hat) for hat in hats],
        objective_scaled=format_rat(objective),
        terminal=terminal,
        cross_checked=solver == "cross-check",
        procedure=_stats_json(stats),
    )
    next_state = DriverState(
        iteration=state.iteration + 1,
        fam=next_fam,
        gamma=gamma_next,
        x=x,
        o=dec.o,
        terminal=terminal,
        pinned=hats,
        warm=state.warm,
        carry=carry,
    )
    return next_state, record


def _stats_json(stats: ProcedureStats | None):
    if stats is None:
        return None
    return {
        "iterations": stats.iterations,
        "cases": dict(stats.case_counts),
        "phase_lengths": list(stats.phase_lengths),
        "initial_potential": stats.initial_potential,
        "initial_exposed": stats.initial_exposed,
        "workspace_nodes": stats.workspace_nodes,
        "unshrinks": stats.unshrinks,
        "input_laminar": stats.input_laminar,
        "input_pinned": stats.input_pinned,
    }


def run(g: Graph, solver: str = "simplex") -> RunResult:
    """Find the minimum-cost perfect matching of g by cutting planes.

    The returned matching minimizes both the perturbed and the original
    integer cost.  Raises NoPerfectMatching when none exists and
    StructureViolation when a structural invariant breaks (the trace built
    so far rides on the exception's witness).
    """
    if solver not in SOLVER_CHOICES:
        raise ValueError(f"solver must be one of {SOLVER_CHOICES}")
    if g.n == 0 or g.n % 2 == 1:
        raise NoPerfectMatching(f"no perfect matching on {g.n} nodes")
    if g.m == 0:
        raise NoPerfectMatching("graph has no edges")

    pc = perturb([c for _u, _v, c in g.edges])
    state = DriverState(iteration=0, fam=LaminarFamily(g.n), gamma=DualSolution.zeros(g))
    records = []
    bound = iteration_bound(g.n)
    try:
        while not state.terminal:
            if state.iteration >= bound:
                raise StructureViolation(f"iteration bound {bound} exceeded")
            state, record = step(state, g, pc, solver=solver)
            if record is not None:
                records.append(record)
    except LPInfeasible as exc:
        raise NoPerfectMatching(str(exc)) from exc
    except StalledNoEpsilon as exc:
        raise NoPerfectMatching(str(exc)) from exc
    except StructureViolation as exc:
        # every violation is either a bug or a counterexample: hand the
        # replayable prefix to the caller
        exc.trace_records = records
        exc.graph = g
        raise

    x = state.x
    matching = [e for e, v in enumerate(x) if v == ONE]
    return RunResult(
        matching=matching,
        base_cost=pc.base_total(matching),
        perturbed_cost=pc.perturbed_total(matching),
        lp_solves=len(records),
        records=records,
        graph=g,
        perturbed=pc,
    )
