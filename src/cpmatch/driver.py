"""The cutting-plane loop: solve, pick duals, retain and add cuts, repeat.

Each iteration solves the current relaxation (exact simplex by default, the
half-integral matching procedure as an independent route), computes the
extremal dual against the previous one, keeps the cuts with positive dual
value and adds one new cut per odd support cycle, unioned with the retained
maximal sets it meets so the family stays laminar.
"""

from __future__ import annotations

import json
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
    decompose_support,
    is_proper_half_integral,
)
from .combinatorial import (
    CriticalMatchingFinder,
    ProcedureStats,
    ValidConfiguration,
    fill_inside,
    is_factor_critical,
    run_half_integral_procedure,
    solve_bipartite_via_procedure,
)
from .laminar import LaminarFamily, contract_with_dual, sorted_sets
from .lp import DualSolution, solve_extremal_dual, solve_primal
from .rational import ONE, PerturbedCosts, Rat, ZERO, format_rat, perturb

TRACE_SCHEMA = "cpmatch-trace-1"

SOLVER_CHOICES = ("simplex", "combinatorial", "cross-check")


def iteration_bound(n: int) -> int:
    """Cap on the number of relaxation solves: ceil((n/2) H_ceil(n/3)) + n."""
    k = max(1, -(-n // 3))
    harmonic = sum(Rat(1, i) for i in range(1, k + 1))
    capped = Rat(n, 2) * harmonic
    num, den = capped.numerator, capped.denominator
    return int(-(-num // den)) + n


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

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "cuts_imposed": self.cuts_imposed,
            "primal": self.primal,
            "dual_nodes": self.dual_nodes,
            "dual_sets": self.dual_sets,
            "dual_kind": self.dual_kind,
            "odd_cycle_count": self.odd_cycle_count,
            "cuts_retained": self.cuts_retained,
            "cuts_added": self.cuts_added,
            "objective_scaled": self.objective_scaled,
            "terminal": self.terminal,
            "cross_checked": self.cross_checked,
            "procedure": self.procedure,
        }

    @classmethod
    def from_json(cls, data: dict) -> "IterationRecord":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


@dataclass
class DriverState:
    iteration: int
    fam: LaminarFamily
    gamma: DualSolution
    x: list | None = None
    o: int | None = None
    terminal: bool = False
    # context needed to rebuild the next combinatorial configuration
    hp_sets: list = field(default_factory=list)
    new_cut_info: list = field(default_factory=list)


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
    """JSONL lines of a trace: the header, then one line per record."""
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(r.to_json(), sort_keys=True) for r in records)
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
    StructureViolation if a retained set meets two cycles, a union comes out
    even, or two unions intersect.
    """
    claimed = {}
    out = []
    for cycle in dec.odd_cycles:
        nodes = frozenset(cycle)
        absorbed = h_prime.maximal_sets_intersecting(nodes)
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
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if out[i][2] & out[j][2]:
                raise StructureViolation(
                    "new cut sets intersect",
                    witness=sorted(out[i][2] & out[j][2]),
                )
    return out


def _solve_primal_combinatorial(
    g: Graph, costs, fam: LaminarFamily, state: DriverState
) -> tuple:
    """Next relaxation optimum via the half-integral matching procedure.

    The first solve runs the procedure from the empty vector.  Every later
    solve runs it once, from the previous optimum: the retained sets that a
    new cut absorbed are contracted, the other retained cuts stay
    inequalities, and every new cut is pinned to equality with the zero dual
    `step` gave it.  The lifted output is accepted when it is feasible for
    the current family and the extremal-dual program for it is feasible,
    which certifies optimality by complementary slackness and uniqueness.
    Returns (x, psi, stats); raises StructureViolation, with the new cuts as
    witness, when that single attempt is not certified.
    """
    if state.x is None:
        out, stats = solve_bipartite_via_procedure(g, costs)
        psi = solve_extremal_dual(g, costs, fam, out.z, state.gamma)
        return out.z, psi, stats

    gamma = state.gamma
    hats = [hat for _cycle, _absorbed, hat in state.new_cut_info]
    witness = [sorted(hat) for hat in hats]
    contract_list = [s for _cycle, absorbed, _hat in state.new_cut_info for s in absorbed]
    wg, cmap = contract_with_dual(g, costs, contract_list, gamma)

    def image_set(s):
        return frozenset(cmap.node_image[u] for u in s)

    lam_w = []
    dual_w = DualSolution()
    contracted = set(map(frozenset, contract_list))
    for s in state.hp_sets:
        if s in contracted or any(s < t for t in contracted):
            continue
        img = image_set(s)
        lam_w.append(img)
        dual_w[img] = gamma.of_set(s)
    for u in range(1, g.n + 1):
        key_set = next((s for s in contracted if u in s), None)
        dual_w[cmap.node_image[u]] = gamma.node(u) if key_set is None else gamma.of_set(key_set)
    z_w = [state.x[cmap.edge_preimage[e]] for e in range(wg.m)]
    cfg = ValidConfiguration(
        laminar=lam_w, disjoint=[image_set(hat) for hat in hats], z=z_w, dual=dual_w
    )
    try:
        out, stats = run_half_integral_procedure(wg, wg.costs(), cfg)
    except StalledNoEpsilon:
        # Either no perfect matching survives the cuts or a coupling
        # invariant broke.
        solve_primal(g, costs, fam)  # raises LPInfeasible when no matching exists
        raise StructureViolation(
            "pinned-cut procedure stalled on a feasible relaxation", witness=witness
        )

    z = cmap.lift_vector(out.z, g.m)
    finder = CriticalMatchingFinder(g, costs, fam.sets, gamma)
    for s in sorted_sets(contracted):
        fill_inside(g, z, s, finder)
    if not check_degree_and_cut_feasibility(z, g, fam.sets):
        raise StructureViolation(
            "pinned-cut optimum is infeasible for the relaxation", witness=witness
        )
    try:
        psi = solve_extremal_dual(g, costs, fam, z, gamma)
    except LPInfeasible as exc:
        raise StructureViolation(
            "pinned-cut optimum is not optimal for the relaxation", witness=witness
        ) from exc
    return z, psi, stats


def _record_dual(psi: DualSolution, g: Graph) -> tuple:
    nodes = {str(u): format_rat(psi.node(u)) for u in range(1, g.n + 1)}
    sets = [[sorted(s), format_rat(psi[s])] for s in psi.set_keys()]
    return nodes, sets


def step(state: DriverState, g: Graph, pc: PerturbedCosts, solver: str = "simplex",
         verify: bool = False) -> tuple:
    """One driver iteration; returns (next_state, record).

    With `verify`, every positive-dual set of a non-terminal extremal dual is
    checked to be factor-critical.
    """
    if state.terminal:
        return state, None
    costs = pc.scaled
    fam = state.fam

    stats = None
    basis_dual = psi = None
    if solver == "simplex":
        x, basis_dual, objective = solve_primal(g, costs, fam)
    elif solver == "combinatorial":
        x, psi, stats = _solve_primal_combinatorial(g, costs, fam, state)
        objective = sum((Rat(c) * v for c, v in zip(costs, x)), ZERO)
    elif solver == "cross-check":
        x_s, basis_dual, objective = solve_primal(g, costs, fam)
        x, psi, stats = _solve_primal_combinatorial(g, costs, fam, state)
        if x != x_s:
            diff = [e for e in range(g.m) if x[e] != x_s[e]]
            raise StructureViolation(
                "simplex and combinatorial optima differ", witness=diff
            )
    else:
        raise ValueError(f"unknown solver {solver!r}")

    if not is_proper_half_integral(x, g):
        raise StructureViolation(
            "intermediate optimum is not proper-half-integral",
            witness=[format_rat(v) for v in x],
        )
    dec = decompose_support(x, g)
    if state.o is not None and dec.o > state.o:
        raise StructureViolation(
            f"odd cycle count increased from {state.o} to {dec.o}"
        )
    if len(fam) > g.n // 2:
        raise StructureViolation("family exceeds n/2 members")

    # A terminal iteration records the basis dual when the simplex gave one;
    # every other iteration records the extremal dual.
    terminal = all(v == ZERO or v == ONE for v in x)
    if terminal and basis_dual is not None:
        dual, kind = basis_dual, "basis"
    else:
        if psi is None:
            psi = solve_extremal_dual(g, costs, fam, x, state.gamma)
        dual, kind = psi, "extremal"

    hp_sets, new_info = [], []
    next_fam, gamma_next = fam, state.gamma
    if not terminal:
        if verify:
            for s in fam.sets:
                if psi.of_set(s) > ZERO and not is_factor_critical(g, costs, s, fam.sets, psi):
                    raise StructureViolation(
                        "positive-dual set is not factor-critical", witness=sorted(s)
                    )
        hp = select_old_cuts(fam, psi)
        hp_sets = hp.sets
        new_info = select_new_cuts(dec, hp)
        next_fam = hp
        gamma_next = DualSolution(psi)
        for _cycle, _absorbed, hat in new_info:
            next_fam = next_fam.insert_checked(hat)
            gamma_next[hat] = ZERO

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
        cuts_added=[sorted(hat) for _c, _a, hat in new_info],
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
        hp_sets=hp_sets,
        new_cut_info=new_info,
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


def run(g: Graph, solver: str = "simplex", verify: bool = False) -> RunResult:
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
            state, record = step(state, g, pc, solver=solver, verify=verify)
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
