"""A brute-force matching oracle, random instances, and trace replay.

The oracle is deliberately dumb: recursive pairing of the lowest unmatched
node, for n <= 16.  Trace replay re-checks every recorded invariant straight
from the trace.  The generator keeps each draw that has a perfect matching;
up to n = 16 the oracle decides that, so instances that small never depend
on the solver they are used to certify.  Above n = 16 the solver decides it,
exactly: a returned matching proves one exists, and an empty relaxation
proves none does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

from .errors import GenerationFailed, NoPerfectMatching, SchemaMismatch
from .graph import (
    Cuts, Graph, cost_value, cut_values, decompose_support, feasibility_violation, in_units, make_graph,
)
from .combinatorial import CriticalMatchingFinder, is_factor_critical
from .laminar import LaminarFamily
from .lp import DualSolution, slackness_violation
from .driver import TRACE_SCHEMA, iteration_bound, run, trace_header
from .rational import ONE, Rat, ZERO, parse_rat, perturb

# Largest n the brute-force oracle takes.
NODE_LIMIT = 16
# Draws random_instance makes before it gives up.
MAX_ATTEMPTS = 200


def brute_force_mcpm(g: Graph, costs=None):
    """Minimum-cost perfect matching by recursive pairing of the lowest
    unmatched node, memoized on the set of unmatched nodes.

    Returns (sorted edge ids, cost as a `Rat`).  Among matchings of least
    cost it returns the one that takes the least edge id at the lowest
    unmatched node, then recursively at the lowest node left unmatched.
    Costs default to the graph's own; pass scaled integers to rank by
    perturbed cost.  They are summed as given, so int costs stay ints and
    rational ones stay exact.  Raises NoPerfectMatching when n is odd or
    zero or no perfect matching exists, ValueError above NODE_LIMIT.
    """
    if g.n > NODE_LIMIT:
        raise ValueError(f"brute force limited to n <= {NODE_LIMIT}")
    if g.n % 2 == 1 or g.n == 0:
        raise NoPerfectMatching(f"n = {g.n}")
    if costs is None:
        costs = [c for _u, _v, c in g.edges]
    # options[bit of u]: (bit of the other end, edge id, cost) of each edge
    # at u, by ascending edge id, so the first of equal-cost candidates is
    # kept.  The other end of edge (a, b) is a + b - u; a self-loop's is u
    # itself, which is never among the nodes left to match.
    ends = g.edges
    options = {
        1 << (u - 1): [(1 << (ends[e][0] + ends[e][1] - u - 1), e, costs[e]) for e in at_u]
        for u, at_u in enumerate(g.incidence)
        if u
    }
    # mask of unmatched nodes -> (cost, edge at its lowest node) of its
    # cheapest matching, or None when it has none
    memo = {0: (0, None)}
    unseen = object()

    def best(mask):
        low = mask & -mask
        rest = mask ^ low
        best_cost = best_edge = None
        for bit, e, c in options[low]:
            if rest & bit:
                sub = memo.get(rest ^ bit, unseen)
                if sub is unseen:
                    sub = best(rest ^ bit)
                if sub is not None:
                    total = c + sub[0]
                    if best_edge is None or total < best_cost:
                        best_cost, best_edge = total, e
        result = None if best_edge is None else (best_cost, best_edge)
        memo[mask] = result
        return result

    full = (1 << g.n) - 1
    answer = best(full)
    if answer is None:
        raise NoPerfectMatching("exhausted all pairings")
    matching = []
    mask = full
    while mask:
        e = memo[mask][1]
        matching.append(e)
        mask ^= (1 << (ends[e][0] - 1)) | (1 << (ends[e][1] - 1))
    return sorted(matching), Rat(answer[0])


def has_perfect_matching(g: Graph) -> bool:
    """By brute force up to NODE_LIMIT nodes, above it by `driver.run`.
    Raises StructureViolation if the solver breaks an invariant."""
    try:
        if g.n <= NODE_LIMIT:
            brute_force_mcpm(g)
        else:
            run(g)
        return True
    except NoPerfectMatching:
        return False


def random_instance(
    n: int,
    edge_probability: float,
    cost_range,
    seed: int,
) -> Graph:
    """Seed-reproducible random graph conditioned on having a perfect matching.

    Edges are drawn independently for each unordered pair in lexicographic
    order; costs are uniform integers in the closed range.  Rejection-samples
    until a perfect matching exists (see `has_perfect_matching`).
    """
    if n % 2 == 1 or n < 4:
        raise ValueError("n must be even and at least 4")
    lo, hi = int(cost_range[0]), int(cost_range[1])
    rng = random.Random(seed)
    for _attempt in range(MAX_ATTEMPTS):
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < edge_probability:
                    edges.append((u, v, rng.randint(lo, hi)))
        if not edges:
            continue
        g = make_graph(n, edges)
        if has_perfect_matching(g):
            return g
    raise GenerationFailed(
        f"no feasible instance after {MAX_ATTEMPTS} attempts (n={n}, p={edge_probability}, seed={seed})"
    )


# ---------------------------------------------------------------------------
# Trace replay


@dataclass
class VerifyReport:
    """Each check's (status, detail) by name: PASS, SKIP with the reason the
    check did not run, or FAIL with its first witness."""

    checks: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:  # a SKIP does not count against it
        return all(status != "FAIL" for status, _detail in self.checks.values())

    def lines(self) -> list:  # one line per check, by name
        return [f"{status} {name}" if status == "PASS" else
                f"{status} {name} {'reason' if status == 'SKIP' else 'witness'}={detail}"
                for name, (status, detail) in sorted(self.checks.items())]


# The JSON type of every required record field, as verify_trace reads it.
RECORD_FIELDS = {
    "iteration": int,
    "cuts_imposed": list,
    "primal": list,
    "dual_nodes": dict,
    "dual_sets": list,
    "odd_cycle_count": int,
    "cuts_retained": list,
    "cuts_added": list,
    "objective_scaled": str,
}


def parse_trace(lines) -> tuple:
    """(header, records) from JSONL; SchemaMismatch on malformed input."""
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise SchemaMismatch("empty trace")
    try:
        header = json.loads(lines[0])
        records = [json.loads(ln) for ln in lines[1:]]
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"bad JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise SchemaMismatch(f"header is not an object: {header!r}")
    if header.get("schema") != TRACE_SCHEMA:
        raise SchemaMismatch(f"unknown schema {header.get('schema')!r}")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise SchemaMismatch(f"record {i} is not an object: {rec!r}")
        missing = RECORD_FIELDS.keys() - rec.keys()
        if missing:
            raise SchemaMismatch(f"record missing fields {sorted(missing)}")
        for name, kind in RECORD_FIELDS.items():
            # exact type: JSON true/false decode to bool, a subclass of int
            if type(rec[name]) is not kind:
                raise SchemaMismatch(
                    f"record {i}: {name} is not of type {kind.__name__}: {rec[name]!r}"
                )
        if rec.get("dual_kind", "extremal") not in ("extremal", "basis"):
            raise SchemaMismatch(f"record {i}: unknown dual_kind {rec['dual_kind']!r}")
    return header, records


def _number(text, it, field: str, memo: dict):
    """A record's "p" or "p/q" string as a Rat; SchemaMismatch otherwise.
    `memo` maps each string parsed so far in one replay to its Rat, so a
    string is parsed once however often it recurs.  Only a str is looked
    up, so a JSON list or object in its place raises SchemaMismatch too."""
    if isinstance(text, str):
        if text in memo:
            return memo[text]
        try:
            memo[text] = parse_rat(text)
            return memo[text]
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaMismatch(f"iteration {it}: {field} is not a rational: {text!r}")


def _node(text: str, it) -> int:
    """A dual_nodes key as a node id; SchemaMismatch otherwise."""
    try:
        return int(text)
    except ValueError:
        raise SchemaMismatch(f"iteration {it}: dual_nodes key is not a node: {text!r}") from None


def _cut(nodes, it, field: str) -> frozenset:
    """A record's node list as a set; SchemaMismatch unless a list of ints.
    Range and parity are left to the laminarity check."""
    if isinstance(nodes, list) and all(type(u) is int for u in nodes):
        return frozenset(nodes)
    raise SchemaMismatch(f"iteration {it}: {field} has a set that is not a list of nodes: {nodes!r}")


# ---------------------------------------------------------------------------
# The checks.  A record check reads a record as `_replay` gives it, a trace check the
# trace: its `records` (`it`, `dec`, `family` and `added` alone) and its `last` record
# or None.  A check returns its first witness or None; a need its reason, if unmet.
NEEDS = {
    "extremal dual": lambda g, r: None if r.kind == "extremal" else "no extremal dual",
    "early basis dual": lambda g, r: None if r.kind == "basis" and not r.final else "no early basis dual",
    "laminar family": lambda g, r: None if r.fam is not None else "cut family not laminar",
    "decomposition": lambda g, r: None if r.dec is not None else f"half_integrality failed at iteration {r.it}",
    "previous record": lambda g, r: None if r.want is not None else "no previous record",
    "records": lambda g, t: None if t.records else "no records",
    "every decomposition": lambda g, t: next((NEEDS["decomposition"](g, h) for h in t.records if h.dec is None), None),
    "final perfect matching": lambda g, t: "final solution not a perfect matching" if _final_matching(g, t) else None,
    "n <= NODE_LIMIT": lambda g, t: None if g.n <= NODE_LIMIT else f"n>{NODE_LIMIT}",
}


def _primal_feasibility(g, r):
    below = ({"set": sorted(s), "reason": "cut below one"} for s in r.imposed if r.cut_value[s] < ONE)
    violation = r.degree_violation or next(below, None)
    return violation and {"iteration": r.it, **violation}


def _cycle_monotonicity(g, r):
    if r.dec.o != r.o:
        return {"iteration": r.it, "reason": "o mismatch"}
    if r.o_before is not None and r.dec.o > r.o_before:
        return {"iteration": r.it, "o": r.dec.o, "prev": r.o_before}
    # a run stops at the first x with no odd cycle
    if not r.final and not r.dec.odd_cycles:
        return {"iteration": r.it, "reason": "no odd cycle before the final record"}


def _complementary_slackness(g, r):  # and strong duality, exactly
    if cost_value(r.x, r.costs, r.units) != r.objective:
        return {"iteration": r.it, "reason": "objective mismatch"}
    if Rat(r.slacks.dual_objective, r.slacks.unit) != r.objective:
        return {"iteration": r.it, "reason": "weak duality gap"}
    violation = slackness_violation(r.x, r.dual, r.slacks, r.cut_value)
    if violation is None:  # a dual on another set would certify x for a smaller polytope
        foreign = next((s for s, y in r.dual.items() if type(s) is frozenset and y and s not in r.family), None)
        violation = foreign and {"set": sorted(foreign), "reason": "dual on a set not imposed"}
    return violation and {"iteration": r.it, **violation}


def _positively_critical(g, r):
    positive = [s for s in r.imposed if r.dual.of_set(s) > ZERO]
    if positive:  # the new finder takes over what the last one decided
        r.finder = CriticalMatchingFinder(g, r.fam, r.slacks, previous=r.finder)
    return next(({"iteration": r.it, "set": sorted(s)} for s in positive if not is_factor_critical(r.finder, s)), None)


def _early_basis_dual(g, r):
    return {"iteration": r.it, "reason": "basis dual on a non-final record"}


def _cut_windows(g, t):
    # if o is level from record a to record b, every cut added in records
    # a..b-1 must be in the family imposed at record b+1
    rs = t.records
    for a in range(len(rs)):
        for b in range(a + 1, len(rs) - 1):
            if rs[b].dec.o != rs[a].dec.o:
                break
            missing = [s for s in set().union(*(r.added for r in rs[a:b])) if s not in rs[b + 1].family]
            if missing:
                return {"window": [rs[a].it, rs[b].it], "set": sorted(missing[0])}


def _final_matching(g, t):
    if t.last is None:
        return {"reason": "empty trace"}
    scale, support = t.last.units
    if scale != 1 or any(k != 1 for k in support.values()):
        return {"reason": "final solution not integral"}
    if t.last.degree_violation is not None:
        return {"reason": "final solution not a perfect matching"}


def _final_optimum(g, t):
    # a 0/1 x that meets every degree row is a perfect matching: the oracle finds one
    _edges, best_cost = brute_force_mcpm(g)
    got = sum(int(g.edges[e][2]) for e in t.last.units[1])
    return None if Rat(got) == best_cost else {"cost": got, "optimum": str(best_cost)}


# (name, scope, applies, needs, check), run in this order.  A check applies to
# a record (or the trace) where the need named `applies` (if any) is met, and
# runs there where `needs` is met too; the entries of one name make one check.
# It prints FAIL with its first witness if it failed anywhere, PASS if it ran
# wherever it applied and at least once, else SKIP and its first unmet need.
CHECKS = [
    ("half_integrality", "record", None, None, lambda g, r: None if r.dec is not None else {"iteration": r.it}),
    ("primal_feasibility", "record", None, None, _primal_feasibility),
    ("laminarity", "record", None, None,
     lambda g, r: None if r.fam is not None else {"iteration": r.it, "error": r.fam_error}),
    # |F| <= n/2 is also the bound of n + |F| <= 3n/2 LP rows
    ("family_size", "record", None, None,
     lambda g, r: {"iteration": r.it, "size": len(r.imposed)} if len(r.imposed) > g.n // 2 else None),
    ("cycle_monotonicity", "record", None, "decomposition", _cycle_monotonicity),
    # the family must be exactly the previous record's retained + added
    ("cut_persistence", "record", "previous record", None, lambda g, r: None if r.family == r.want else
     {"iteration": r.it, "reason": "family is not retained+added of previous record"}),
    ("complementary_slackness", "record", None, None, _complementary_slackness),
    # only the final record may carry the basis dual in place of Psi
    ("positively_critical", "record", "extremal dual", "laminar family", _positively_critical),
    ("positively_critical", "record", "early basis dual", None, _early_basis_dual),
    ("cut_persistence", "trace", "records", "every decomposition", _cut_windows),
    # the bound is at least n, so a trace of at most n records needs no lcm
    ("iteration_bound", "trace", None, None, lambda g, t: {"lp_solves": len(t.records)}
     if len(t.records) > g.n and len(t.records) > iteration_bound(g.n) else None),
    ("final_matching_oracle", "trace", None, None, _final_matching),
    ("final_matching_oracle", "trace", "final perfect matching", "n <= NODE_LIMIT", _final_optimum),
]


class _Tally:
    """One check over a trace: counts of where it applied and ran, first reasons, first witness."""

    applied = ran = 0
    unmet = idle = witness = None

    def status(self) -> tuple:
        if self.witness is not None:
            return "FAIL", self.witness
        if self.ran and self.ran == self.applied:
            return "PASS", None
        return "SKIP", self.unmet or self.idle or "no records"


def _run(scope: str, tally: dict, g: Graph, r) -> None:
    """Run each check of `scope` on r, a record or the trace, counting it in `tally`."""
    for name, s, applies, needs, check in CHECKS:
        if s != scope:
            continue
        t = tally[name]
        idle = applies and NEEDS[applies](g, r)
        if idle:
            t.idle = t.idle or idle
            continue
        t.applied += 1
        unmet = needs and NEEDS[needs](g, r)
        if unmet:
            t.unmet = t.unmet or unmet
            continue
        t.ran += 1
        if t.witness is None:  # a failed check is not run again
            t.witness = check(g, r)


def _replay(g: Graph, costs, rec: dict, numbers: dict, cuts: Cuts, prev) -> SimpleNamespace:
    """One record as the checks read it: parsed, with x's int units, cut values, slacks,
    decomposition `dec` and family `fam` (None where none), and what it takes from `prev`."""
    it = rec["iteration"]
    x = [_number(s, it, "primal", numbers) for s in rec["primal"]]
    if len(x) != g.m:
        raise SchemaMismatch(f"iteration {it}: primal length {len(x)}")
    dual = DualSolution()
    dual.cut_edges = cuts
    for u_str, val in rec["dual_nodes"].items():
        dual[_node(u_str, it)] = _number(val, it, "dual_nodes", numbers)
    for entry in rec["dual_sets"]:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SchemaMismatch(f"iteration {it}: dual_sets entry is not [nodes, value]: {entry!r}")
        dual[_cut(entry[0], it, "dual_sets")] = _number(entry[1], it, "dual_sets", numbers)
    imposed, retained, added = (
        [_cut(s, it, f) for s in rec[f]] for f in ("cuts_imposed", "cuts_retained", "cuts_added"))
    r = SimpleNamespace(
        it=it, x=x, dual=dual, imposed=imposed, added=added, costs=costs, family=set(imposed),
        objective=_number(rec["objective_scaled"], it, "objective_scaled", numbers),
        kind=rec.get("dual_kind", "extremal"), o=rec["odd_cycle_count"], units=in_units(x),
        slacks=dual.slacks(g, costs), dec=None, fam=None, fam_error=None,
        next_family=set(retained) | set(added), want=prev and prev.next_family,
        o_before=prev and (prev.o_before if prev.dec is None else prev.dec.o), finder=prev and prev.finder,
    )
    r.cut_value = dict(zip(imposed, cut_values(x, map(cuts.__getitem__, imposed), r.units)))
    r.degree_violation = feasibility_violation(x, g, (), units=r.units)
    try:
        r.dec = decompose_support(x, g)
    except ValueError:
        pass
    try:
        r.fam = LaminarFamily(g.n, imposed)
    except ValueError as exc:  # LaminarityViolation or a bad odd set
        r.fam_error = str(exc)
    return r


def verify_trace(g: Graph, trace_lines) -> VerifyReport:
    """Replay a trace against its instance and run every check of `CHECKS`.

    A number string is parsed once per call, x put in int units once per record,
    and delta(S) read once per call, into one `Cuts` map.  SchemaMismatch on a
    trace that does not parse or match g, or a g with no edges."""
    header, records = parse_trace(trace_lines)
    for key, value in trace_header(g).items():
        if header.get(key) != value:
            raise SchemaMismatch(f"trace header {key} does not match instance")
    if not g.m:
        raise SchemaMismatch("instance has no edges, so no run writes a trace for it")
    costs = perturb([c for _u, _v, c in g.edges]).scaled
    tally = {entry[0]: _Tally() for entry in CHECKS}
    numbers, cuts = {"0": 0}, Cuts(g)  # string -> its Rat; "0" -> int 0, whose truth test is cheap
    trace = SimpleNamespace(records=[], last=None)
    for i, rec in enumerate(records):
        r = trace.last = _replay(g, costs, rec, numbers, cuts, trace.last)
        r.final = i == len(records) - 1
        _run("record", tally, g, r)
        trace.records.append(SimpleNamespace(it=r.it, dec=r.dec, family=r.family, added=r.added))
    _run("trace", tally, g, trace)
    return VerifyReport({name: t.status() for name, t in tally.items()})
