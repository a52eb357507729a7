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
    """Outcome of each replay check, with a minimal witness on failure."""

    checks: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)  # name -> reason it did not run

    def record(self, name: str, ok: bool, witness=None):
        if name in self.checks and not self.checks[name][0]:
            return  # keep the first witness
        if name in self.checks and ok:
            return
        self.checks[name] = (ok, witness)

    def skip(self, name: str, reason: str):
        """Mark a check as not run: it prints SKIP and leaves all_ok as is."""
        self.skipped[name] = reason

    def ok(self, name: str) -> bool:
        """True iff the check ran and passed: a skipped one is not ok."""
        return name not in self.skipped and self.checks.get(name, (False, "missing"))[0]

    @property
    def all_ok(self) -> bool:
        return all(ok for ok, _w in self.checks.values())

    def lines(self) -> list:
        """One line per check: a failure found anywhere prints FAIL, even
        when the check could not run on some other record."""
        out = []
        for name in sorted(self.checks):
            ok, witness = self.checks[name]
            if not ok:
                out.append(f"FAIL {name} witness={witness}")
            elif name in self.skipped:
                out.append(f"SKIP {name} reason={self.skipped[name]}")
            else:
                out.append(f"PASS {name}")
        return out


CHECK_NAMES = [
    "half_integrality",
    "primal_feasibility",
    "laminarity",
    "family_size",
    "cycle_monotonicity",
    "cut_persistence",
    "complementary_slackness",
    "positively_critical",
    "final_matching_oracle",
    "iteration_bound",
]


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


def verify_trace(g: Graph, trace_lines) -> VerifyReport:
    """Replay a trace against its instance and re-check every invariant.

    Each piece of work is done once: a number string is parsed once per
    call, whatever records repeat it; x is put in int units once per record
    (`in_units`), for the cut, degree, objective and integrality checks;
    and delta(S) of a set S is read once per call, into one `Cuts` map, for
    the cut values and, as each `dual.cut_edges`, the slacks."""
    header, records = parse_trace(trace_lines)
    for key, value in trace_header(g).items():
        if header.get(key) != value:
            raise SchemaMismatch(f"trace header {key} does not match instance")

    pc = perturb([c for _u, _v, c in g.edges])
    costs = pc.scaled
    report = VerifyReport()
    for name in CHECK_NAMES:
        report.record(name, True)

    numbers = {}  # number string -> its Rat
    cuts = Cuts(g)
    prev_o = None
    critical_skip = "no extremal dual"  # why positively_critical has not run yet
    undecomposed = None  # first iteration whose support could not be decomposed
    history = []  # (iteration, o or None, imposed_sets, added_sets)
    want = None  # the family the next record must impose
    for rec in records:
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
            [_cut(s, it, field) for s in rec[field]]
            for field in ("cuts_imposed", "cuts_retained", "cuts_added")
        )
        objective = _number(rec["objective_scaled"], it, "objective_scaled", numbers)

        # Every check below runs on each record, except the ones that need
        # the support decomposition of a half-integral x.
        try:
            dec = decompose_support(x, g)
        except ValueError:
            dec = None
            report.record("half_integrality", False, {"iteration": it})
            if undecomposed is None:
                undecomposed = it
        if dec is not None:
            if dec.o != rec["odd_cycle_count"]:
                report.record("cycle_monotonicity", False, {"iteration": it, "reason": "o mismatch"})
            if prev_o is not None and dec.o > prev_o:
                report.record("cycle_monotonicity", False, {"iteration": it, "o": dec.o, "prev": prev_o})
            prev_o = dec.o

        # x in int units, and x(delta(S)) of each imposed set, read once for
        # the feasibility, objective and complementary-slackness tests
        units = in_units(x)
        cut_value = dict(zip(imposed, cut_values(x, map(cuts.__getitem__, imposed), units)))
        degree_violation = feasibility_violation(x, g, (), units=units)
        violation = degree_violation or next(
            ({"set": sorted(s), "reason": "cut below one"} for s in imposed if cut_value[s] < ONE),
            None,
        )
        if violation is not None:
            report.record("primal_feasibility", False, {"iteration": it, **violation})

        try:
            fam = LaminarFamily(g.n, imposed)
        except ValueError as exc:  # LaminarityViolation or a bad odd set
            report.record("laminarity", False, {"iteration": it, "error": str(exc)})
            fam = None
        # |F| <= n/2 is also the bound of n + |F| <= 3n/2 LP rows
        if len(imposed) > g.n // 2:
            report.record("family_size", False, {"iteration": it, "size": len(imposed)})

        # complementary slackness and strong duality, exactly
        if cost_value(x, costs, units) != objective:
            report.record("complementary_slackness", False, {"iteration": it, "reason": "objective mismatch"})
        slacks = dual.slacks(g, costs)
        if Rat(slacks.dual_objective, slacks.unit) != objective:
            report.record("complementary_slackness", False, {"iteration": it, "reason": "weak duality gap"})
        violation = slackness_violation(x, dual, slacks, cut_value)
        if violation is not None:
            report.record("complementary_slackness", False, {"iteration": it, **violation})

        # positively_critical reads an extremal dual; only the final
        # record may carry the basis dual in its place
        if rec.get("dual_kind") == "basis":
            if rec is not records[-1]:
                witness = {"iteration": it, "reason": "basis dual on a non-final record"}
                report.record("positively_critical", False, witness)
        elif fam is None:
            critical_skip = critical_skip and "cut family not laminar"
        else:
            critical_skip = None
            positive = [s for s in imposed if dual.of_set(s) > ZERO]
            if positive:
                finder = CriticalMatchingFinder(g, imposed, slacks)
                for s in positive:
                    if not is_factor_critical(finder, s):
                        report.record("positively_critical", False, {"iteration": it, "set": sorted(s)})

        # the family must be exactly the previous record's retained + added
        if want is not None and set(imposed) != want:
            report.record(
                "cut_persistence",
                False,
                {"iteration": it, "reason": "family is not retained+added of previous record"},
            )
        want = set(retained) | set(added)
        history.append((it, None if dec is None else dec.o, set(imposed), added))

    # Persistence: if o is level from iteration a to b, every cut added in
    # records a..b-1 must appear in the family imposed at record b+1.
    # A record without o ends every window.
    for a in range(len(history)):
        if history[a][1] is None:
            continue
        for b in range(a + 1, len(history)):
            if history[b][1] != history[a][1]:
                break
            if b + 1 >= len(history):
                continue
            union_added = set()
            for r in range(a, b):
                union_added.update(history[r][3])
            missing = [s for s in union_added if s not in history[b + 1][2]]
            if missing:
                report.record(
                    "cut_persistence",
                    False,
                    {"window": [history[a][0], history[b][0]], "set": sorted(missing[0])},
                )

    if critical_skip:
        report.skip("positively_critical", critical_skip)
    if undecomposed is not None:
        for name in ("cycle_monotonicity", "cut_persistence"):
            report.skip(name, f"half_integrality failed at iteration {undecomposed}")

    if len(records) > iteration_bound(g.n):
        report.record("iteration_bound", False, {"lp_solves": len(records)})

    if records:  # units and degree_violation are the last record's
        scale, support = units
        if scale == 1 and all(k == 1 for k in support.values()):
            matched = list(support)  # x is 0/1: its support, ascending
            if degree_violation is not None:
                report.record("final_matching_oracle", False, {"reason": "final solution not a perfect matching"})
            elif g.n <= NODE_LIMIT:
                try:
                    _edges, best_cost = brute_force_mcpm(g)
                    got = sum(int(g.edges[e][2]) for e in matched)
                    if Rat(got) != best_cost:
                        report.record("final_matching_oracle", False, {"cost": got, "optimum": str(best_cost)})
                except NoPerfectMatching:
                    report.record("final_matching_oracle", False, {"reason": "oracle found no matching"})
            else:
                report.skip("final_matching_oracle", f"n>{NODE_LIMIT}")
        else:
            report.record("final_matching_oracle", False, {"reason": "final solution not integral"})
    else:
        report.record("final_matching_oracle", False, {"reason": "empty trace"})
    return report
