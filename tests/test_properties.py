"""Property tests over small multigraphs: every solver route finds the
brute-force optimum, or reports no perfect matching exactly when there is
none, and every trace it writes replays clean; and the shared certificate
checks, `graph.cut_values` and `lp.slackness_violation`, agree with
references the tests hold."""

import pytest
from conftest import per_edge_slacks
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmatch import brute_force_mcpm, make_graph, run, verify_trace
from cpmatch.driver import SOLVER_CHOICES
from cpmatch.errors import NoPerfectMatching
from cpmatch.graph import cut_values
from cpmatch.lp import DualSolution, slackness_violation
from cpmatch.oracle import VerifyReport
from cpmatch.rational import ONE, Rat, ZERO


@st.composite
def multigraphs(draw):
    """n <= 10 nodes; parallel edges; costs mix small integers with 0 and
    10^6.  About half the graphs get a planted perfect matching of costly
    edges on shuffled nodes, and some of those cheap triangles too, so that
    odd cycles beat the matching in the relaxation and call for cuts.  The
    rest may have no perfect matching, and a few have an odd node count."""
    n = draw(st.sampled_from([2, 4, 4, 6, 6, 8, 8, 10, 10, 10, 3, 7]))
    small = st.integers(0, 20)
    cost = st.one_of(st.just(0), st.just(10**6), small)
    edges = []
    if n % 2 == 0 and draw(st.booleans()):
        order = draw(st.permutations(range(1, n + 1)))
        heavy = st.sampled_from([10**6, 20])
        edges += [(order[i], order[i + 1], draw(heavy)) for i in range(0, n, 2)]
        if n >= 6 and draw(st.booleans()):
            order = draw(st.permutations(range(1, n + 1)))
            for i in range(0, n - 2, 3):
                a, b, c = order[i : i + 3]
                edges += [(a, b, draw(small)), (b, c, draw(small)), (a, c, draw(small))]
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    extra = draw(st.lists(st.tuples(pair, cost), max_size=3 * n))
    edges += [(u, v, c) for (u, v), c in extra]
    order = draw(st.permutations(range(len(edges))))
    return make_graph(n, [edges[i] for i in order])


@settings(max_examples=250, deadline=None)
@given(multigraphs())
def test_every_solver_matches_brute_force(g):
    try:
        _edges, best = brute_force_mcpm(g)
    except NoPerfectMatching:
        best = None
    for solver in SOLVER_CHOICES:
        if best is None:
            with pytest.raises(NoPerfectMatching):
                run(g, solver=solver)
            continue
        res = run(g, solver=solver)
        assert Rat(res.base_cost) == best, solver
        report = verify_trace(g, res.trace_lines())
        assert report.all_ok, (solver, report.lines())


@st.composite
def certificates(draw):
    """(g, x, dual, costs, imposed): a multigraph from `multigraphs`, x with
    entries in {0, 1/2, 1, 1/3, -1/2}, node duals, up to four cut sets
    (repeats allowed) with negative, zero and positive duals, and costs set
    so that each edge's slack under the dual is 0, 1 or -1/2."""
    g = draw(multigraphs())
    value = st.sampled_from([ZERO, ZERO, Rat(1, 2), ONE, Rat(1, 3), Rat(-1, 2)])
    x = [draw(value) for _e in range(g.m)]
    node_dual = st.sampled_from([ZERO, Rat(1, 2), Rat(-1), Rat(2), Rat(1, 3)])
    dual = DualSolution({u: draw(node_dual) for u in range(1, g.n + 1)})
    imposed = draw(st.lists(st.frozensets(st.integers(1, g.n), min_size=1), max_size=4))
    set_dual = st.sampled_from([Rat(-1), ZERO, ZERO, Rat(1, 2), ONE, Rat(3)])
    for s in imposed:
        dual[s] = draw(set_dual)
    slack = st.sampled_from([ZERO, ZERO, ZERO, ONE, Rat(-1, 2)])
    loads = per_edge_slacks(dual, g, [ZERO] * g.m)
    costs = [draw(slack) - load for load in loads]
    return g, x, dual, costs, imposed


def verify_trace_slackness_loops(x, dual, slacks, imposed, cut_value, it=0):
    """Reference for `slackness_violation`: the edge and set loops that
    checked complementary slackness in `verify_trace`, verbatim, with the
    witness they record first, or None."""
    report = VerifyReport()
    for e, slack in enumerate(slacks):
        if slack < ZERO:
            report.record("complementary_slackness", False, {"iteration": it, "edge": e, "reason": "dual infeasible"})
            break
        if x[e] != ZERO and slack != ZERO:
            report.record("complementary_slackness", False, {"iteration": it, "edge": e, "reason": "support edge slack"})
            break
    for s in imposed:
        if dual.of_set(s) < ZERO:
            report.record("complementary_slackness", False, {"iteration": it, "set": sorted(s), "reason": "negative cut dual"})
        elif dual.of_set(s) > ZERO and cut_value[s] != ONE:
            report.record("complementary_slackness", False, {"iteration": it, "set": sorted(s), "reason": "positive dual, slack cut"})
    checked = report.checks.get("complementary_slackness")
    return None if checked is None else checked[1]


@settings(max_examples=400, deadline=None)
@given(certificates())
def test_shared_certificate_checks_match_references(case):
    g, x, dual, costs, imposed = case
    cut_value = dict(zip(imposed, cut_values(x, map(g.delta, imposed))))
    rat_sums = {s: sum((x[e] for e in g.delta(s)), ZERO) for s in imposed}
    assert cut_value == rat_sums
    slacks = dual.slacks(g, costs)
    assert slacks == per_edge_slacks(dual, g, costs)
    got = slackness_violation(x, dual, slacks, cut_value)
    want = verify_trace_slackness_loops(x, dual, slacks, imposed, rat_sums)
    assert (None if got is None else {"iteration": 0, **got}) == want
