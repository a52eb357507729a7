"""Property test over small multigraphs: every solver route finds the
brute-force optimum, or reports no perfect matching exactly when there is
none, and every trace it writes replays clean."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmatch import brute_force_mcpm, make_graph, run, verify_trace
from cpmatch.driver import SOLVER_CHOICES
from cpmatch.errors import NoPerfectMatching
from cpmatch.rational import Rat


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
