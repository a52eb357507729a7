"""Property tests over small multigraphs: every solver route finds the
brute-force optimum, or reports no perfect matching exactly when there is
none, and every trace it writes replays clean; the shared certificate
checks, `graph.cut_values`, `graph.cost_value` and
`lp.slackness_violation`, agree with references the tests hold; and on
random laminar families, `LaminarFamily`'s tops and children agree with a
reference, and on random set lists `LaminarFamily` with the pairwise check;
and the new cuts `driver.select_new_cuts` returns are pairwise disjoint; and
the greedy start of the bipartite relaxation is a valid configuration from
which the procedure reaches the simplex optimum, or stalls exactly when the
relaxation is infeasible; and a critical-matching finder started from an
earlier finder, after slack and family changes, answers as a fresh one."""

import math

import pytest
from conftest import per_edge_slacks
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpmatch import LaminarFamily, brute_force_mcpm, make_graph, run, verify_trace
from cpmatch.combinatorial import (
    CriticalMatchingFinder,
    greedy_start,
    is_factor_critical,
    solve_bipartite_via_procedure,
    validate_configuration,
)
from cpmatch.driver import SOLVER_CHOICES, select_new_cuts
from cpmatch.errors import LPInfeasible, NoPerfectMatching, StalledNoEpsilon, StructureViolation
from cpmatch.graph import cost_value, cut_values, decompose_support
from cpmatch.laminar import sorted_sets
from cpmatch.lp import DualSolution, slackness_violation, solve_primal
from cpmatch.rational import ONE, Rat, ZERO, perturb


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
    so that each edge's slack under the dual is 0, 1 or -1/2.  The costs
    and the dual are then scaled by the lcm of the costs' denominators, so
    the costs are ints and each slack keeps its sign."""
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
    scale = math.lcm(*(int(c.denominator) for c in costs))
    dual = DualSolution({key: val * scale for key, val in dual.items()})
    return g, x, dual, [int(c * scale) for c in costs], imposed


def verify_trace_slackness_loops(x, dual, slacks, imposed, cut_value, it=0):
    """Reference for `slackness_violation`: the edge and set loops that
    checked complementary slackness in `verify_trace`, verbatim, with the
    witness they record first, or None."""
    witnesses = []
    for e, slack in enumerate(slacks):
        if slack < ZERO:
            witnesses.append({"iteration": it, "edge": e, "reason": "dual infeasible"})
            break
        if x[e] != ZERO and slack != ZERO:
            witnesses.append({"iteration": it, "edge": e, "reason": "support edge slack"})
            break
    for s in imposed:
        if dual.of_set(s) < ZERO:
            witnesses.append({"iteration": it, "set": sorted(s), "reason": "negative cut dual"})
        elif dual.of_set(s) > ZERO and cut_value[s] != ONE:
            witnesses.append({"iteration": it, "set": sorted(s), "reason": "positive dual, slack cut"})
    return witnesses[0] if witnesses else None


@settings(max_examples=400, deadline=None)
@given(certificates())
def test_shared_certificate_checks_match_references(case):
    g, x, dual, costs, imposed = case
    cut_value = dict(zip(imposed, cut_values(x, map(g.delta, imposed))))
    rat_sums = {s: sum((x[e] for e in g.delta(s)), ZERO) for s in imposed}
    assert cut_value == rat_sums
    assert cost_value(x, costs) == sum((c * v for c, v in zip(costs, x)), ZERO)
    slacks = dual.slacks(g, costs)
    assert all(type(slack) is int for slack in slacks)
    rat_slacks = [Rat(slack, slacks.unit) for slack in slacks]
    assert rat_slacks == per_edge_slacks(dual, g, costs)
    got = slackness_violation(x, dual, slacks, cut_value)
    want = verify_trace_slackness_loops(x, dual, rat_slacks, imposed, rat_sums)
    assert (None if got is None else {"iteration": 0, **got}) == want


@st.composite
def laminar_sets(draw, n, candidates=None):
    """The sets of a laminar family of odd sets over nodes 1..n: candidate
    sets (by default random ones), each kept when the family stays valid
    with it."""
    kept = []
    if candidates is None:
        candidates = st.frozensets(st.integers(1, n), min_size=3, max_size=max(3, n - 3))
    for s in draw(st.lists(candidates, max_size=8)):
        if len(s) % 2 == 1 and len(s) <= n - 3:
            try:
                LaminarFamily(n, kept + [s])
            except ValueError:
                continue
            kept.append(s)
    return kept


@settings(max_examples=300, deadline=None)
@given(st.integers(6, 20).flatmap(laminar_sets))
# random draws seldom nest three deep: a chain with two children at its foot
@example([frozenset(s) for s in ({1, 2, 3}, {4, 5, 6}, range(1, 8), range(1, 10), {11, 12, 13})])
def test_tops_and_children_match_reference(sets):
    # in a laminar family every member meeting s contains s or lies in it,
    # so s is maximal exactly when the members meeting s make up s alone;
    # a family drawn for n <= 20 is one for n = 20 too
    fam = LaminarFamily(20, sets)
    reference = [s for s in sets if s == frozenset().union(*(t for t in sets if t & s))]
    assert fam.tops == sorted_sets(reference)
    # the children of s: the members strictly inside s and inside no other
    for s in sets:
        inner = [t for t in sets if t < s]
        children = [t for t in inner if not any(t < r for r in inner)]
        assert sorted_sets(fam.children[s]) == sorted_sets(children)


def pairwise_family(n, sets):
    """Reference for `LaminarFamily`: each set, in `sorted_sets` order,
    checked against every set before it; the outcome is the family's sets
    or the message of the first error."""
    from cpmatch.errors import LaminarityViolation
    from cpmatch.laminar import odd_set

    kept = []
    try:
        for s in sorted_sets(map(frozenset, sets)):
            s = odd_set(s, n)
            for t in kept:
                if s == t:
                    raise LaminarityViolation(f"duplicate set {sorted(s)}")
                if s & t and not (s <= t or t <= s):
                    raise LaminarityViolation(f"{sorted(s)} properly crosses {sorted(t)}")
            kept.append(s)
            if len(kept) > n // 2:
                raise LaminarityViolation(f"family exceeds n/2 = {n // 2} members")
    except ValueError as exc:
        return type(exc), str(exc)
    return kept


@st.composite
def interval_sets(draw):
    """n and up to 8 odd sets over 1..n, each an interval of one shuffled
    node order: two such sets are nested, disjoint, equal or crossing."""
    n = draw(st.integers(6, 14))
    order = draw(st.permutations(range(1, n + 1)))
    sets = []
    for _ in range(draw(st.integers(0, 8))):
        size = draw(st.sampled_from(range(3, n - 2, 2)))
        start = draw(st.integers(0, n - size))
        sets.append(order[start:start + size])
    return n, sets


@settings(max_examples=300, deadline=None)
@given(interval_sets())
def test_family_check_matches_pairwise_reference(case):
    # the one-pass owner check accepts and rejects exactly the families the
    # pairwise check does, with the same first error message
    n, sets = case
    try:
        got = LaminarFamily(n, sets).sets
    except ValueError as exc:
        got = type(exc), str(exc)
    assert got == pairwise_family(n, sets)


@st.composite
def half_integral_supports(draw):
    """(n, decomposition) of a proper-half-integral x on n <= 20 nodes: the
    shuffled nodes are cut into odd cycles at 1/2 and matched pairs at 1,
    leaving a few nodes uncovered, with some extra edges at 0."""
    n = draw(st.integers(6, 20))
    order = draw(st.permutations(range(1, n + 1)))
    edges, x, i = [], [], 0
    while True:
        size = draw(st.sampled_from([2, 3, 3, 5, 7]))
        if i + size > n:
            break
        part = order[i : i + size]
        i += size
        if size == 2:
            edges.append((part[0], part[1], 0))
            x.append(ONE)
        else:
            edges += [(part[k], part[(k + 1) % size], 0) for k in range(size)]
            x += [Rat(1, 2)] * size
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    for u, v in draw(st.lists(pair, max_size=n)):
        edges.append((u, v, 0))
        x.append(ZERO)
    return n, decompose_support(x, make_graph(n, edges))


@st.composite
def supports_and_retained(draw):
    """A support from `half_integral_supports` and a laminar family over its
    nodes.  Most candidate sets take part of one cycle and some nodes off
    the cycles, so several cycles can absorb retained sets in one call; the
    rest are random and may meet two cycles."""
    n, dec = draw(half_integral_supports())
    off_cycles = sorted(set(range(1, n + 1)).difference(*dec.odd_cycles))
    one_cycle = st.sampled_from(dec.odd_cycles or [[]]).flatmap(
        lambda cycle: st.builds(
            frozenset.union,
            st.frozensets(st.sampled_from(cycle)) if cycle else st.just(frozenset()),
            st.frozensets(st.sampled_from(off_cycles)) if off_cycles else st.just(frozenset()),
        )
    )
    anywhere = st.frozensets(st.integers(1, n), min_size=3)
    return n, dec, draw(laminar_sets(n, st.one_of(one_cycle, one_cycle, anywhere)))


@settings(max_examples=300, deadline=None)
@given(supports_and_retained())
def test_new_cuts_are_pairwise_disjoint(case):
    n, dec, retained = case
    try:
        info = select_new_cuts(dec, LaminarFamily(n, retained))
    except StructureViolation:
        return  # a retained set meets two cycles, or a union is even
    hats = [hat for _cycle, _absorbed, hat in info]
    assert len(hats) == dec.o
    for i, a in enumerate(hats):
        for b in hats[i + 1 :]:
            assert not a & b


@st.composite
def bipartite_relaxations(draw):
    """(g, costs): a multigraph on n <= 12 nodes, in about a
    quarter of the draws with isolated nodes, in about two thirds with a
    matching planted on the other nodes; its integer costs are all equal in
    about a third of the draws, and may be negative.
    costs are the perturbed costs."""
    n = draw(st.integers(2, 12))
    isolated = frozenset()
    if draw(st.integers(0, 3)) == 0:
        isolated = draw(st.frozensets(st.integers(1, n), max_size=min(2, n - 2)))
    live = [u for u in range(1, n + 1) if u not in isolated]
    if draw(st.integers(0, 2)) == 0:
        cost = st.just(draw(st.integers(-3, 9)))
    else:
        cost = st.integers(-3, 9)
    edges = []
    if draw(st.integers(0, 2)):
        order = draw(st.permutations(live))
        edges += [(order[i], order[i + 1], draw(cost)) for i in range(0, len(order) - 1, 2)]
    pair = st.tuples(st.sampled_from(live), st.sampled_from(live)).filter(lambda p: p[0] != p[1])
    edges += [(u, v, draw(cost)) for u, v in draw(st.lists(pair, min_size=0 if edges else 1, max_size=3 * n))]
    g = make_graph(n, edges)
    return g, perturb([c for _u, _v, c in g.edges]).scaled


@settings(max_examples=300, deadline=None)
@given(bipartite_relaxations())
def test_greedy_start_is_valid_and_reaches_the_simplex_optimum(case):
    g, costs = case
    start = greedy_start(g, costs)
    validate_configuration(g, costs, start, allow_exposed_nodes=True)
    assert all(v in (ZERO, ONE) for v in start.z)
    try:
        x, _dual, _obj = solve_primal(g, costs, LaminarFamily(g.n))
    except LPInfeasible:
        with pytest.raises(StalledNoEpsilon):
            solve_bipartite_via_procedure(g, costs)
        return
    out, _stats = solve_bipartite_via_procedure(g, costs)
    assert out.z == x


@st.composite
def finder_changes(draw):
    """(g, family, slacks, queried, next_family, next_slacks).  Up to 11
    nodes in a shuffled order, edges along it and between random pairs,
    most of them tight, and three more nodes with no edge, so that the
    largest interval is an odd set of g.  The family is a tree of odd intervals of the
    order, nested and side by side.  `queried` are the sets the earlier
    finder is asked about.  The next family drops about one set in four
    and may add new ones.  The next slacks flip a few edges between
    tight and non-tight, most of them edges that leave a family set inside
    a larger one or join two family sets."""
    n = draw(st.integers(5, 11))
    order = draw(st.permutations(range(1, n + 1)))
    # the square of the path along the order, factor-critical on each odd
    # interval while its edges are tight, and random edges besides
    planted = [(order[i], order[j]) for i in range(n) for j in (i + 1, i + 2) if j < n]
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    extra = draw(st.lists(pair, max_size=n))
    slack = st.sampled_from([ZERO, ZERO, ZERO, ONE, Rat(1, 2)])
    edges = [(a, b, draw(st.sampled_from([ZERO] * 7 + [ONE]))) for a, b in planted]
    edges += [(a, b, draw(slack)) for a, b in extra]
    edges = [edges[i] for i in draw(st.permutations(range(len(edges))))]
    g = make_graph(n + 3, [(a, b, 0) for a, b, _s in edges])
    slacks = [s for _a, _b, s in edges]

    def inside(a, b):
        # odd intervals strictly inside [a, b), side by side, each with its
        # own inner ones: an interval is (first position, end position)
        out, pos = [], a + draw(st.integers(0, 1))
        while True:
            sizes = range(3, min(b - pos, b - a - 2) + 1, 2)
            if not sizes or not draw(st.integers(0, 5)):
                return out
            size = draw(st.sampled_from(sizes))
            out += [(pos, pos + size)] + inside(pos, pos + size)
            pos += size + draw(st.integers(0, 1))

    def add_intervals(family, count):
        for _ in range(count):
            size = draw(st.sampled_from(range(3, n + 1, 2)))
            a = draw(st.integers(0, n - size))
            b = a + size
            if all(a <= c and d <= b or c <= a and b <= d or b <= c or d <= a
                   for c, d in family) and (a, b) not in family:
                family.append((a, b))
        return family

    # the largest odd interval, and its inner ones, sometimes without it
    size = n - 1 + n % 2
    a = draw(st.integers(0, n - size))
    intervals = [(a, a + size)] + inside(a, a + size)
    if draw(st.booleans()):
        intervals.pop(0)
    queried = [t for t in intervals if draw(st.integers(0, 3))]
    kept = [t for t in intervals if draw(st.integers(0, 3))]
    next_intervals = add_intervals(kept, draw(st.integers(0, 2)))
    family, queried, next_family = (
        [frozenset(order[a:b]) for a, b in sets] for sets in (intervals, queried, next_intervals)
    )
    # edges that leave a family set inside a larger one, and edges between
    # two disjoint family sets, which a parent reads from their boundaries
    inner = sorted({e for t in family for r in family if t < r
                    for e in g.delta(t) if set(g.endpoints(e)) <= r})
    between = [e for e, (u, v, _c) in enumerate(g.edges)
               if any(u in t and v in r for t in family for r in family if not t & r)]
    flipped = draw(st.sets(st.integers(0, g.m - 1), max_size=1))
    for edges in (inner, between):
        if edges:
            flipped |= draw(st.sets(st.sampled_from(edges), max_size=3))
    other = st.sampled_from([ONE, Rat(1, 2)])
    next_slacks = [
        (ZERO if v else draw(other)) if e in flipped else v for e, v in enumerate(slacks)
    ]
    return g, family, slacks, queried, next_family, next_slacks


# The tight triangles C = {1, 2, 3} and D = {4, 5, 6} inside P = {1..7},
# with 1-7 and 6-7 tight.  The edge 3-4 between C and D turns tight: C and
# D are taken over, and P, decided again, reads 3-4 from C's boundary.
# Nodes 8-10 have no edge.
_C, _D, _P = frozenset({1, 2, 3}), frozenset({4, 5, 6}), frozenset(range(1, 8))
_STALE_BOUNDARY = (
    make_graph(10, [(1, 2, 0), (2, 3, 0), (1, 3, 0), (4, 5, 0), (5, 6, 0), (4, 6, 0),
                   (3, 4, 0), (1, 7, 0), (6, 7, 0)]),
    [_C, _D, _P], [ZERO] * 6 + [ONE, ZERO, ZERO], [_P], [_C, _D, _P], [ZERO] * 9,
)


@settings(max_examples=400, deadline=None)
@given(finder_changes())
@example(_STALE_BOUNDARY)
def test_carried_finder_answers_as_a_fresh_one(case):
    g, family, slacks, queried, next_family, next_slacks = case
    earlier = CriticalMatchingFinder(g, LaminarFamily(g.n, family), slacks)
    for s in queried:
        is_factor_critical(earlier, s)
    next_fam = LaminarFamily(g.n, next_family)
    carried = CriticalMatchingFinder(g, next_fam, next_slacks, previous=earlier)
    fresh = CriticalMatchingFinder(g, next_fam, next_slacks)
    for s in next_family:
        assert is_factor_critical(carried, s) == is_factor_critical(fresh, s)
        for u in sorted(s):
            assert carried.critical_matching(s, u) == fresh.critical_matching(s, u)
        # the tight edges leaving s, which a parent decided again reads
        assert sorted(carried._decided[s].boundary) == sorted(fresh._decided[s].boundary)
