"""The critical-matching finder against the backtracking reference.

On random multigraphs with parallel edges, tight and non-tight edges, and
nested and disjoint inner families, `CriticalMatchingFinder` and the
reference search in `reference_finder.py` agree, for every node u of s, on
whether a critical matching of (s, u) exists, and on factor-criticality.
Every matching the finder returns is checked on its own; matchings are not
compared for identity.  A tight K_{k+1,k}, exponential for the reference,
is answered at once.
"""

import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from cpmatch import make_graph
from cpmatch.combinatorial import CriticalMatchingFinder, is_factor_critical
from cpmatch.rational import ONE, Rat, ZERO
from hostile import complete_bipartite
from reference_finder import BacktrackingFinder, reference_is_factor_critical


@st.composite
def finder_inputs(draw):
    """(g, s, family, slacks): s is nodes 1..k, k odd in 3..11, in a graph
    with up to two more nodes.  Edges are drawn between random pairs, with
    repeats, so parallel edges are common; about two in three are tight.
    The family is a laminar set of odd intervals of a shuffled s, nested
    and disjoint, sometimes with s itself."""
    k = draw(st.sampled_from([3, 5, 5, 7, 7, 9, 9, 11]))
    n = k + draw(st.integers(0, 2))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, min_size=k - 1, max_size=3 * k))
    g = make_graph(n, [(a, b, 0) for a, b in pairs])
    slack = st.sampled_from([ZERO, ZERO, ZERO, ZERO, ONE, Rat(1, 2)])
    slacks = [draw(slack) for _e in range(g.m)]
    order = draw(st.permutations(range(1, k + 1)))
    family = []
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.sampled_from([i for i in range(3, k, 2)] or [k]))
        start = draw(st.integers(0, k - size))
        t = frozenset(order[start : start + size])
        if all(t < r or r < t or not t & r for r in family):
            family.append(t)
    s = frozenset(range(1, k + 1))
    if draw(st.booleans()):
        family.append(s)
    return g, s, family, slacks


def check_matching(g, s, u, family, slacks, m):
    """m is tight, lies inside s, covers s minus u exactly once, and
    crosses each family set strictly inside s at most once."""
    covered = [x for e in m for x in g.endpoints(e)]
    assert sorted(covered) == sorted(s - {u})
    assert all(slacks[e] == ZERO for e in m)
    for t in family:
        if t < s:
            assert sum((a in t) != (b in t) for a, b in map(g.endpoints, m)) <= 1, sorted(t)


@settings(max_examples=400, deadline=None)
@given(finder_inputs(), st.booleans())
def test_finder_agrees_with_reference(inputs, factor_critical_first):
    g, s, family, slacks = inputs
    finder = CriticalMatchingFinder(g, family, slacks)
    reference = BacktrackingFinder(g, family, slacks)
    if factor_critical_first:
        assert is_factor_critical(finder, s) == reference_is_factor_critical(reference, s)
    for u in sorted(s):
        m = finder.critical_matching(s, u)
        assert (m is None) == (reference.critical_matching(s, u) is None), u
        if m is not None:
            check_matching(g, s, u, family, slacks, m)
    assert is_factor_critical(finder, s) == reference_is_factor_critical(reference, s)
    for t in family:
        assert is_factor_critical(finder, t) == reference_is_factor_critical(reference, t)


def test_usable_entry_node_rule():
    # s = {1..5} with the family set t = {1, 2, 3}, where only 1 is good in
    # t: (t, 1) has the tight edge (2, 3), but 2 and 3 meet no tight edge
    # inside t but that one.  An edge entering t at 2 is then unusable, so
    # (s, 5) has no critical matching although H_s has a perfect matching.
    g = make_graph(5, [(2, 3, 0), (2, 4, 0), (1, 5, 0), (4, 5, 0)])
    t, s = frozenset({1, 2, 3}), frozenset(range(1, 6))
    finder = CriticalMatchingFinder(g, [t], [ZERO] * g.m)
    reference = BacktrackingFinder(g, [t], [ZERO] * g.m)
    for u in sorted(s):
        assert (finder.critical_matching(s, u) is None) == (
            reference.critical_matching(s, u) is None
        ), u
    assert finder.critical_matching(s, 5) is None
    assert finder.critical_matching(t, 1) == [0]


def test_deep_family_needs_no_recursion():
    # a chain of 300 nested odd sets around a path, decided with the
    # recursion limit 50 frames above the caller's depth: a recursion that
    # grows with the family depth fails here
    n = 603
    g = make_graph(n, [(v, v + 1, 0) for v in range(1, n)])
    family = [frozenset(range(301 - i, 302 + i)) for i in range(1, 301)]
    finder = CriticalMatchingFinder(g, family, [ZERO] * g.m)
    s = family[-1]
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        m = finder.critical_matching(s, 1)
        critical = is_factor_critical(finder, s)
    finally:
        sys.setrecursionlimit(limit)
    assert m is not None and len(m) == len(s) // 2
    assert not critical


def test_tight_complete_bipartite_answers_at_once():
    # u on the small side of a tight K_{31,30}: no critical matching, and
    # the reference would try every partial matching first
    g, s = complete_bipartite(30)
    start = time.perf_counter()
    finder = CriticalMatchingFinder(g, [], [ZERO] * g.m)
    assert finder.critical_matching(s, 1) is None
    assert not is_factor_critical(finder, s)
    assert time.perf_counter() - start < 1.0
    # a node of the big side leaves a perfect matching of the rest
    m = finder.critical_matching(s, 31)
    assert m is not None
    check_matching(g, s, 31, [], [ZERO] * g.m, m)
