"""Shared instance builders for the test suite."""

from cpmatch import make_graph


def telescope(stages=3, gadgets=2, bridge=100):
    """Gadget family that keeps odd cycles alive for `stages` rounds.

    Each gadget is a triangle wrapped in successively larger odd cycles with
    tiered closure costs, so the optimum walks triangle -> pentagon ->
     7-cycle -> ... before the bridge forces integrality.  Gadgets are paired
    by expensive bridges; `gadgets` must be even.
    """
    per = 2 * stages + 1
    edges = []
    for gi in range(gadgets):
        off = gi * per

        def a(i, off=off):
            return i + off

        edges += [(a(1), a(2), 0), (a(2), a(3), 0), (a(1), a(3), 0)]
        for j in range(2, stages + 1):
            u, v = 2 * j, 2 * j + 1
            edges += [(a(u - 1), a(u), j), (a(u), a(v), 0), (a(v), a(1), j)]
    for gi in range(0, gadgets, 2):
        edges.append((gi * per + 1, (gi + 1) * per + 1, bridge))
    return make_graph(per * gadgets, edges)


def four_triangles():
    """Four disjoint triangles (n = 12): a fractional perfect matching but no
    perfect matching.  Triangle t costs (t, 0, 1)."""
    edges = []
    for t in range(4):
        a, b, c = 3 * t + 1, 3 * t + 2, 3 * t + 3
        edges += [(a, b, t), (b, c, 0), (a, c, 1)]
    return make_graph(12, edges)


# Random instances with at least three relaxation solves, found by search
# and pinned: (n, density, cost_hi, seed).
MULTI_ROUND_RANDOM = [
    (16, 0.28, 1, 4752199),
    (14, 0.20, 1, 904011),
    (16, 0.16, 1, 905677),
    (16, 0.28, 1, 906833),
    (16, 0.32, 1, 907218),
    (16, 0.26, 1, 1745724),
    (16, 0.30, 2, 2062489),
    (16, 0.22, 2, 2141671),
    (14, 0.22, 1, 2648460),
    (16, 0.30, 2, 2949417),
    (14, 0.30, 2, 3012743),
    (14, 0.22, 1, 4018447),
    (14, 0.26, 1, 4271859),
    (16, 0.26, 1, 4588645),
]
