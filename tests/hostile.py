"""A hostile instance and trace for `verify`'s positively_critical check.

The tight graph inside the cut S is a complete bipartite K_{k+1,k} on all
2k+1 nodes of S.  S is not factor-critical: removing a node of the small
side leaves k+1 nodes facing k - 1.  A backtracking critical-matching
search has to try every partial matching before it says so, about 10x more
work per k; the blossom search answers at once.

Write the pair for k = 30 to two files:

    PYTHONPATH=src python tests/hostile.py 30 hostile.txt hostile.trace

`cpmatch verify --instance hostile.txt --trace hostile.trace` must then print
`FAIL positively_critical` and exit 1.
"""

from __future__ import annotations

import json
import sys

from cpmatch import make_graph, write_instance
from cpmatch.driver import trace_header
from cpmatch.rational import Rat, format_rat, perturb


def complete_bipartite(k: int):
    """(g, S): K_{k+1,k} at zero cost on S = 1..2k+1, small side 1..k,
    and a tail 2k+2, 2k+3, 2k+4 that gives g a perfect matching."""
    edges = [(a, b, 0) for a in range(1, k + 1) for b in range(k + 1, 2 * k + 2)]
    edges += [(2 * k + 1, 2 * k + 2, 1), (2 * k + 2, 2 * k + 3, 1), (2 * k + 3, 2 * k + 4, 1)]
    return make_graph(2 * k + 4, edges), frozenset(range(1, 2 * k + 2))


def hostile_trace(g, s) -> list:
    """One record that imposes the cut S with dual 1 and makes every edge
    inside S tight under the perturbed costs.

    Node duals alone cannot: they never make an even cycle tight, as the
    perturbation terms are distinct powers of two.  So each edge e = ab
    inside S adds p_e/2 to the duals of a and b and -p_e/2 to the pair set
    {a, b}; delta(a) + delta(b) - delta({a, b}) is twice e's own indicator,
    so e's slack drops by exactly its perturbed cost p_e and no other slack
    moves.  The record fails other checks too; it needs only to parse.
    """
    costs = perturb([int(c) for _u, _v, c in g.edges]).scaled
    nodes = {u: Rat(0) for u in range(1, g.n + 1)}
    pairs = []
    for e, (a, b, _c) in enumerate(g.edges):
        if a in s and b in s:
            half = Rat(costs[e], 2)
            nodes[a] += half
            nodes[b] += half
            pairs.append([[a, b], format_rat(-half)])
    record = {
        "iteration": 0,
        "cuts_imposed": [sorted(s)],
        "primal": ["0"] * g.m,
        "dual_nodes": {str(u): format_rat(v) for u, v in nodes.items()},
        "dual_sets": [[sorted(s), "1"]] + pairs,
        "odd_cycle_count": 0,
        "cuts_retained": [],
        "cuts_added": [],
        "objective_scaled": "0",
    }
    return [json.dumps(trace_header(g), sort_keys=True), json.dumps(record, sort_keys=True)]


def write_hostile(k: int, instance_path, trace_path) -> None:
    g, s = complete_bipartite(k)
    with open(instance_path, "w") as fh:
        fh.write(write_instance(g))
    with open(trace_path, "w") as fh:
        fh.write("\n".join(hostile_trace(g, s)) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: hostile.py K INSTANCE TRACE")
    write_hostile(int(sys.argv[1]), sys.argv[2], sys.argv[3])
