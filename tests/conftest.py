import os
from pathlib import Path
from unittest import mock

import pytest

import cpmatch
from cpmatch import DualSolution, LaminarFamily, make_graph, solve_primal
from cpmatch import lp as lp_mod
from cpmatch.rational import perturb

# Subprocesses the tests start (`python -m cpmatch`, `python -O`) import
# cpmatch from the same place as this session, installed or not.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(cpmatch.__file__).parent.parent), os.environ.get("PYTHONPATH")])
)

# Canonical instance used across the suite: two zero-cost triangles joined
# by a cost-10 bridge.  Unique perfect matching {(1,2),(5,6),(3,4)}, base
# cost 10; the bipartite relaxation optimum is both triangles at 1/2.
BOWTIE_EDGES = [
    (1, 2, 0),
    (1, 3, 0),
    (2, 3, 0),
    (4, 5, 0),
    (4, 6, 0),
    (5, 6, 0),
    (3, 4, 10),
]

TRIANGLE_LEFT = frozenset({1, 2, 3})
TRIANGLE_RIGHT = frozenset({4, 5, 6})


@pytest.fixture
def bowtie():
    return make_graph(6, BOWTIE_EDGES)


@pytest.fixture
def bowtie_perturbed(bowtie):
    return perturb([c for _u, _v, c in bowtie.edges])


@pytest.fixture
def bowtie_family(bowtie):
    return LaminarFamily(bowtie.n, [TRIANGLE_LEFT, TRIANGLE_RIGHT])


SIX_CYCLE_EDGES = [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 1, 1)]


@pytest.fixture
def six_cycle():
    return make_graph(6, SIX_CYCLE_EDGES)


def per_edge_slacks(dual, g, costs):
    """Reference for `DualSolution.slacks`: for each edge, its cost minus the
    duals of its ends and of every set key it crosses, found by walking every
    key of the dual."""
    out = []
    for e, (u, v, _c) in enumerate(g.edges):
        load = dual.node(u) + dual.node(v)
        for key, val in dual.items():
            if isinstance(key, frozenset) and (u in key) != (v in key):
                load += val
        out.append(costs[e] - load)
    return out


def solve_primal_with_basis_dual(g, costs, fam, warm=None):
    """`solve_primal`'s (x, dual, objective) with the basis dual of its
    final tableau for every x, certified: solve_primal recovers and
    certifies that dual itself only for an integral x, and returns None for
    any other.  Then the dual is read from the solve's `SimplexResult`, one
    value per row in row order, each node's raised by the cost shift y0 the
    solve lowered it by (see `solve_primal`), and `certify_optimum` checks
    x and it."""
    results = []
    real = lp_mod.simplex_solve

    def recorded(lp, start=None):
        results.append(real(lp, start))
        return results[-1]

    with mock.patch.object(lp_mod, "simplex_solve", recorded):
        x, dual, obj = solve_primal(g, costs, fam, warm)
    if dual is None:
        sets = fam.sets if warm is None else warm.sets
        y0 = int(min(0, *costs) // 2)
        dual = DualSolution(zip([*range(1, g.n + 1), *sets], results[-1].duals))
        dual.update((u, dual[u] + y0) for u in range(1, g.n + 1))
        lp_mod.certify_optimum(g, costs, fam.sets, x, obj, dual)
    return x, dual, obj


def verify_line(report, name):
    """The one line verify prints for check `name`."""
    (line,) = [line for line in report.lines() if line.split()[1] == name]
    return line


def assert_positively_critical(report, res):
    """`positively_critical` ran and passed on the run's trace when a record
    carries an extremal dual.  Only a run whose first relaxation optimum is
    already a matching records none: one record with the basis dual, on
    which verify prints SKIP."""
    if any(rec.dual_kind == "extremal" for rec in res.records):
        assert verify_line(report, "positively_critical") == "PASS positively_critical"
    else:
        assert len(res.records) == 1
        assert verify_line(report, "positively_critical") == "SKIP positively_critical reason=no extremal dual"


def dual_feasible(dual, g, costs, nonneg_sets):
    """No edge has negative slack and no set of nonneg_sets a negative dual."""
    return all(dual.of_set(s) >= 0 for s in nonneg_sets) and all(
        slack >= 0 for slack in dual.slacks(g, costs)
    )
