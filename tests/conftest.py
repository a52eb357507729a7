import os
from pathlib import Path

import pytest

import cpmatch
from cpmatch import LaminarFamily, make_graph
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
