"""Seeded instance lists for the four benchmark workloads.

The generators live here, not in `cpmatch`, so the solver receives only the
instance text: `cpmatch.oracle.random_instance` refuses n > 16, and a later
change to the package cannot quietly re-pick the ladder.  Every instance is
a pure function of the workload seed, and its reference optimum, where one
is known in closed form, comes from the construction rather than a solver.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One generated graph: 1-based nodes, edges as (u, v, cost) in file order."""

    label: str
    n: int
    edges: tuple
    # Optimum base cost known from the construction; None means the
    # benchmark prepares it with the brute-force oracle (n <= 16 only).
    reference: int | None
    # Expected relaxation solves where the construction fixes them, else None.
    lp_solves: int | None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def text(self) -> str:
        """The `p edge` / `e u v c` instance format that `cpmatch solve` reads."""
        lines = [f"p edge {self.n} {self.m}"]
        lines.extend(f"e {u} {v} {c}" for u, v, c in self.edges)
        return "\n".join(lines) + "\n"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    @property
    def cost_bits(self) -> int:
        """Largest bit length of a perturbed cost (c << m) + 2^(m-1-i)."""
        m = self.m
        return max(((c << m) + (1 << (m - 1 - i))).bit_length()
                   for i, (_u, _v, c) in enumerate(self.edges))


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str
    why: str
    build: object  # seed -> list[Instance]


def _relabel(n: int, edges: list, rng: random.Random) -> tuple:
    """Rename nodes by a random permutation; edge order, and so the cost
    perturbation, is unchanged."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple((perm[u - 1], perm[v - 1], c) for u, v, c in edges)


def telescope_edges(stages: int, gadgets: int, bridge: int = 100) -> tuple:
    """(n, edges) of the nested-odd-cycle gadget family from the test suite.

    Each gadget is a triangle wrapped in successively larger odd cycles with
    tiered closure costs; gadgets are paired by bridges of cost `bridge`.
    Every gadget has an odd node count, so each needs its bridge, and the
    rest of the gadget is matched by its cost-0 spokes: the optimum is
    bridge * gadgets / 2, reached after stages + 1 relaxation solves.
    """
    if gadgets % 2:
        raise ValueError("gadgets must be even")
    per = 2 * stages + 1
    edges = []
    for gi in range(gadgets):
        off = gi * per
        edges += [(off + 1, off + 2, 0), (off + 2, off + 3, 0), (off + 1, off + 3, 0)]
        for j in range(2, stages + 1):
            u, v = 2 * j, 2 * j + 1
            edges += [(off + u - 1, off + u, j), (off + u, off + v, 0), (off + v, off + 1, j)]
    for gi in range(0, gadgets, 2):
        edges.append((gi * per + 1, (gi + 1) * per + 1, bridge))
    return per * gadgets, edges


# (stages, gadgets, copies): 30 instances, n from 14 to 50, 3 to 7 solves.
# Each copy is its own relabelling, so the seed varies row order (and
# Bland's tie-breaks) while the optimum and the number of relaxation solves
# stay fixed.  Eleven sizes whose solve times climb evenly, rather than a
# few large graphs, keep the median and tail from falling into a gap
# between sizes, so they stay steady from seed to seed.
TELESCOPE_LADDER = [
    (3, 2, 3), (4, 2, 3), (2, 4, 3), (5, 2, 3), (6, 2, 3), (3, 4, 3),
    (2, 6, 3), (4, 4, 2), (2, 8, 3), (3, 6, 2), (2, 10, 2),
]


def telescope_ladder(seed: int) -> list:
    out = []
    for stages, gadgets, copies in TELESCOPE_LADDER:
        n, edges = telescope_edges(stages, gadgets)
        for k in range(copies):
            rng = random.Random(_mix(seed, stages, gadgets, k))
            out.append(Instance(
                label=f"telescope-{stages}x{gadgets}#{k}",
                n=n,
                edges=_relabel(n, edges, rng),
                reference=100 * gadgets // 2,
                lp_solves=stages + 1,
            ))
    return out


def dense_planted(n: int, rng: random.Random, p: float = 0.5) -> tuple:
    """(edges, optimum) of a dense graph whose planted perfect matching is
    the unique optimum of the first relaxation.

    Node potentials y in 0..49 make every planted edge tight (cost y_u + y_v)
    and every other edge at least 2 above y_u + y_v, within costs 0..100.
    A vertex of the bipartite relaxation other than the planted matching
    puts at least 1/2 on a non-planted edge, so it costs at least 1 more
    than sum(y); the perturbation adds less than 1 in total.  The solver
    therefore stops after one relaxation solve, and the optimum is sum(y).
    """
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    mate = {}
    for i in range(0, n, 2):
        mate[perm[i]], mate[perm[i + 1]] = perm[i + 1], perm[i]
    y = {u: rng.randint(0, 49) for u in range(1, n + 1)}
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if mate[u] == v:
                edges.append((u, v, y[u] + y[v]))
            elif rng.random() < p:
                edges.append((u, v, rng.randint(y[u] + y[v] + 2, 100)))
    return tuple(edges), sum(y.values())


# (n, copies) of the dense workload: one size (m ~ 100), so the median
# and tail of 32 graphs stay steady from seed to seed.
DENSE_LADDER = [(20, 32)]


def dense_ladder(seed: int) -> list:
    out = []
    for n, copies in DENSE_LADDER:
        for k in range(copies):
            edges, optimum = dense_planted(n, random.Random(_mix(seed, n, k)))
            out.append(Instance(f"dense-{n}#{k}", n, edges, optimum, 1))
    return out


def _has_perfect_matching(n: int, edges) -> bool:
    adj = {u: set() for u in range(1, n + 1)}
    for u, v, _c in edges:
        adj[u].add(v)
        adj[v].add(u)
    memo = {0: True}

    def feasible(mask):
        if mask not in memo:
            u = (mask & -mask).bit_length()
            rest = mask & ~(1 << (u - 1))
            memo[mask] = any(
                rest >> (v - 1) & 1 and feasible(rest & ~(1 << (v - 1)))
                for v in adj[u]
            )
        return memo[mask]

    return feasible((1 << n) - 1)


def random_draw(n: int, p: float, cost_hi: int, seed: int, max_attempts: int = 200) -> tuple:
    """Edges of the draw `cpmatch.oracle.random_instance(n, p, (0, cost_hi), seed)`
    makes: pairs in lexicographic order, kept with probability p, uniform
    costs, redrawn until a perfect matching exists."""
    rng = random.Random(seed)
    for _attempt in range(max_attempts):
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < p:
                    edges.append((u, v, rng.randint(0, cost_hi)))
        if edges and _has_perfect_matching(n, edges):
            return tuple(edges)
    raise RuntimeError(f"no feasible draw for n={n} p={p} seed={seed}")


# Pinned instances with at least three relaxation solves, (n, p, cost_hi,
# seed), copied from the test suite's MULTI_ROUND_RANDOM.
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

# Seeded draws per (n, density), costs 0..9: the sparser the draw, the
# larger n, so all three densities take about as long to solve, and the
# pinned instances above form the tail.  Draws this small leave time for
# two or more timings of every instance in a run.
SMALL_CLASSES = ((14, 0.25), (12, 0.4), (10, 0.6))
SMALL_COPIES = 30


def small_replay(seed: int) -> list:
    out = [
        Instance(f"pinned-{n}-{seed_}", n, random_draw(n, p, hi, seed_), None, None)
        for n, p, hi, seed_ in MULTI_ROUND_RANDOM
    ]
    for n, p in SMALL_CLASSES:
        for k in range(SMALL_COPIES):
            edges = random_draw(n, p, 9, _mix(seed, n, int(p * 100), k))
            out.append(Instance(f"small-{n}-p{p}#{k}", n, edges, None, None))
    return out


def _mix(*parts: int) -> int:
    """A stable integer seed from the workload seed and an instance's position."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "telescope-simplex", "simplex",
            "nested cut chains, stages+1 primal and extremal-dual LPs per solve; "
            "tableau kernel, warm starts and cut selection show here",
            telescope_ladder,
        ),
        Workload(
            "telescope-combinatorial", "combinatorial",
            "same ladder on the half-integral procedure; the primal simplex is "
            "bypassed, the extremal-dual LP and contraction carry the time",
            telescope_ladder,
        ),
        Workload(
            "dense-oneshot", "simplex",
            "dense planted graphs solved by one wide primal tableau with m-bit "
            "costs; the loop, laminar family and extremal dual stay idle",
            dense_ladder,
        ),
        Workload(
            "small-replay", "cross-check",
            "many n<=16 graphs on both routes, every trace replayed with the "
            "brute-force oracle; per-call fixed costs and verify dominate",
            small_replay,
        ),
    ]
}
