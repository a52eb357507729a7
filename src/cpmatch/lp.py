"""Exact rational simplex plus builders for the matching LPs.

The solver is a dense two-phase tableau simplex with Bland's least-index
anti-cycling rule, run entirely over exact rationals.  Duals are read off the
final reduced costs of the identity-forming columns, so strong duality and
complementary slackness hold exactly on every solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import LPInfeasible, LPUnbounded, StructureViolation
from .graph import Graph
from .laminar import LaminarFamily, sorted_sets
from .rational import ONE, Rat, ZERO


@dataclass
class LinearProgram:
    """Minimization LP: one variable per add_var, rows are <=, >= or =."""

    objective: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # (coefs: dict[var, Rat], rel, rhs)

    def add_var(self, obj_coef) -> int:
        self.objective.append(Rat(obj_coef))
        return len(self.objective) - 1

    def add_row(self, coefs: dict, rel: str, rhs):
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"bad relation {rel!r}")
        self.rows.append(({k: Rat(v) for k, v in coefs.items()}, rel, Rat(rhs)))

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass
class SimplexResult:
    x: list
    duals: list  # one per input row, sign matching the original relation
    objective: object
    pivots: int


def _pivot(rows, rhs, rc, basis, r, c):
    piv = rows[r][c]
    if piv != ONE:
        inv = ONE / piv
        rows[r] = [a * inv for a in rows[r]]
        rhs[r] = rhs[r] * inv
    row_r = rows[r]
    rhs_r = rhs[r]
    for k in range(len(rows)):
        if k == r:
            continue
        f = rows[k][c]
        if f == ZERO:
            continue
        row_k = rows[k]
        rows[k] = [a - f * b if b else a for a, b in zip(row_k, row_r)]
        rhs[k] -= f * rhs_r
    f = rc[c]
    if f != ZERO:
        for j, b in enumerate(row_r):
            if b:
                rc[j] -= f * b
    basis[r] = c


def _bland_loop(rows, rhs, rc, basis, allowed, pivots_box, limit=100_000):
    nrows = len(rows)
    while True:
        enter = -1
        for j in allowed:
            if rc[j] < ZERO:
                enter = j
                break
        if enter < 0:
            return True  # optimal
        best = None
        for r in range(nrows):
            a = rows[r][enter]
            if a > ZERO:
                ratio = rhs[r] / a
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[r] < basis[best[1]]
                ):
                    best = (ratio, r)
        if best is None:
            return False  # unbounded in the entering direction
        _pivot(rows, rhs, rc, basis, best[1], enter)
        pivots_box[0] += 1
        if pivots_box[0] > limit:
            raise RuntimeError("pivot limit exceeded")


def format_lp(lp: LinearProgram) -> str:
    """Debug text form of a program: objective row, then one row per line."""
    lines = ["min " + " ".join(str(c) for c in lp.objective)]
    for coefs, rel, rhs in lp.rows:
        dense = [str(coefs.get(j, ZERO)) for j in range(lp.num_vars)]
        lines.append(" ".join(dense) + f" {rel} {rhs}")
    return "\n".join(lines)


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Solve min c.x st rows, x >= 0.  Raises LPInfeasible / LPUnbounded."""
    nstruct = lp.num_vars
    nrows = lp.num_rows

    # Normalize to equality form with rhs >= 0: flip <=/>= rows with
    # negative rhs, then add a slack (+1, <=) or surplus (-1, >=) column.
    norm = []
    flip = []
    for coefs, rel, rhs in lp.rows:
        if rhs < ZERO:
            coefs = {k: -v for k, v in coefs.items()}
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            flip.append(-1)
        else:
            flip.append(1)
        norm.append((coefs, rel, rhs))

    aux_col = {}
    ncols = nstruct
    for i, (_c, rel, _r) in enumerate(norm):
        if rel in ("<=", ">="):
            aux_col[i] = ncols
            ncols += 1
    art_col = {}
    for i, (_c, rel, _r) in enumerate(norm):
        if rel in (">=", "="):
            art_col[i] = ncols
            ncols += 1

    rows = []
    rhs = []
    basis = []
    ident_col = []
    for i, (coefs, rel, r) in enumerate(norm):
        row = [ZERO] * ncols
        for k, v in coefs.items():
            row[k] = v
        if rel == "<=":
            row[aux_col[i]] = ONE
            basis.append(aux_col[i])
            ident_col.append(aux_col[i])
        elif rel == ">=":
            row[aux_col[i]] = -ONE
            row[art_col[i]] = ONE
            basis.append(art_col[i])
            ident_col.append(art_col[i])
        else:
            row[art_col[i]] = ONE
            basis.append(art_col[i])
            ident_col.append(art_col[i])
        rows.append(row)
        rhs.append(r)

    pivots_box = [0]
    artificials = set(art_col.values())

    # Phase 1: drive the artificial variables to zero.
    if artificials:
        rc1 = [ZERO] * ncols
        for j in artificials:
            rc1[j] = ONE
        for r, b in enumerate(basis):
            if b in artificials:
                rc1 = [a - v for a, v in zip(rc1, rows[r])]
        allowed = [j for j in range(ncols) if j not in artificials]
        bounded = _bland_loop(rows, rhs, rc1, basis, allowed, pivots_box)
        if not bounded:
            raise StructureViolation("phase-1 objective cannot be unbounded")
        phase1_obj = sum((rhs[r] for r, b in enumerate(basis) if b in artificials), ZERO)
        if phase1_obj != ZERO:
            raise LPInfeasible("phase-1 optimum positive")
        # Pivot basic artificials out where possible; all-zero rows are
        # redundant and keep their artificial pinned at zero (dual 0).
        for r in range(nrows):
            if basis[r] in artificials:
                for j in range(ncols):
                    if j not in artificials and rows[r][j] != ZERO:
                        _pivot(rows, rhs, rc1, basis, r, j)
                        pivots_box[0] += 1
                        break

    # Phase 2: original objective.
    rc = [ZERO] * ncols
    obj = ZERO
    for j in range(nstruct):
        rc[j] = lp.objective[j]
    for r, b in enumerate(basis):
        cb = lp.objective[b] if b < nstruct else ZERO
        if cb != ZERO:
            row = rows[r]
            rc = [a - cb * v for a, v in zip(rc, row)]
            obj += cb * rhs[r]
    allowed = [j for j in range(ncols) if j not in artificials]
    if not _bland_loop(rows, rhs, rc, basis, allowed, pivots_box):
        raise LPUnbounded("objective unbounded below")

    x = [ZERO] * nstruct
    for r, b in enumerate(basis):
        if b < nstruct:
            x[b] = rhs[r]
    objective = sum((cj * xj for cj, xj in zip(lp.objective, x)), ZERO)
    duals = [flip[i] * -rc[ident_col[i]] for i in range(nrows)]
    return SimplexResult(x=x, duals=duals, objective=objective, pivots=pivots_box[0])


class DualSolution(dict):
    """Dual values keyed by node id (int) or odd set (frozenset)."""

    def node(self, u: int):
        return self.get(u, ZERO)

    def of_set(self, s):
        return self.get(frozenset(s), ZERO)

    def set_keys(self) -> list:
        return sorted_sets(k for k in self if isinstance(k, frozenset))

    def objective(self):
        return sum(self.values(), ZERO)

    def edge_load(self, g: Graph, e: int):
        """Sum of dual values over all sets cut by edge e."""
        u, v, _c = g.edges[e]
        total = self.node(u) + self.node(v)
        for s in self.set_keys():
            if (u in s) != (v in s):
                total += self[s]
        return total

    def slack(self, g: Graph, costs, e: int):
        return Rat(costs[e]) - self.edge_load(g, e)

    def is_feasible(self, g: Graph, costs, nonneg_sets) -> bool:
        if any(self.of_set(s) < ZERO for s in nonneg_sets):
            return False
        return all(self.slack(g, costs, e) >= ZERO for e in range(g.m))

    @classmethod
    def zeros(cls, g: Graph) -> "DualSolution":
        return cls({u: ZERO for u in range(1, g.n + 1)})


def _family_rows(fam: LaminarFamily) -> list:
    return sorted_sets(fam.sets)


def build_primal(g: Graph, costs, fam: LaminarFamily) -> tuple:
    """P_F: minimize costs subject to degree equalities and cut inequalities.

    Returns (LinearProgram, row_keys) with one variable per edge, one
    equality row per node, one >=1 row per family set.
    """
    lp = LinearProgram()
    for e in range(g.m):
        lp.add_var(costs[e])
    row_keys = []
    for u in range(1, g.n + 1):
        lp.add_row({e: ONE for e in g.incident(u)}, "=", ONE)
        row_keys.append(u)
    for s in _family_rows(fam):
        lp.add_row({e: ONE for e in g.delta(s)}, ">=", ONE)
        row_keys.append(s)
    return lp, row_keys


def solve_primal(g: Graph, costs, fam: LaminarFamily) -> tuple:
    """Solve P_F; return (x, basis dual, objective).

    The returned dual is the complementary dual extracted from the optimal
    basis.  Strong duality and exact complementary slackness are verified on
    every call.
    """
    lp, row_keys = build_primal(g, costs, fam)
    res = simplex_solve(lp)
    dual = DualSolution()
    for key, y in zip(row_keys, res.duals):
        dual[key] = y
    if dual.objective() != res.objective:
        raise StructureViolation("strong duality violated")
    for e, val in enumerate(res.x):
        if val != ZERO and dual.slack(g, costs, e) != ZERO:
            raise StructureViolation(f"support edge {e} not tight", witness=e)
    for s in fam.sets:
        if dual.of_set(s) > ZERO:
            tot = sum((res.x[e] for e in g.delta(s)), ZERO)
            if tot != ONE:
                raise StructureViolation(
                    "positive cut dual on slack cut", witness=sorted(s)
                )
    return res.x, dual, res.objective


def solve_extremal_dual(
    g: Graph, costs, fam: LaminarFamily, x: Sequence, gamma: DualSolution
) -> DualSolution:
    """Dual optimum of P_F minimizing sum |Psi(S)-Gamma(S)|/|S| over V and
    the tight family sets.

    The program fixes equality on supp(x) edges and restricts the support of
    Psi to singletons and tight sets, so its feasible points are exactly the
    dual optima; LPInfeasible therefore certifies that x is not optimal.
    Each |Psi(S)-Gamma(S)| is modelled as an up/down deviation pair from
    Gamma, keyed in the order: singletons by node id, then tight family sets
    by (size, min element).
    """
    tight_sets = [
        s
        for s in _family_rows(fam)
        if sum((x[e] for e in g.delta(s)), ZERO) == ONE
    ]
    keys = list(range(1, g.n + 1)) + tight_sets

    lp = LinearProgram()
    up = {}
    down = {}
    for key in keys:
        size = 1 if isinstance(key, int) else len(key)
        w = Rat(1, size)
        up[key] = lp.add_var(w)
        down[key] = lp.add_var(w)

    gamma_restricted = DualSolution()
    for key in keys:
        gamma_restricted[key] = gamma.get(key, ZERO) if isinstance(key, int) else gamma.of_set(key)

    for e in range(g.m):
        u, v, _c = g.edges[e]
        coefs = {}
        load = ZERO
        for key in keys:
            crosses = key in (u, v) if isinstance(key, int) else (u in key) != (v in key)
            if crosses:
                coefs[up[key]] = coefs.get(up[key], ZERO) + ONE
                coefs[down[key]] = coefs.get(down[key], ZERO) - ONE
                load += gamma_restricted[key]
        rel = "=" if x[e] != ZERO else "<="
        lp.add_row(coefs, rel, Rat(costs[e]) - load)

    for s in tight_sets:
        # Psi(S) = Gamma(S) + up - down must stay nonnegative
        lp.add_row({down[s]: ONE, up[s]: -ONE}, "<=", gamma_restricted[s])

    res = simplex_solve(lp)

    psi = DualSolution()
    for key in keys:
        psi[key] = gamma_restricted[key] + res.x[up[key]] - res.x[down[key]]
    for s in fam.sets:
        if frozenset(s) not in psi:
            psi[frozenset(s)] = ZERO

    primal_obj = sum((Rat(costs[e]) * x[e] for e in range(g.m)), ZERO)
    if psi.objective() != primal_obj:
        raise StructureViolation("extremal dual is not a dual optimum")
    for s in fam.sets:
        if psi.of_set(s) < ZERO:
            raise StructureViolation(
                "extremal dual is negative on a cut", witness=sorted(s)
            )
    return psi


def extremal_distance(psi: DualSolution, gamma: DualSolution, keys) -> object:
    """h(Psi, Gamma) over the given keys."""
    total = ZERO
    for key in keys:
        size = 1 if isinstance(key, int) else len(key)
        a = psi.get(key, ZERO) if isinstance(key, int) else psi.of_set(key)
        b = gamma.get(key, ZERO) if isinstance(key, int) else gamma.of_set(key)
        total += abs(a - b) / size
    return total
