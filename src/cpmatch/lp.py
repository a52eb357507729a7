"""Exact simplex plus builders for the matching LPs.

`simplex_solve(lp)` is a two-phase primal simplex under Bland's rule (Bland
1977): the least column with a negative reduced cost enters, and the row of
least ratio leaves, the least basis id on a tie.  `solve_extremal_dual`
uses it: its program has many optima, and the one Bland's rule picks is the
Psi that the traces record.  `simplex_solve(lp, start)` solves lp by a dual
simplex from an optimal tableau with fewer rows; `solve_primal` solves every
relaxation P_F that way.

The tableau is integer-preserving (fraction-free, Bareiss 1968): the rows
are scaled by one common denominator L and the objective by another, M,
and each row keeps its entries as sparse ints at a lazy scale, |det B| of
the basis at which it was last written (see `_Tableau`).  Both methods
read only signs, the order of the true reduced costs and ratios within one
row, which a positive row scale does not change, so the pivots are those
of the rational tableau.  A pivot rewrites only the rows with an entry in
its column: the primal ratio test, which reads every row's entry there,
hands that list to `_Tableau.pivot`; the dual simplex lets the pivot walk
the rows itself.

A program may declare mirrored pairs (`LinearProgram.pairs`): column
2i+1 is minus column 2i at the same cost, as each key's up and down
deviation in `solve_extremal_dual` are.  The tableau stores one column per
pair; the reduced costs, the basis and so Bland's order, the tie-breaks,
x and the duals keep both ids, so the pivots are those of the program
written out in full.

The tableau stores no artificial column.  A row that starts with its
artificial basic (row i's id is first_art + i) keeps that id in the basis
for the tie-breaks and the phase-1 sum, but no pivot reads an artificial
column: a pivot computes column j from column j and the pivot column alone.
So B^-1 is never built, and an artificial that leaves never enters again.

Values become rationals only when a caller reads them (`SimplexResult`):
x_b = rhs_r/scale_r, and the duals from the final basis.  With D =
rc_scale = |det B|, z = D*y for the dual y of the scaled program: z_i is
minus the reduced cost of row i's slack, plus that of its surplus, 0 while
its artificial is basic, and for every other = row it is solved in ints
from z.B = D*c_B over the basic structural columns (integral by Cramer's
rule).  Each dual is z_i times L/(M*D), so strong duality and
complementary slackness hold exactly on every solve.

A start is the final tableau of an optimal solve, which keeps its program
in ints, or `dual_start`, the tableau of the program with no rows: x = 0 with the costs as reduced costs, optimal when every cost is
>= 0.  Only lp's further rows are read.  Each is written at the current
det, reduced against the synced rows of the basic columns it has entries
in, and enters with its slack, surplus or artificial basic, infeasible
where the old optimum violates it.  The basis stays dual feasible, and a
dual simplex with a least-index rule (Lemke 1954; Koberstein, PhD thesis,
Paderborn 2005) pivots through the same lazy-scale `pivot` to an optimum.
The optimum x is unique under the cost perturbation, so the dual simplex
reaches the x the two-phase simplex would; only the optimal basis and its
dual may differ (see `solve_primal` for the starts it uses).

LP values cross the boundary as ints.  A `LinearProgram` stores an int or
a `Rat` as given, and both builders pose their programs in ints:
`build_primal` has 0/+-1 coefficients, unit right-hand sides and int
costs, and `solve_extremal_dual` appends its rows in one pass over the
edges.  `simplex_solve` takes L and M from the denominators of the
non-int values alone (an all-int program is read as it is); x, its
objective and integrality are read off the ints, with a `Rat` only for a
nonzero x_b or dual; `solve_extremal_dual` reads Psi off the ints too.
`DualSolution.slacks` are ints over one unit, summed with the dual
objective in the same pass, and `slackness_violation` reads only their
signs.

One certificate per record.  `certify_optimum` checks a relaxation optimum
against a dual: feasibility, strong duality and complementary slackness.
A driver record carries the basis dual only for an integral x, so only
then does `solve_primal` recover and check it; every other simplex optimum
is certified once, by the extremal dual Psi its record carries, on the cut
values and edge lists `solve_extremal_dual` left on Psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .errors import LPInfeasible, LPUnbounded, StructureViolation
from .graph import Graph, cost_value, cut_values, feasibility_violation, in_units
from .laminar import LaminarFamily, sorted_sets
from .rational import ONE, Rat, ZERO

# Pivots one simplex_solve may make before it gives up.
PIVOT_LIMIT = 100_000


_EXACT = (int, Rat)


def _exact(value):
    """value as an exact LP number: an int or a Rat is kept as it is (both
    are immutable), anything else becomes a Rat."""
    return value if type(value) in _EXACT else Rat(value)


@dataclass
class LinearProgram:
    """Minimization LP: one variable per add_var, rows are <=, >= or =.

    Every value is an int or a Rat (see `_exact`).  The first 2*`pairs`
    variables are mirrored pairs: column 2i+1 is minus column 2i, at the
    same cost, so a row gives only the coefficient of 2i (`simplex_solve`
    checks).  The code that poses a program declares them by filling the
    objective and `pairs` itself, as `solve_extremal_dual` does.
    """

    objective: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # (coefs: dict[var, int | Rat], rel, rhs)
    pairs: int = field(default=0, init=False)

    def add_var(self, obj_coef) -> int:
        self.objective.append(_exact(obj_coef))
        return len(self.objective) - 1

    def add_row(self, coefs: dict, rel: str, rhs):
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"bad relation {rel!r}")
        coefs = {k: v if type(v) in _EXACT else Rat(v) for k, v in coefs.items()}  # _exact
        self.rows.append((coefs, rel, _exact(rhs)))

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


class SimplexResult:
    """An optimal basis's pivot count, x, `objective`, whether every x is
    an int (`integral`, None when not known) and `duals`, one per input
    row, sign matching the original relation.  Each is given or computed on
    first read: x, objective and integral by `read`, the duals by
    `recover`.  `tableau`, the final tableau, warm-starts a program with
    more rows."""

    def __init__(self, pivots, x=None, objective=None, duals=None, read=None, recover=None,
                 tableau=None):
        self.pivots, self.tableau, self._read, self._recover = pivots, tableau, read, recover
        if x is not None:
            self._primal = (x, objective, None)
        if duals is not None:
            self.duals = duals

    @cached_property
    def _primal(self) -> tuple:
        return self._read()

    x = property(lambda self: self._primal[0])
    objective = property(lambda self: self._primal[1])
    integral = property(lambda self: self._primal[2])

    @cached_property
    def duals(self) -> list:
        return self._recover()


class _Tableau:
    """Sparse integer tableau of a basis B with a lazy scale per row.

    Row i is a dict {column: int} with no stored zero: the true value of
    entry (i, j) is rows[i].get(j, 0) / scale[i], and of its right-hand side
    rhs[i] / scale[i].  The reduced-cost row `rc` is a dense list that holds
    rc_scale times its true values.  Each scale is the determinant |det B'|
    of the basis B' current when that row was last written; `det` is |det B|
    now.  The starting basis (slack columns and the artificials, whose
    columns are not stored) is the identity, so every scale starts at 1.  A
    pivot multiplies det B by the true pivot value and rewrites only the
    rows with a nonzero entry in the pivot column, each with an exact
    integer division (Bareiss 1968, Edmonds 1967), and deletes every entry
    that cancels to 0.  `pivots` counts the pivots made.

    The columns below `paired` are mirrored pairs: column 2i+1 is minus
    column 2i in every basis (B^-1 is linear), so a row stores column 2i
    alone.  `rc` and `basis` keep both ids, and so do the entering order
    and the tie-breaks; at most one id of a pair is basic, as the two
    columns are dependent.

    The program solved is kept for a warm start to extend and for the
    duals: its rows in ints at row scale L, as given (`norm`), each row's
    slack or surplus column (`aux_col`, None for an = row), the int costs
    and the (row, cost) `scales`.
    """

    def __init__(self, rows, rhs, basis, paired=0):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.paired = paired
        self.scale = [1] * len(rows)
        self.det = 1
        self.rc = []
        self.rc_scale = 1
        self.pivots = 0
        self.norm = self.aux_col = self.cost = self.scales = None

    def synced(self, r):
        """Row r, first rewritten at the current det if it is not there.

        d*a // s is exact and nonzero: a is s times a nonzero true value, and
        d times any true value of the current tableau is an integer (a minor
        of [B | A])."""
        s, d = self.scale[r], self.det
        if s != d:
            self.rows[r] = {j: d * a // s for j, a in self.rows[r].items()}
            self.rhs[r] = d * self.rhs[r] // s
            self.scale[r] = d
        return self.rows[r]

    def pivot(self, r, c, hit=None):
        """Make column c basic in row r; `rc` is updated along with the rows.

        `hit` lists (k, rows[k]) for the rows with an entry in column c, as
        the ratio test found them; None walks every row.  Row k != r with
        entry f in column c becomes (p*row_k - f*row_r) // scale_k
        (Sylvester's identity: exact), p the pivot entry.  When scale_k is
        already p, p*a is a multiple of p, so f*b is one too and row_k[j] -=
        f*b // p touches only the columns j where row r has an entry b.
        With c the second column of a pair, f is minus row k's stored
        entry, so each row subtracts its stored entry times row r negated
        (`sub`) instead."""
        rows, rhs, scale = self.rows, self.rhs, self.scale
        mirror = c < self.paired and c & 1 == 1
        stored = c - 1 if mirror else c
        if (rows[r][stored] < 0) != mirror:  # keep det > 0: the new det is |p|
            rows[r] = {j: -a for j, a in rows[r].items()}
            rhs[r] = -rhs[r]
        row_r = self.synced(r)
        rhs_r = rhs[r]
        p = -row_r[stored] if mirror else row_r[stored]
        items_r = row_r.items()
        sub, sub_rhs = ([(j, -b) for j, b in items_r], -rhs_r) if mirror else (items_r, rhs_r)
        for k, row_k in enumerate(rows) if hit is None else hit:
            f = row_k.get(stored)
            if f is None or k == r:
                continue
            s, get = scale[k], row_k.get
            if s == p:
                for j, b in sub:
                    a = get(j, 0) - f * b // p
                    if a:
                        row_k[j] = a
                    else:
                        del row_k[j]
                rhs[k] -= f * sub_rhs // p
            else:
                new = {j: p * a // s for j, a in row_k.items() if j not in row_r}
                for j, b in sub:
                    a = p * get(j, 0) - f * b
                    if a:
                        new[j] = a // s
                rows[k] = new
                rhs[k] = (p * rhs[k] - f * sub_rhs) // s
                scale[k] = p
        rc = self.rc
        f = rc[c]
        if f:
            s, paired = self.rc_scale, self.paired
            if s == p:
                if paired:
                    for j, b in items_r:
                        q = f * b // p
                        rc[j] -= q
                        if j < paired:  # the mirror's entry in row r is -b
                            rc[j + 1] += q
                else:
                    for j, b in items_r:
                        rc[j] -= f * b // p
            else:
                # One pass rescales rc, then row r's columns, and their
                # mirrors, take the pivot update.  Outside those columns
                # the true reduced cost is unchanged, and p = |det B| of
                # the new basis times a true reduced cost is an int, so
                # p*a // s is exact there.
                old = [(j, rc[j], b) for j, b in items_r]
                if paired:
                    old += [(j + 1, rc[j + 1], -b) for j, b in items_r if j < paired]
                rc[:] = [p * a // s for a in rc]
                for j, a, b in old:
                    rc[j] = (p * a - f * b) // s
                self.rc_scale = p
        scale[r] = p
        self.det = p
        self.basis[r] = c
        self.pivots += 1


def _primal_loop(t: _Tableau) -> bool:
    """Primal simplex on t.rc over all its columns by Bland's rule; False
    when unbounded.  The least column with a negative reduced cost enters,
    and the row with the least ratio rhs[r]/row[r][enter] leaves, the least
    basis id on a tie.  Signs and that ratio do not depend on a row's
    positive scale, so these are the pivots the rational tableau would make.
    The ratio test collects the rows with an entry in the entering column,
    and the pivot rewrites only those.
    """
    rows, rhs, basis, rc, paired = t.rows, t.rhs, t.basis, t.rc, t.paired
    while True:
        for enter, a in enumerate(rc):
            if a < 0:
                break
        else:
            return True  # optimal
        col, sign = (enter - 1, -1) if enter < paired and enter & 1 else (enter, 1)
        hit = [(r, row) for r, row in enumerate(rows) if col in row]
        best = -1
        for r, row in hit:
            a = sign * row[col]  # the second of a pair is minus the first
            if a > 0:
                if best < 0:
                    best, best_a, best_rhs = r, a, rhs[r]
                    continue
                lhs, rhs_best = rhs[r] * best_a, best_rhs * a
                if lhs < rhs_best or (lhs == rhs_best and basis[r] < basis[best]):
                    best, best_a, best_rhs = r, a, rhs[r]
        if best < 0:
            return False  # unbounded in the entering direction
        t.pivot(best, enter, hit)
        if t.pivots > PIVOT_LIMIT:
            raise StructureViolation(f"simplex pivot limit {PIVOT_LIMIT} exceeded")


def _scaled(v, scale: int) -> int:
    """v * scale as an int; v is an int or a Rat whose denominator divides
    scale."""
    if type(v) is int:
        return v * scale
    return int(v.numerator) * (scale // int(v.denominator))


def _denominators(values) -> list:
    """The denominators of the values that are not ints, as ints."""
    return [int(v.denominator) for v in values if type(v) is not int]


def _in_ints(values) -> tuple:
    """(scale, ints): scale is the lcm of the denominators of the values
    that are not ints, and ints lists each value times scale; values that
    are all ints are copied as they are."""
    dens = _denominators(values)
    if not dens:
        return 1, list(values)
    scale = math.lcm(*dens)
    return scale, [_scaled(v, scale) for v in values]


# A row's relation once it is negated.
_NEGATED = {"<=": ">=", ">=": "<=", "=": "="}


def _two_phase(norm, cost, paired) -> _Tableau:
    """The optimal tableau of the program with int rows `norm`, by the
    two-phase simplex under Bland's rule from the slack and artificial
    basis; the columns below `paired` are mirrored pairs (see `_Tableau`).

    One pass writes each row, negated if its right-hand side is negative
    (a <= row becomes >=), with its slack (+1, basic) or surplus (-1).  A
    >= or = row i starts with its artificial basic, whose column
    first_art + i is not stored, and is subtracted from the phase-1
    reduced costs (cost 1 on each artificial)."""
    nstruct = len(cost)
    first_art = nstruct + len(norm) - [rel for _c, rel, _r in norm].count("=")
    rows, rhs, basis, aux_col, artificial = [], [], [], [], []
    rc = [0] * first_art
    col = nstruct
    for i, (coefs, rel, b) in enumerate(norm):
        if b < 0:
            row, b, rel = {k: -v for k, v in coefs.items() if v}, -b, _NEGATED[rel]
        else:
            row = {k: v for k, v in coefs.items() if v}
        aux_col.append(None if rel == "=" else col)
        if rel == "<=":
            row[col] = 1
            basis.append(col)
        else:
            if rel == ">=":
                row[col] = -1
            basis.append(first_art + i)
            artificial.append(i)
            for j, v in row.items():
                rc[j] -= v
        col += rel != "="
        rows.append(row)
        rhs.append(b)
    t = _Tableau(rows, rhs, basis, paired)
    t.norm, t.aux_col = norm, aux_col

    # Phase 1: drive the artificials to zero.  A mirror's reduced cost is
    # minus its pair's.
    if artificial:
        rc[1:paired:2] = [-a for a in rc[:paired:2]]
        t.rc = rc
        if not _primal_loop(t):
            raise StructureViolation("phase-1 objective cannot be unbounded")
        # Every stored rhs is >= 0 at any scale, so the sum is 0 exactly
        # when each artificial is.
        if sum(rhs[r] for r, b in enumerate(basis) if b >= first_art):
            raise LPInfeasible("phase-1 optimum positive")
        # Pivot basic artificials out where possible; all-zero rows are
        # redundant and keep their artificial pinned at zero (dual 0).  The
        # least stored column is never a mirror.
        for r in artificial:
            if basis[r] >= first_art and rows[r]:
                t.pivot(r, min(rows[r]))

    # Phase 2: original objective, reduced costs D*c - sum of c_b * row_b
    # with each row read at the current D.  A mirror's column is minus its
    # pair's at the same cost c, so its reduced cost is 2*D*c less its
    # pair's.
    d = t.det
    rc = [d * c for c in cost] + [0] * (first_art - nstruct)
    for r, b in enumerate(basis):
        if b < nstruct and cost[b]:
            cb = cost[b]
            for j, v in t.synced(r).items():
                rc[j] -= cb * v
    rc[1:paired:2] = [2 * d * c - a for c, a in zip(cost[:paired:2], rc[:paired:2])]
    t.rc, t.rc_scale = rc, d
    if not _primal_loop(t):
        raise LPUnbounded("objective unbounded below")
    return t


def dual_start(objective) -> _Tableau:
    """The optimal tableau of the program with `objective` and no rows,
    every column nonbasic at 0: a start for any program with that objective
    when every cost is >= 0 (ValueError otherwise)."""
    cost_scale, cost = _in_ints(objective)
    if any(c < 0 for c in cost):
        raise ValueError("a dual start needs costs >= 0")
    t = _Tableau([], [], [])
    t.rc = list(cost)
    t.norm, t.aux_col, t.cost, t.scales = [], [], cost, (1, cost_scale)
    return t


def _extended(t: _Tableau, new) -> _Tableau:
    """t with the int rows `new` appended to its program, each written at
    the current det with its slack, surplus or artificial basic.

    Row i is sign times its row, sign +1 for a <= row and -1 for a >= or =
    row, so that its slack, surplus or artificial (first_art + i, not
    stored) has coefficient +1.  It is reduced against the synced row of
    each basic column it has an entry in: D*sign*a - sum of sign*a_j * row_j,
    right-hand side D*sign*b - sum of sign*a_j * rhs_j, and D in its aux
    column, whose reduced cost is 0.  The artificial ids move up past the
    new aux columns, and `basis`, `rhs`, `scale` and `rc` become new lists,
    so a result read from t before keeps its values."""
    col = len(t.rc)
    first_art = col + len(new) - [rel for _c, rel, _r in new].count("=")
    shift = first_art - col
    t.basis = [b + shift if b >= col else b for b in t.basis]
    t.rc = t.rc + [0] * shift
    t.rhs, t.scale = list(t.rhs), list(t.scale)
    t.pivots = 0
    d = t.det
    row_of = {b: r for r, b in enumerate(t.basis)}
    aux_col = list(t.aux_col)
    for i, (coefs, rel, b) in enumerate(new, len(t.rows)):
        sign = 1 if rel == "<=" else -1
        aux_col.append(None if rel == "=" else col)
        t.basis.append(first_art + i if rel == "=" else col)
        row = {} if rel == "=" else {col: d}
        col += rel != "="
        rhs = sign * d * b
        for j, v in coefs.items():
            f = sign * v
            r = row_of.get(j)
            if r is None:
                row[j] = row.get(j, 0) + d * f
            elif f:
                for k, a in t.synced(r).items():
                    if k != j:
                        row[k] = row.get(k, 0) - f * a
                rhs -= f * t.rhs[r]
        t.rows.append({k: a for k, a in row.items() if a})
        t.rhs.append(rhs)
        t.scale.append(d)
    t.norm, t.aux_col = t.norm + new, aux_col
    return t


def _dual_simplex(t: _Tableau) -> None:
    """Dual simplex from the dual-feasible tableau t (rc >= 0) to an
    optimal one, by the least-index rule.  A row is infeasible when its
    right-hand side is negative, or positive with an artificial (an id past
    rc) basic; of those, the one with the least basis id leaves, a positive
    artificial's row negated first (the artificial's column, which only
    changes sign, is not stored).  The column with the least ratio
    rc_j/|a_rj| over the row's entries a_rj < 0 enters, the least column on
    a tie; with no such entry the program is infeasible.  An artificial left
    basic at 0 on a redundant row stays pinned there.  Ratios within one row
    do not depend on its scale, so they are compared by cross-multiplication.
    Ends with rc at scale det, which the dual read-out needs."""
    rows, rhs, rc, basis = t.rows, t.rhs, t.rc, t.basis
    first_art = len(rc)
    while True:
        leave = -1
        for r, b in enumerate(basis):
            v = rhs[r]
            if (v < 0 or v and b >= first_art) and (leave < 0 or b < basis[leave]):
                leave = r
        if leave < 0:
            break
        if rhs[leave] > 0:
            rows[leave] = {j: -a for j, a in rows[leave].items()}
            rhs[leave] = -rhs[leave]
        enter = -1
        for j, a in rows[leave].items():
            if a < 0:
                if enter < 0:
                    enter, best_a = j, a
                    continue
                lhs, rhs_best = rc[j] * best_a, rc[enter] * a
                if lhs > rhs_best or (lhs == rhs_best and j < enter):
                    enter, best_a = j, a
        if enter < 0:
            raise LPInfeasible("phase-1 optimum positive")
        t.pivot(leave, enter)
        if t.pivots > PIVOT_LIMIT:
            raise StructureViolation(f"simplex pivot limit {PIVOT_LIMIT} exceeded")
    if t.rc_scale != t.det:
        d, s = t.det, t.rc_scale
        rc[:] = [d * a // s for a in rc]
        t.rc_scale = d


def simplex_solve(lp: LinearProgram, start: _Tableau | None = None) -> SimplexResult:
    """Solve min c.x st rows, x >= 0.  Raises LPInfeasible / LPUnbounded.

    Without `start`, by the two-phase simplex under Bland's rule.  `start`
    is the final tableau (`SimplexResult.tableau`) of an optimal solve of a
    program with lp's objective and lp's first len(start.rows) rows, whose
    row scale the denominators of the rows after them divide, or the
    `dual_start` of lp's objective.  Only those rows are read; each enters
    with its slack, surplus or artificial basic, and the dual simplex
    restores feasibility.  start is consumed.  A program with mirrored
    pairs (`LinearProgram.pairs`) is solved without a start.
    """
    nstruct = lp.num_vars
    paired = 2 * lp.pairs
    if paired:
        if start is not None:
            raise ValueError("a program with mirrored pairs is solved without a start")
        if any(k < paired and k & 1 for coefs, _rel, _rhs in lp.rows for k in coefs):
            raise ValueError("a row gives only the first column of a mirrored pair")
    done = 0 if start is None else len(start.rows)
    rows = lp.rows[done:]

    # One scale for all rows and one for the objective make the data
    # integral.  A per-row scale would reweight the phase-1 artificials
    # against each other and could change Bland's path.
    dens = [int(v.denominator) for coefs, _rel, rhs in rows
            for v in (rhs, *coefs.values()) if type(v) is not int]
    row_scale = math.lcm(*dens)
    if start is None:
        cost_scale, cost = _in_ints(lp.objective)
    else:
        (start_scale, cost_scale), cost = start.scales, start.cost
        if len(cost) != nstruct or (done and start_scale % row_scale):
            raise ValueError("the start tableau was solved at other scales")
        row_scale = math.lcm(row_scale, start_scale)  # start_scale once it has rows
    if dens or row_scale != 1:
        rows = [({k: _scaled(v, row_scale) for k, v in coefs.items()}, rel, _scaled(b, row_scale))
                for coefs, rel, b in rows]
    if start is None:
        t = _two_phase(rows, cost, paired)
    else:
        t = _extended(start, rows)
        _dual_simplex(t)
    t.cost, t.scales = cost, (row_scale, cost_scale)
    norm, aux_col, basis, rhs, scale, rc = t.norm, t.aux_col, t.basis, t.rhs, t.scale, t.rc
    first_art, det = len(rc), t.rc_scale

    def read():
        # Only a basic structural column with a nonzero right-hand side
        # gets a Rat of its own, and x is integral when each such rhs_r is
        # a multiple of its scale.  The objective sums cost_b * rhs_r per
        # row scale in ints, then once over the lcm of those scales.
        x = [ZERO] * nstruct
        by_scale = {}
        integral = True
        for b, v, s in zip(basis, rhs, scale):
            if b < nstruct and v:
                x[b] = Rat(v, s)
                by_scale[s] = by_scale.get(s, 0) + cost[b] * v
                if v % s:
                    integral = False
        common = math.lcm(*by_scale)
        return x, Rat(sum(a * (common // s) for s, a in by_scale.items()),
                      common * cost_scale), integral

    def duals():
        # z = D*y for the dual y of the scaled program (rows times L, costs
        # times M), each row as given (negated, it keeps its slack or
        # surplus).  Rows with a slack or surplus read z off its reduced
        # cost, rows whose artificial is basic have z = 0, and the other =
        # rows are solved from z.B = D*c_B, one equation per basic
        # structural column.  A basic mirror reads its pair's coefficients,
        # negated.
        z = {}
        for i, (_coefs, rel, _r) in enumerate(norm):
            if rel == "<=":
                z[i] = -rc[aux_col[i]]
            elif rel == ">=":
                z[i] = rc[aux_col[i]]
            elif basis[i] >= first_art:
                z[i] = 0
        nrows = len(norm)
        if len(z) < nrows:
            basic = [b for b in basis if b < nstruct]
            unknowns_of = {b: {} for b in basic}
            rhs_of = {b: det * cost[b] for b in basic}
            column_of = {b - 1 if b < paired and b & 1 else b: b for b in basic}
            for i, (coefs, _rel, _r) in enumerate(norm):
                zi = z.get(i)
                if zi == 0:
                    continue
                for j, a in coefs.items():
                    b = column_of.get(j)
                    if b is not None and a:
                        if b != j:
                            a = -a
                        if zi is None:
                            unknowns_of[b][i] = a
                        else:
                            rhs_of[b] -= a * zi
            z.update(_integral_solution(
                [(unknowns_of[b], rhs_of[b]) for b in basic],
                [i for i in range(nrows) if i not in z],
            ))
        dual_scale = cost_scale * det
        return [Rat(z[i] * row_scale, dual_scale) if z[i] else ZERO for i in range(nrows)]

    return SimplexResult(t.pivots, read=read, recover=duals, tableau=t)


def _exact_quotient(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise StructureViolation("dual recovery: a division leaves a remainder")
    return q


def _integral_solution(equations, unknowns) -> dict:
    """The integral solution {unknown: int} of a consistent system with one
    solution, given as (coefs, b) pairs meaning sum(a * z[i] for i, a in
    coefs.items()) == b with int values; there may be more equations than
    unknowns.  The coefs dicts are rewritten in place.

    It peels first: an equation with one unknown fixes it, and an unknown
    that occurs in one equation is set aside with it, to be fixed from it
    once the others are known.  Only what is left, on matching bases the
    odd cycles, is eliminated: an equation is set aside for its least
    unknown, which is cancelled from every other equation in ints (each
    then divided by its gcd when the pivot entry is not +-1); the next pivot
    is an equation just rewritten, so a cycle is walked round.  Raises StructureViolation on a division
    with a remainder, an equation 0 = b != 0, or an unknown the system
    leaves open."""
    eqs = [[coefs, b] for coefs, b in equations]
    where = {i: set() for i in unknowns}
    for k, (coefs, _b) in enumerate(eqs):
        for i in coefs:
            where[i].add(k)
    live = set(range(len(eqs)))
    ready = [k for k, (coefs, _b) in enumerate(eqs) if len(coefs) <= 1]
    lonely = [i for i, ks in where.items() if len(ks) == 1]
    rewritten = []
    z = {}
    later = []  # (unknown, equation) pairs, solved last in reverse order

    def set_aside(i, k):
        later.append((i, k))
        live.remove(k)
        del where[i]
        for u in eqs[k][0]:
            if u != i:
                ks = where[u]
                ks.discard(k)
                if len(ks) == 1:
                    lonely.append(u)

    while live:
        if ready:
            k = ready.pop()
            if k not in live or len(eqs[k][0]) > 1:
                continue  # stale: solved, set aside or grown since
            coefs, b = eqs[k]
            live.remove(k)
            if not coefs:
                if b:
                    raise StructureViolation("dual recovery: inconsistent basis system")
                continue
            ((i, a),) = coefs.items()
            z[i] = value = _exact_quotient(b, a)
            ks = where.pop(i)
            ks.discard(k)
            for other in ks:
                eq = eqs[other]
                oc = eq[0]
                eq[1] -= oc.pop(i) * value
                if len(oc) <= 1:
                    ready.append(other)
            continue
        if lonely:
            i = lonely.pop()
            ks = where.get(i)
            if ks is not None and len(ks) == 1:
                set_aside(i, next(iter(ks)))
            continue
        while rewritten and rewritten[-1] not in live:
            rewritten.pop()
        k = rewritten.pop() if rewritten else min(live)
        coefs, b = eqs[k]
        i = min(coefs)
        a = coefs[i]
        others = where[i]
        others.discard(k)
        set_aside(i, k)
        for other in others:
            eq = eqs[other]
            oc = eq[0]
            f = oc.pop(i)
            if a != 1:
                for u in oc:
                    oc[u] *= a
            for u, c in coefs.items():
                if u != i:
                    v = oc.get(u, 0) - f * c
                    if v:
                        if u not in oc:
                            where[u].add(other)
                        oc[u] = v
                    elif u in oc:
                        del oc[u]
                        where[u].discard(other)
            eq[1] = a * eq[1] - f * b
            if a != 1 and a != -1:  # only then can the entries grow by a factor
                g = math.gcd(eq[1], *oc.values())
                if g > 1:
                    for u in oc:
                        oc[u] //= g
                    eq[1] //= g
            if len(oc) <= 1:
                ready.append(other)
            rewritten.append(other)
            for u in oc:
                if len(where[u]) == 1:
                    lonely.append(u)
    if where:
        raise StructureViolation("dual recovery: basis system leaves a dual open")
    for i, k in reversed(later):
        coefs, b = eqs[k]
        rest = sum(a * z[u] for u, a in coefs.items() if u != i)
        z[i] = _exact_quotient(b - rest, coefs[i])
    return z


class DualSolution(dict):
    """Dual values keyed by node id (int) or odd set (frozenset).

    On an extremal dual, `cut_value` maps each family set S to x(delta(S))
    for the x it was solved for, as `solve_extremal_dual` summed it.  On
    it and on the basis dual `solve_primal` returns, `cut_edges` maps each
    family set S to the edge ids of delta(S) in the graph it was solved
    on, which `slacks` and `certify_optimum` read.  Both are None on any
    other dual."""

    cut_value = None
    cut_edges = None

    def node(self, u: int):
        return self.get(u, ZERO)

    def of_set(self, s):
        return self.get(frozenset(s), ZERO)

    def set_keys(self) -> list:
        return sorted_sets(k for k in self if isinstance(k, frozenset))

    def objective(self):
        """The sum of the values: ints over one common denominator, then one Rat."""
        d = math.lcm(*_denominators(self.values()))
        return Rat(sum(_scaled(v, d) for v in self.values()), d)

    def slacks(self, g: Graph, costs) -> "Slacks":
        """The slack of every edge e = uv: costs[e] minus the duals of u and
        v and of every set key that e crosses.  This is the definition of
        slack in this package.

        Each slack is an int in units of 1/`unit` (see `Slacks`), unit the
        lcm of the denominators of the dual values and of the costs that
        are not ints; the pass sums them in ints, and the dual objective
        too (`Slacks.dual_objective`), and builds no Rat.  Each nonzero set
        key crosses the edges `cut_edges` lists for it, or else g.delta."""
        d = math.lcm(*_denominators(self.values()), *_denominators(costs))
        units = {key: _scaled(val, d) for key, val in self.items() if val}
        node = units.get
        out = Slacks(_scaled(costs[e], d) - node(u, 0) - node(v, 0)
                     for e, (u, v, _c) in enumerate(g.edges))
        out.unit = d
        out.dual_objective = sum(units.values())
        cut_edges = self.cut_edges or {}
        for key, k in units.items():
            if isinstance(key, frozenset):
                for e in cut_edges.get(key) or g.delta(key):
                    out[e] -= k
        return out

    @classmethod
    def zeros(cls, g: Graph) -> "DualSolution":
        return cls({u: ZERO for u in range(1, g.n + 1)})


class Slacks(list):
    """Edge slacks as ints over one common denominator: the slack of edge e
    is self[e] / self.unit, so its sign is that of self[e], and the edge is
    tight exactly when self[e] == 0.  `dual_objective` / `unit` is the sum
    of the dual values the slacks were taken from."""

    unit = 1
    dual_objective = 0


def slackness_violation(x: Sequence, dual: DualSolution, slacks: Sequence, cut_value: dict):
    """The first breach of dual feasibility or complementary slackness
    between x and dual, as a witness dict; None if there is none.

    `slacks` is `dual.slacks(g, costs)`, of which only the signs are read;
    `cut_value` maps each set to check to x(delta(S)).  Per edge: slack >=
    0, and 0 where x is nonzero; then per set, in order: dual >= 0, and
    x(delta(S)) = 1 where it is positive.
    """
    for e, slack in enumerate(slacks):
        if slack < 0:
            return {"edge": e, "reason": "dual infeasible"}
        if slack and x[e]:
            return {"edge": e, "reason": "support edge slack"}
    for s, value in cut_value.items():
        y = dual.of_set(s)
        if y < ZERO:
            return {"set": sorted(s), "reason": "negative cut dual"}
        if y and value != ONE:
            return {"set": sorted(s), "reason": "positive dual, slack cut"}
    return None


def certify_optimum(
    g: Graph, costs, sets: Sequence, x: Sequence, objective, dual: DualSolution, cut_value=None
) -> None:
    """Raise StructureViolation unless x is an optimum of P_F (F = `sets`)
    of value `objective` and `dual` proves it: x is feasible, the dual
    objective equals `objective` (strong duality), and `slackness_violation`
    finds no breach between x and dual.  The one certificate of a relaxation
    optimum, for a basis dual and for the extremal dual Psi alike.

    `cut_value` maps each set to x(delta(S)), as `solve_extremal_dual`
    leaves it on Psi; without it, each cut is summed here, over the edges
    `dual.cut_edges` lists for it or else g.delta.  One pass over the
    dual's values gives both its objective and the slacks."""
    if cut_value is None:
        edges = dual.cut_edges or {}
        cuts = (edges.get(s) or g.delta(s) for s in sets)
        cut_value = dict(zip(sets, cut_values(x, cuts)))
    violation = feasibility_violation(x, g, sets, map(cut_value.__getitem__, sets))
    if violation is not None:
        raise StructureViolation(f"primal infeasible: {violation['reason']}", witness=violation)
    slacks = dual.slacks(g, costs)
    if Rat(slacks.dual_objective, slacks.unit) != objective:
        raise StructureViolation("strong duality violated")
    dual_cut_value = {s: cut_value[s] for s in sets if dual.get(s)}
    violation = slackness_violation(x, dual, slacks, dual_cut_value)
    if violation is not None:
        raise StructureViolation(f"complementary slackness: {violation['reason']}", witness=violation)


def build_primal(g: Graph, costs, sets: Sequence, base: LinearProgram | None = None) -> tuple:
    """P_F: minimize costs subject to degree equalities and cut inequalities.

    Returns (LinearProgram, row_keys) with one variable per edge, one
    equality row per node, then one >=1 row per set of the family F, in the
    order of `sets`.  `base` is a program this function built for the same
    g and costs and a prefix of `sets`: the new program shares its variables
    and rows, and only the rows of the sets past that prefix are built.
    """
    if base is None:
        lp = LinearProgram()
        for e in range(g.m):
            lp.add_var(costs[e])
        incidence = g.incidence
        for u in range(1, g.n + 1):
            lp.add_row({e: 1 for e in incidence[u]}, "=", 1)
    else:
        lp = LinearProgram(base.objective, list(base.rows))
    for s in sets[lp.num_rows - g.n:]:
        lp.add_row({e: 1 for e in g.delta(s)}, ">=", 1)
    return lp, list(range(1, g.n + 1)) + list(sets)


class WarmStart:
    """The program and final tableau of the last `solve_primal` call given
    this object, and the family sets of that program's cut rows in row
    order.  A driver run hands one from each relaxation to the next."""

    def __init__(self):
        self.lp = None
        self.tableau = None
        self.sets = []


def solve_primal(
    g: Graph, costs, fam: LaminarFamily, warm: WarmStart | None = None, fractional_dual: bool = True
) -> tuple:
    """Solve P_F; return (x, basis dual, objective).

    The dual is the complementary dual recovered from the optimal basis,
    and `certify_optimum` checks x and it.  With `fractional_dual` False,
    that happens only for an integral x, the one optimum whose record
    carries a basis dual: a fractional x comes back unchecked with dual
    None, for the caller to certify with its extremal dual.

    P_F is solved by the dual simplex.  With `warm`, a family that holds
    every set of `warm.sets` is solved from `warm.tableau`, its program
    `warm.lp` with the new sets' rows appended; any other from `dual_start`.
    The program and its final tableau are left in `warm` for the next call.

    The dual start needs costs >= 0, so each cost is lowered by 2*y0, y0 =
    min(0, least cost) // 2.  Every x that meets the degree rows has x(E) =
    n/2, so that lowers the objective by y0*n and each node dual by y0 and
    moves nothing else; both are added back.
    """
    start, base, sets = None, None, fam.sets
    if warm is not None:
        start, warm.tableau = warm.tableau, None
        old = set(warm.sets)
        if start is not None and old.issubset(sets):
            sets = warm.sets + [s for s in sets if s not in old]
            base = warm.lp
        else:
            start = None
    y0 = int(min(0, *costs) // 2)
    lp, row_keys = build_primal(g, [c - 2 * y0 for c in costs] if y0 else costs, sets, base)
    res = simplex_solve(lp, dual_start(lp.objective) if start is None else start)
    objective = res.objective + y0 * g.n
    dual = None
    if fractional_dual or res.integral:
        dual = DualSolution(zip(row_keys, res.duals))
        # each cut row's coefficients are keyed by the edge ids of delta(S)
        dual.cut_edges = {s: coefs.keys() for s, (coefs, _rel, _rhs) in zip(sets, lp.rows[g.n:])}
        if y0:
            dual.update((u, dual[u] + y0) for u in range(1, g.n + 1))
        certify_optimum(g, costs, fam.sets, res.x, objective, dual)
    if warm is not None:
        warm.lp, warm.tableau, warm.sets = lp, res.tableau, sets
    return res.x, dual, objective


def solve_extremal_dual(
    g: Graph, costs, fam: LaminarFamily, x: Sequence, gamma: DualSolution
) -> DualSolution:
    """Dual optimum of P_F minimizing sum |Psi(S)-Gamma(S)|/|S| over V and
    the tight family sets.

    The program fixes equality on supp(x) edges and restricts Psi to
    singletons and tight sets, so its feasible points are exactly the dual
    optima; LPInfeasible therefore certifies that x is not optimal.
    Each |Psi(S)-Gamma(S)| is modelled as an up/down deviation pair from
    Gamma, keyed in the order: singletons by node id, then tight family sets
    by (size, min element), and posed in ints in one pass over the edges.
    Psi is read off the final tableau's ints, at most one Rat per key, and
    strong duality (sum of Psi = c.x) is checked in ints.  x(delta(S)) and
    the edge ids of delta(S) of every family set S are left in
    `psi.cut_value` and `psi.cut_edges`.  Raises StructureViolation, with
    the set as witness, when x(delta(S)) < 1 for a family set S: x is not
    feasible.  On the simplex route the driver certifies x by this Psi
    (`certify_optimum`), so an LPInfeasible here is a structure violation.
    """
    n = g.n
    tight_sets = []
    crossed = [[] for _ in range(g.m)]  # the tight keys each edge crosses
    sets = fam.sets
    cuts = [g.delta(s) for s in sets]
    cut_value = {}
    x_units = in_units(x)
    for s, cut, value in zip(sets, cuts, cut_values(x, cuts, x_units)):
        cut_value[s] = value
        if value < ONE:
            raise StructureViolation("primal is below one on a cut", witness=sorted(s))
        if value == ONE:
            for e in cut:
                crossed[e].append(n + len(tight_sets))
            tight_sets.append(s)
    keys = list(range(1, n + 1)) + tight_sets

    # In ints: each deviation counts units of 1/d, d the lcm of the
    # denominators of Gamma on the keys and of the costs, and each weight
    # 1/|S| is multiplied by the lcm of the tight-set sizes.  Both scale every
    # right-hand side, or the objective, by one positive number, so Bland's
    # rule makes the pivots it makes in true units and reaches the same Psi.
    values = [gamma.get(key, ZERO) for key in keys]
    d = math.lcm(*_denominators(values), *_denominators(costs))
    units = [_scaled(v, d) for v in values]
    sizes = math.lcm(*map(len, tight_sets))

    # Key i's deviations are the mirrored pair (up, down) = (2i, 2i+1): a
    # row gives the coefficient of up alone, and down's is minus it.  Edge
    # uv's row holds u, v and the tight sets it crosses, in key order.
    lp = LinearProgram([sizes] * (2 * n) + [w for s in tight_sets for w in (sizes // len(s),) * 2])
    lp.pairs = len(keys)
    rows = lp.rows
    for (u, v, _c), xe, at, c in zip(g.edges, x, crossed, costs):
        at = (u - 1, v - 1, *at) if u < v else (v - 1, u - 1, *at)
        rows.append((dict.fromkeys([2 * i for i in at], 1), "=" if xe else "<=",
                     _scaled(c, d) - sum(map(units.__getitem__, at))))
    # Psi(S) = Gamma(S) + up - down >= 0: down - up <= Gamma(S)
    rows += [({2 * i: -1}, "<=", units[i]) for i in range(n, len(keys))]

    t = simplex_solve(lp).tableau

    # Psi_i = num_i / (d*den_i) = units_i + up - down in units of 1/d.  At
    # most one of up, down is basic, in some row r at rhs_r/scale_r: then
    # num_i = units_i*scale_r +- rhs_r and den_i = scale_r, else Psi_i is
    # Gamma_i, num_i = units_i and den_i = 1.
    num, den = units, [1] * len(keys)
    for b, v, s in zip(t.basis, t.rhs, t.scale):
        if b < lp.pairs * 2 and v:
            i = b >> 1
            num[i] = num[i] * s + (-v if b & 1 else v)
            den[i] = s
            values[i] = Rat(num[i], d * s)
    for i, s in enumerate(tight_sets, n):
        if num[i] < 0:
            raise StructureViolation("extremal dual is negative on a cut", witness=sorted(s))
    # sum of Psi in ints over one denominator, d*common, then one Rat
    common = math.lcm(*den)
    if Rat(sum(a * (common // s) for a, s in zip(num, den)), d * common) != cost_value(x, costs, x_units):
        raise StructureViolation("extremal dual is not a dual optimum")
    psi = DualSolution(zip(keys, values))
    for s in sets:
        psi.setdefault(s, ZERO)
    psi.cut_value = cut_value
    psi.cut_edges = dict(zip(sets, cuts))
    return psi
