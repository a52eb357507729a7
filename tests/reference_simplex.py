"""Reference two-phase simplex over `Rat`, kept as a test oracle.

This is the rational tableau `cpmatch.lp.simplex_solve` used before it moved
to integer-preserving pivots, under the same entering rule, Bland's least
index.  Without a start both kernels must make the same pivots and return
the same x, duals, objective and pivot count, or raise the same error;
tests/test_simplex_equivalence.py checks that.  A solve from a start (the
dual simplex) is checked against it on x and the objective.  A program with
mirrored pairs is solved with every pair written out as two columns
(`written_out`).  It takes ints or `Rat`s and computes in `Rat`s;
`simplex_solve` takes ints only, and `in_ints` poses a program with
rational data in ints for both.

`simplex_solve(lp, events)` counts in `events` (a Counter, optional) the
tableau situations the comparison must cover:

- "negative_cleanup_pivot": a phase-1 clean-up pivot on a negative entry;
- "artificial_left_basic": an artificial still basic (at zero) after the
  clean-up, the mark of a redundant equality row.
"""

import math
from types import SimpleNamespace

from cpmatch import lp as lp_mod
from cpmatch.errors import LPInfeasible, LPUnbounded, StructureViolation
from cpmatch.lp import LinearProgram
from cpmatch.rational import ONE, Rat, ZERO


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


def _primal_loop(rows, rhs, rc, basis, allowed, pivots_box):
    """The entering rule of `cpmatch.lp._primal_loop` on true values: the
    least allowed column with rc < 0."""
    nrows = len(rows)
    while True:
        enter = next((j for j in allowed if rc[j] < ZERO), None)
        if enter is None:
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
        if pivots_box[0] > lp_mod.PIVOT_LIMIT:
            raise StructureViolation(f"simplex pivot limit {lp_mod.PIVOT_LIMIT} exceeded")


def written_out(lp: LinearProgram) -> LinearProgram:
    """lp with no mirrored pairs: each row also gives the second column of
    every pair, as minus the first's coefficient."""
    paired = 2 * lp.pairs
    rows = []
    for coefs, rel, rhs in lp.rows:
        full = {}
        for j, v in coefs.items():
            full[j] = v
            if j < paired:
                full[j + 1] = -v
        rows.append((full, rel, rhs))
    return LinearProgram(list(lp.objective), rows)


def in_ints(lp: LinearProgram) -> LinearProgram:
    """lp in ints, as `cpmatch.lp.simplex_solve` once posed a program with
    rational data: every row times L, the lcm of the denominators of all
    the row values, and the objective times M, the lcm of the cost
    denominators.  One scale for all rows weights the phase-1 artificials
    alike, so Bland's rule makes the same pivots on both programs: x is the
    same, the objective is M times lp's and each dual M/L times lp's."""
    row_scale = math.lcm(*(Rat(v).denominator for coefs, _rel, rhs in lp.rows
                           for v in (rhs, *coefs.values())))
    cost_scale = math.lcm(*(Rat(c).denominator for c in lp.objective))
    out = LinearProgram(
        [int(c * cost_scale) for c in lp.objective],
        [({k: int(v * row_scale) for k, v in coefs.items()}, rel, int(rhs * row_scale))
         for coefs, rel, rhs in lp.rows],
    )
    out.pairs = lp.pairs
    return out


def simplex_solve(lp: LinearProgram, events=None) -> SimpleNamespace:
    """Solve min c.x st rows, x >= 0: its x, duals (one per input row, sign
    matching the relation), objective and pivot count.  Raises LPInfeasible
    / LPUnbounded."""
    lp = written_out(lp)
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
            row[k] = Rat(v)
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
        rhs.append(Rat(r))

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
        bounded = _primal_loop(rows, rhs, rc1, basis, allowed, pivots_box)
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
                        if events is not None and rows[r][j] < ZERO:
                            events["negative_cleanup_pivot"] += 1
                        _pivot(rows, rhs, rc1, basis, r, j)
                        pivots_box[0] += 1
                        break
        if events is not None and any(b in artificials for b in basis):
            events["artificial_left_basic"] += 1

    # Phase 2: original objective.
    rc = [ZERO] * ncols
    for j in range(nstruct):
        rc[j] = lp.objective[j]
    for r, b in enumerate(basis):
        cb = lp.objective[b] if b < nstruct else ZERO
        if cb != ZERO:
            row = rows[r]
            rc = [a - cb * v for a, v in zip(rc, row)]
    allowed = [j for j in range(ncols) if j not in artificials]
    if not _primal_loop(rows, rhs, rc, basis, allowed, pivots_box):
        raise LPUnbounded("objective unbounded below")

    x = [ZERO] * nstruct
    for r, b in enumerate(basis):
        if b < nstruct:
            x[b] = rhs[r]
    objective = sum((cj * xj for cj, xj in zip(lp.objective, x)), ZERO)
    duals = [flip[i] * -rc[ident_col[i]] for i in range(nrows)]
    return SimpleNamespace(x=x, duals=duals, objective=objective, pivots=pivots_box[0])
