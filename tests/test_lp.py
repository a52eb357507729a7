import math
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmatch import (
    DualSolution,
    LaminarFamily,
    LinearProgram,
    LPInfeasible,
    build_primal,
    make_graph,
    simplex_solve,
    solve_extremal_dual,
    solve_primal,
)
from cpmatch import lp as lp_mod
from cpmatch import parse_instance, run
from cpmatch.driver import SOLVER_CHOICES
from cpmatch.errors import LPUnbounded, NoPerfectMatching, StructureViolation
from cpmatch.graph import cut_values
from cpmatch.lp import slackness_violation
from cpmatch.rational import HALF, ONE, Rat, ZERO, perturb, rat

import reference_simplex
from reference_simplex import in_ints
from conftest import (
    TRIANGLE_LEFT,
    TRIANGLE_RIGHT,
    dual_feasible,
    per_edge_slacks,
    solve_primal_with_basis_dual,
)
from test_golden import EXPECTED, GOLDEN
from test_simplex_equivalence import RELATIONS, outcome


def format_lp(lp: LinearProgram) -> str:
    """Debug text form of a program: objective row, then one row per line."""
    lines = ["min " + " ".join(str(c) for c in lp.objective)]
    for coefs, rel, rhs in lp.rows:
        dense = [str(coefs.get(j, ZERO)) for j in range(lp.num_vars)]
        lines.append(" ".join(dense) + f" {rel} {rhs}")
    return "\n".join(lines)


def extremal_distance(psi: DualSolution, gamma: DualSolution, keys):
    """h(Psi, Gamma) over the given keys."""
    total = ZERO
    for key in keys:
        size = 1 if isinstance(key, int) else len(key)
        a = psi.get(key, ZERO) if isinstance(key, int) else psi.of_set(key)
        b = gamma.get(key, ZERO) if isinstance(key, int) else gamma.of_set(key)
        total += abs(a - b) / size
    return total


class TestSimplexCore:
    def test_tiny_lp(self):
        # min -x - y st x + y <= 1, x,y >= 0 -> -1
        lp = LinearProgram()
        x = lp.add_var(-1)
        y = lp.add_var(-1)
        lp.add_row({x: 1, y: 1}, "<=", 1)
        res = simplex_solve(lp)
        assert res.objective == -1

    def test_values_kept_as_given_and_non_ints_raise(self):
        # values are stored as given, and simplex_solve takes ints only: a
        # Rat or a float in the objective, a coefficient or a right-hand
        # side raises TypeError naming it, in a row read after a start too
        big = 3 << 70

        def posed(cost, coef, rhs):
            lp = LinearProgram()
            x = lp.add_var(cost)
            y = lp.add_var(big)
            lp.add_row({x: coef, y: big}, ">=", rhs)
            return lp

        lp = posed(1, 1, 1)
        assert lp.objective[1] is big and lp.rows[0][0][1] is big
        assert simplex_solve(lp).x == [1, ZERO]
        for bad in ((HALF, 1, 1), (1, HALF, 1), (1, 1, ONE), (1, 1, 2.5)):
            lp = posed(*bad)
            assert [lp.objective[0], lp.rows[0][0][0], lp.rows[0][2]] == list(bad)
            value = next(v for v in bad if type(v) is not int)
            with pytest.raises(TypeError, match=re.escape(f"LP value {value!r} is not an int")):
                simplex_solve(lp)
        lp = posed(1, 1, 1)
        res = simplex_solve(lp)
        lp.add_row({0: 1}, "<=", HALF)
        with pytest.raises(TypeError, match="is not an int"):
            simplex_solve(lp, res.tableau)

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.add_var(1)
        lp.add_row({x: 1}, "<=", 1)
        lp.add_row({x: 1}, ">=", 2)
        with pytest.raises(LPInfeasible):
            simplex_solve(lp)

    def test_unbounded(self):
        lp = LinearProgram()
        x = lp.add_var(-1)
        lp.add_row({x: -1}, "<=", 0)
        with pytest.raises(LPUnbounded):
            simplex_solve(lp)

    def test_negative_rhs_normalized(self):
        # min x st -x <= -3  (x >= 3)
        lp = LinearProgram()
        x = lp.add_var(1)
        lp.add_row({x: -1}, "<=", -3)
        res = simplex_solve(lp)
        assert res.objective == 3
        assert res.duals[0] == -1  # dual of the <= row as stated

    def test_duals_satisfy_strong_duality(self):
        lp = LinearProgram()
        x = lp.add_var(2)
        y = lp.add_var(3)
        lp.add_row({x: 1, y: 1}, ">=", 4)
        lp.add_row({x: 1}, "<=", 3)
        res = simplex_solve(lp)
        assert res.objective == 2 * 3 + 3 * 1
        assert res.duals[0] * 4 + res.duals[1] * 3 == res.objective


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_simplex_random_duality(nvars, nrows, data):
    # random bounded-feasible LPs: exact strong duality and slackness
    lp = LinearProgram()
    for j in range(nvars):
        lp.add_var(data.draw(st.integers(-5, 5)))
    rows = []
    for i in range(nrows):
        coefs = {
            j: data.draw(st.integers(0, 4), label=f"a{i}{j}") for j in range(nvars)
        }
        rhs = data.draw(st.integers(0, 8), label=f"b{i}")
        lp.add_row(coefs, "<=", rhs)
    # keep it bounded: total mass row
    lp.add_row({j: 1 for j in range(nvars)}, "<=", 10)
    res = simplex_solve(lp)
    assert res.objective == sum(
        c * v for c, v in zip(lp.objective, res.x)
    )
    dual_obj = sum(y * lp.rows[i][2] for i, y in enumerate(res.duals))
    assert dual_obj == res.objective
    for i, y in enumerate(res.duals):
        coefs, _rel, rhs = lp.rows[i]
        activity = sum(coefs.get(j, ZERO) * res.x[j] for j in range(nvars))
        assert y <= ZERO  # <= rows in a min problem
        if y != ZERO:
            assert activity == rhs


class TestLazyRowScale:
    """Each sparse tableau row keeps the det at which it was last written
    and stores no zero."""

    @staticmethod
    def start(rows, rhs, basis, rc):
        """A tableau over sparse copies of dense `rows`, and its rational
        reference state (rows, rhs, rc, basis)."""
        t = lp_mod._Tableau(
            [{j: a for j, a in enumerate(r) if a} for r in rows], list(rhs), list(basis)
        )
        t.rc = list(rc)
        ref = ([[rat(a) for a in r] for r in rows], [rat(b) for b in rhs],
               [rat(a) for a in rc], list(basis))
        return t, ref

    def assert_matches(self, t, ref):
        ref_rows, ref_rhs, ref_rc, ref_basis = ref
        assert t.basis == ref_basis
        assert [
            [rat(row.get(j, 0), s) for j in range(len(ref_rc))] + [rat(b, s)]
            for row, b, s in zip(t.rows, t.rhs, t.scale)
        ] == [r + [b] for r, b in zip(ref_rows, ref_rhs)]
        assert [rat(a, t.rc_scale) for a in t.rc] == ref_rc
        # the sparse-row invariant: no stored zero
        assert all(a for row in t.rows for a in row.values())

    def test_pivot_leaves_rows_with_zero_pivot_entry_untouched(self):
        # basis = slack columns 2, 3, 4; the first pivot (row 0, column 0)
        # has p = 2 != det = 1, and row 1 has no entry in column 0
        t, ref = self.start(
            [[2, 1, 1, 0, 0], [0, 3, 0, 1, 0], [1, 1, 0, 0, 1]], [4, 6, 3], [2, 3, 4],
            [-1, -1, 0, 0, 0],
        )
        untouched = t.rows[1]
        t.pivot(0, 0)
        assert t.rows[1] is untouched and untouched == {1: 3, 3: 1}
        assert t.rhs[1] == 6
        assert (t.det, t.scale, t.rc_scale) == (2, [2, 1, 2], 2)
        reference_simplex._pivot(*ref, 0, 0)
        self.assert_matches(t, ref)
        # the next pivot is on the stale row 1 (scale 1, det 2)
        t.pivot(1, 1)
        reference_simplex._pivot(*ref, 1, 1)
        assert t.det == 6
        self.assert_matches(t, ref)

    # Columns 0, 1 structural, 2..5 slack.  Pivot (0, 0) has p = 2 and every
    # row it updates has scale 1: the rewrite branch.  Pivot (1, 1) has true
    # value 1, so p stays 2 and rows 2, 3 and rc, last written at scale 2,
    # take the in-place branch.  Column 2 cancels in row 3 on the first
    # pivot and in row 2 on the second.
    BRANCHES = (
        [[2, 0, 1, 0, 0, 0], [1, 1, 0, 1, 0, 0], [1, 1, 0, 0, 1, 0], [2, 1, 1, 0, 0, 1]],
        [2, 3, 5, 6],
        [2, 3, 4, 5],
        [-1, -1, 0, 0, 0, 0],
    )

    def test_in_place_and_rewrite_branches_match_reference(self):
        t, ref = self.start(*self.BRANCHES)
        before = list(t.rows)
        t.pivot(0, 0)
        reference_simplex._pivot(*ref, 0, 0)
        assert t.det == 2 and t.scale == [2, 2, 2, 2] and t.rc_scale == 2
        assert [t.rows[k] is before[k] for k in (1, 2, 3)] == [False] * 3  # rewritten
        self.assert_matches(t, ref)
        before = list(t.rows)
        t.pivot(1, 1)
        reference_simplex._pivot(*ref, 1, 1)
        assert t.det == 2 and t.scale == [2, 2, 2, 2] and t.rc_scale == 2
        assert t.rows[2] is before[2] and t.rows[3] is before[3]  # updated in place
        self.assert_matches(t, ref)

    def test_rc_rescaled_in_one_pass_when_rc_scale_is_not_p(self):
        # Columns 0, 1, 2 and 5 structural, 3 and 4 slack; column 5 is empty,
        # so its reduced cost only ever takes the rescale.  Pivot (0, 0) has
        # p = 2, pivot (1, 1) then has p = 3 while rc was written at 2.
        t, ref = self.start(
            [[2, 1, 0, 1, 0, 0], [1, 2, 1, 0, 1, 0]], [4, 6], [3, 4], [-1, -1, -3, 0, 0, -1]
        )
        t.pivot(0, 0)
        reference_simplex._pivot(*ref, 0, 0)
        assert t.rc_scale == 2 and t.rc[5] == -2
        self.assert_matches(t, ref)
        assert 5 not in t.rows[1] and t.rc[1]  # rc[5] lies outside the pivot row
        t.pivot(1, 1)
        reference_simplex._pivot(*ref, 1, 1)
        assert t.det == t.rc_scale == 3
        assert t.rc == [0, 0, -8, 1, 1, -3]
        self.assert_matches(t, ref)

    def test_cancelled_entries_are_not_stored(self):
        t, _ref = self.start(*self.BRANCHES)
        t.pivot(0, 0)  # rewrite: 2*row3 - 2*row0 cancels columns 0 and 2
        assert t.rows[3] == {1: 2, 5: 2}
        t.pivot(1, 1)  # in place: row2 - row1 cancels columns 1 and 2
        assert t.rows[2] == {3: -2, 4: 2}
        assert t.rows[3] == {2: 1, 3: -2, 5: 2}
        assert all(a for row in t.rows for a in row.values())
        assert t.rc == [0, 0, 0, 2, 0, 0]

    def test_stale_rows_at_every_reading_point(self, monkeypatch):
        # min -2a - b/3 + 2c - 4d  st  b = 2/3,  4b >= -1/2,
        # 2a + 2c/3 + 3d = 0 and its negation: a redundant pair that leaves
        # an artificial basic at zero after phase 1; solved in ints
        lp = LinearProgram()
        for c in (-2, rat(-1, 3), 2, -4):
            lp.add_var(c)
        lp.add_row({1: 1}, "=", rat(2, 3))
        lp.add_row({1: 4}, ">=", rat(-1, 2))
        lp.add_row({0: 2, 2: rat(2, 3), 3: 3}, "=", 0)
        lp.add_row({0: -2, 2: rat(-2, 3), 3: -3}, "=", 0)
        lp = in_ints(lp)

        def stale(t, rows=None):
            return [
                r for r in (range(len(t.rows)) if rows is None else rows)
                if t.scale[r] != t.det
            ]

        seen = []
        primal_loop, pivot = lp_mod._primal_loop, lp_mod._Tableau.pivot
        in_loop = [False]

        def traced_loop(t, *args):
            if seen:  # every call after the first is phase 2
                seen.append(("phase 2 start", stale(t)))
            in_loop[0] = True
            done = primal_loop(t, *args)
            in_loop[0] = False
            # the phase-1 check sums the rhs of the rows with an artificial
            # basic (columns 5..); the read-out divides each structural row
            # (columns 0..3) by its own scale
            if not seen:
                seen.append(("phase 1 check", stale(t, [r for r, b in enumerate(t.basis) if b >= 5])))
            else:
                seen.append(("read-out", stale(t, [r for r, b in enumerate(t.basis) if b < 4])))
            return done

        def traced_pivot(t, r, c, hit=None):
            if not in_loop[0]:
                seen.append(("clean-up pivot row", stale(t, [r])))
            pivot(t, r, c, hit)

        monkeypatch.setattr(lp_mod, "_primal_loop", traced_loop)
        monkeypatch.setattr(lp_mod._Tableau, "pivot", traced_pivot)
        res = simplex_solve(lp)
        monkeypatch.undo()
        labels = [label for label, _rows in seen]
        assert labels == [
            "phase 1 check", "clean-up pivot row", "phase 2 start", "read-out",
        ]
        assert all(rows for _label, rows in seen), seen
        ref = reference_simplex.simplex_solve(lp)
        assert (res.x, res.duals, res.objective, res.pivots) == (
            ref.x, ref.duals, ref.objective, ref.pivots,
        )


def zero_rhs_lp(draw) -> LinearProgram:
    """A small program whose rows all have right-hand side 0, so the origin
    is a degenerate vertex of every basis that reaches it, and, in most
    draws, one row sum(x) >= k that keeps x away from 0.  Its costs are
    >= 0, many of them 0, so the dual simplex meets ties in its ratio test
    as well."""
    lp = LinearProgram()
    nvars = draw(2, 5)
    for _ in range(nvars):
        lp.add_var(rat(max(0, draw(-3, 6)), draw(1, 2)))
    for _ in range(draw(1, 4)):
        coefs = {j: rat(draw(-9, 9), draw(1, 4)) for j in range(nvars) if draw(0, 3)}
        lp.add_row(coefs, RELATIONS[draw(0, 2)], 0)
    if draw(0, 3):
        lp.add_row({j: 1 for j in range(nvars)}, ">=", draw(1, 3))
    return lp


class TestDualStart:
    """The dual simplex from `dual_start` ends on degenerate programs, at
    the optimum the two-phase simplex reaches.  The pivot limit is cut to a
    few hundred, so a cycle fails fast."""

    LIMIT = 300

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_zero_rhs_lps_end_at_the_two_phase_optimum(self, data):
        lp = in_ints(zero_rhs_lp(lambda lo, hi: data.draw(st.integers(lo, hi))))
        with mock.patch.object(lp_mod, "PIVOT_LIMIT", self.LIMIT):
            got = outcome(simplex_solve, lp, lp_mod.dual_start(lp.objective))
        want = outcome(reference_simplex.simplex_solve, lp)
        assert got[0] == want[0]
        if got[0] == "optimal":
            assert got[3] == want[3]
        else:
            assert got == want


def equality_lp(draw) -> LinearProgram:
    """A small LP whose rows are all =, with rational data of both signs,
    feasible at a drawn x0 >= 0, and mostly nonnegative costs so that most
    programs are bounded.  Most programs also get one redundant row: a
    nonzero multiple of a row or the sum of two rows, which leaves an
    artificial basic at zero after phase 1.  Every dual then comes from
    the basis system, none from a slack."""

    def q():
        return rat(draw(-4, 4), draw(1, 3))

    lp = LinearProgram()
    nvars = draw(1, 5)
    for _ in range(nvars):
        lp.add_var(rat(draw(-1, 4), draw(1, 3)))
    x0 = [rat(draw(0, 3), draw(1, 2)) for _ in range(nvars)]
    rows = []
    for _ in range(draw(1, 4)):
        coefs = {j: q() for j in range(nvars) if draw(0, 3)}
        rows.append((coefs, sum((v * x0[j] for j, v in coefs.items()), ZERO)))
    kind = draw(0, 2)
    if kind == 1:
        coefs, rhs = rows[draw(0, len(rows) - 1)]
        k = rat(draw(1, 3), draw(1, 3)) * (-1) ** draw(0, 1)
        rows.append(({j: k * v for j, v in coefs.items()}, k * rhs))
    elif kind == 2 and len(rows) > 1:
        (a, ra), (b, rb) = rows[0], rows[1]
        rows.append(({j: a.get(j, ZERO) + b.get(j, ZERO) for j in a.keys() | b.keys()}, ra + rb))
    for coefs, rhs in rows:
        lp.add_row(coefs, "=", rhs)
    return lp


class TestDualRecovery:
    """Duals solved from the final basis, on first read."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equality_lps_match_reference(self, data):
        lp = in_ints(equality_lp(lambda lo, hi: data.draw(st.integers(lo, hi))))
        assert outcome(simplex_solve, lp) == outcome(reference_simplex.simplex_solve, lp)

    def test_equality_sweep_covers_redundant_rows(self, monkeypatch):
        # the seeded sweep reaches optimal bases with an artificial left
        # basic, and bases whose system needs elimination, not peeling alone
        rng = random.Random(16)
        seen = Counter()
        solve_system = lp_mod._integral_solution

        def counted(equations, unknowns):
            equations = list(equations)
            seen["system"] += 1
            seen["shared_unknown"] += any(
                sum(i in coefs for coefs, _b in equations) > 1 for i in unknowns
            )
            return solve_system(equations, unknowns)

        monkeypatch.setattr(lp_mod, "_integral_solution", counted)
        for _ in range(400):
            lp = in_ints(equality_lp(rng.randint))
            got = outcome(simplex_solve, lp)
            assert got == outcome(reference_simplex.simplex_solve, lp, seen)
            seen[got[0]] += 1
        for case in ("optimal", "artificial_left_basic", "system", "shared_unknown"):
            assert seen[case] > 0, case

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_no_row_stores_an_artificial_column(self, name, monkeypatch):
        # columns first_art.. are the artificials; no pivot may leave one in
        # a row, and rc spans the structural and slack columns alone.  No
        # row stores the second column of a mirrored pair either, and the
        # extremal LPs have pairs.
        first_art = []
        pivots = [0]
        paired = [0]
        solve, pivot = lp_mod.simplex_solve, lp_mod._Tableau.pivot

        def tracked_solve(lp, start=None, **kwargs):
            first_art.append(lp.num_vars + sum(rel != "=" for _c, rel, _r in lp.rows))
            return solve(lp, start, **kwargs)

        def checked_pivot(t, r, c, hit=None):
            pivot(t, r, c, hit)
            pivots[0] += 1
            paired[0] += t.paired > 0
            assert len(t.rc) == first_art[-1]
            assert all(j < first_art[-1] for row in t.rows for j in row)
            assert not any(j < t.paired and j & 1 for row in t.rows for j in row)

        monkeypatch.setattr(lp_mod, "simplex_solve", tracked_solve)
        monkeypatch.setattr(lp_mod._Tableau, "pivot", checked_pivot)
        g = parse_instance((GOLDEN / f"{name}.txt").read_text())
        for solver in SOLVER_CHOICES:
            try:
                run(g, solver=solver)
            except NoPerfectMatching:
                pass
        assert first_art and pivots[0] > 0
        assert paired[0] > 0

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_extremal_dual_never_recovers_duals(self, name, monkeypatch):
        # the combinatorial route solves only extremal-dual LPs; reading
        # .duals on any result would raise
        def recover(_res):
            raise AssertionError("duals recovered")

        monkeypatch.setattr(lp_mod.SimplexResult, "duals", property(recover))
        g = parse_instance((GOLDEN / f"{name}.txt").read_text())
        try:
            result = run(g, solver="combinatorial")
        except NoPerfectMatching:
            return
        assert result.lp_solves > 0

    def test_inconsistent_recovery_raises_under_optimize_flag(self):
        # python -O strips asserts; each failure of the basis system must
        # still raise StructureViolation
        import subprocess
        import sys

        script = (
            "from cpmatch.errors import StructureViolation\n"
            "from cpmatch.lp import _integral_solution\n"
            "cases = [\n"
            "    ([({0: 1}, 1), ({0: 1}, 2)], [0]),\n"
            "    ([({0: 1, 1: 1}, 3), ({0: 1, 1: -1}, 0)], [0, 1]),\n"
            "    ([({0: 1, 1: 1}, 1)], [0, 1]),\n"
            "    ([({0: 1, 1: 1}, 1), ({0: 1}, 1), ({1: 1}, 0), ({0: 2, 1: 2}, 4)], [0, 1]),\n"
            "]\n"
            "for equations, unknowns in cases:\n"
            "    try:\n"
            "        _integral_solution(equations, unknowns)\n"
            "    except StructureViolation as exc:\n"
            "        print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised dual recovery: inconsistent basis system",
            "raised dual recovery: a division leaves a remainder",
            "raised dual recovery: basis system leaves a dual open",
            "raised dual recovery: inconsistent basis system",
        ]


def paired_lp(draw) -> LinearProgram:
    """A small LP shaped like the extremal-dual program: mirrored pairs
    first, at costs >= 0, then up to two plain variables at costs >= 0, so
    that no program is unbounded.  Its rows have all three relations,
    rational coefficients and right-hand sides of both signs; most programs
    end with an = row that is a multiple of an earlier row, which leaves an
    artificial basic at zero after phase 1."""

    def q():
        return rat(draw(-4, 4), draw(1, 3))

    lp = LinearProgram()
    npairs = draw(1, 3)
    for _ in range(npairs):
        cost = rat(draw(0, 4), draw(1, 3))
        lp.objective += (cost, cost)
        lp.pairs += 1
    for _ in range(draw(0, 2)):
        lp.add_var(rat(draw(0, 4), draw(1, 2)))
    cols = [2 * i for i in range(npairs)] + list(range(2 * npairs, lp.num_vars))
    for _ in range(draw(1, 4)):
        coefs = {j: q() for j in cols if draw(0, 2)}
        lp.add_row(coefs, RELATIONS[draw(0, 2)], q())
    if draw(0, 2):
        coefs, _rel, rhs = lp.rows[draw(0, lp.num_rows - 1)]
        k = rat(draw(1, 3), draw(1, 2)) * (-1) ** draw(0, 1)
        lp.add_row({j: k * v for j, v in coefs.items()}, "=", k * rhs)
    return lp


def paired_case(draw) -> set:
    """One paired program solved by `simplex_solve` against
    `reference_simplex`, which writes every pair out as two columns: the
    same x, duals, objective and pivot count, or the same error.  Returns
    the cases reached: a mirror (the second column of a pair) entering in
    phase 1 or phase 2, a mirror basic at the optimum, and an = row whose
    dual comes from the basis solve with a mirror basic."""
    lp = in_ints(paired_lp(draw))
    seen = set()
    loops = []
    primal_loop, pivot, solve_system = (
        lp_mod._primal_loop, lp_mod._Tableau.pivot, lp_mod._integral_solution)

    def traced_loop(t):
        # the first loop of a solve that starts with an artificial basic is phase 1
        first = not loops and any(b >= len(t.rc) for b in t.basis)
        loops.append("phase 1" if first else "phase 2")
        return primal_loop(t)

    def traced_pivot(t, r, c, hit=None):
        if c < t.paired and c & 1:
            seen.add(f"mirror enters in {loops[-1]}")
        pivot(t, r, c, hit)

    def traced_system(equations, unknowns):
        seen.add("= row dual from the basis solve")
        return solve_system(equations, unknowns)

    with mock.patch.object(lp_mod, "_primal_loop", traced_loop), \
            mock.patch.object(lp_mod._Tableau, "pivot", traced_pivot), \
            mock.patch.object(lp_mod, "_integral_solution", traced_system):
        try:
            res = simplex_solve(lp)
        except LPInfeasible as exc:
            got = ("LPInfeasible", str(exc))
        else:
            got = ("optimal", res.x, res.duals, res.objective, res.pivots)
            t = res.tableau
            if any(b < t.paired and b & 1 for b in t.basis):
                seen.add("mirror basic at the optimum")
            else:
                seen.discard("= row dual from the basis solve")
    assert got == outcome(reference_simplex.simplex_solve, lp)
    assert got == outcome(simplex_solve, reference_simplex.written_out(lp))
    return seen | {got[0]}


class TestMirroredPairs:
    """A mirrored pair is stored as one column (`LinearProgram.pairs`),
    and the kernel makes the pivots of the program written out in full."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_paired_lps_match_the_written_out_reference(self, data):
        paired_case(lambda lo, hi: data.draw(st.integers(lo, hi)))

    def test_seeded_sweep_covers_every_case(self):
        rng = random.Random(23)
        seen = Counter()
        for _ in range(400):
            seen.update(paired_case(rng.randint))
        for case in ("optimal", "LPInfeasible", "mirror enters in phase 1",
                     "mirror enters in phase 2", "mirror basic at the optimum",
                     "= row dual from the basis solve"):
            assert seen[case] > 0, seen

    def test_pairs_come_first_and_rows_give_the_first_column(self):
        # pairs are posed as solve_extremal_dual poses them
        lp = LinearProgram([6, 6, 1, 1])
        lp.pairs = 2
        lp.add_row({0: 1, 2: -1}, "<=", 4)
        # the rule is checked once per program, when it is solved
        bad = LinearProgram(lp.objective, lp.rows + [({1: 1}, "<=", 4)])
        bad.pairs = lp.pairs
        with pytest.raises(ValueError, match="first column of a mirrored pair"):
            simplex_solve(bad)
        lp.add_var(2)
        lp.add_row({4: 1}, ">=", 1)
        assert simplex_solve(lp).x == [ZERO, ZERO, ZERO, ZERO, 1]

    def test_a_paired_program_takes_no_start(self):
        lp = LinearProgram([1, 1])
        lp.pairs = 1
        lp.add_row({0: 1}, "=", -2)
        assert simplex_solve(lp).x == [ZERO, 2]
        with pytest.raises(ValueError, match="without a start"):
            simplex_solve(lp, lp_mod.dual_start(lp.objective))


class TestDualSlacks:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_slacks_match_per_edge_slack(self, data):
        # multigraphs with parallel edges; set keys drawn like the incidence
        # test's sets (numbers -2..n+2), with zero, negative, int-valued and
        # fractional values; nodes may have no key at all.  Costs are the
        # graph's ints or other ints: Rats with drawn denominators, scaled
        # to ints by the lcm of those denominators.
        n = data.draw(st.integers(2, 7))
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        edges = [(u, v, c) for (u, v), c in data.draw(
            st.lists(st.tuples(pair, st.integers(-5, 20)), max_size=14)
        )]
        g = make_graph(n, edges)
        value = st.one_of(
            st.integers(-6, 6), st.builds(rat, st.integers(-6, 6), st.integers(1, 3))
        )
        dual = DualSolution(data.draw(st.dictionaries(st.integers(1, n), value)))
        for s, val in data.draw(st.lists(
            st.tuples(st.frozensets(st.integers(-2, n + 2)), value), max_size=5
        )):
            dual[s] = val
        costs = [c for _u, _v, c in g.edges]
        if data.draw(st.booleans(), label="scaled costs"):
            dens = [data.draw(st.integers(1, 4)) for _c in costs]
            scale = math.lcm(*dens)
            costs = [c * (scale // k) for c, k in zip(costs, dens)]
        got = dual.slacks(g, costs)
        assert all(type(slack) is int for slack in got)
        assert [Rat(slack, got.unit) for slack in got] == per_edge_slacks(dual, g, costs)


class TestBuildPrimal:
    def test_bowtie_no_cuts(self, bowtie, bowtie_perturbed):
        lp, keys = build_primal(bowtie, bowtie_perturbed.scaled, [])
        assert lp.num_vars == 7
        assert lp.num_rows == 6
        assert all(rel == "=" for _c, rel, _r in lp.rows)

    def test_debug_dump(self, bowtie, bowtie_perturbed):
        lp, _keys = build_primal(bowtie, bowtie_perturbed.scaled, [])
        text = format_lp(lp)
        assert text.startswith("min 64 32 16 8 4 2 1281")
        assert len(text.splitlines()) == 7

    def test_bowtie_with_cuts(self, bowtie, bowtie_perturbed, bowtie_family):
        lp, keys = build_primal(bowtie, bowtie_perturbed.scaled, bowtie_family.sets)
        assert lp.num_vars == 7 and lp.num_rows == 8

    def test_single_edge(self):
        g = make_graph(2, [(1, 2, 5)])
        lp, keys = build_primal(g, perturb([5]).scaled, [])
        assert lp.num_vars == 1 and lp.num_rows == 2


class TestSolvePrimal:
    def test_bowtie_bipartite_relaxation(self, bowtie, bowtie_perturbed):
        x, dual, obj = solve_primal(bowtie, bowtie_perturbed.scaled, LaminarFamily(6))
        assert obj == 63
        assert x == [HALF] * 6 + [ZERO]

    def test_bowtie_with_triangle_cuts(self, bowtie, bowtie_perturbed, bowtie_family):
        x, dual, obj = solve_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        assert obj == 1347  # 64 + 2 + 1281
        assert x == [ONE, ZERO, ZERO, ZERO, ZERO, ONE, ONE]

    def test_six_cycle(self, six_cycle):
        pc = perturb([1] * 6)
        x, dual, obj = solve_primal(six_cycle, pc.scaled, LaminarFamily(6))
        assert obj == 213
        assert x == [ZERO, ONE, ZERO, ONE, ZERO, ONE]

    def test_single_edge_redundant_row(self):
        g = make_graph(2, [(1, 2, 5)])
        x, dual, obj = solve_primal(g, perturb([5]).scaled, LaminarFamily(2))
        assert x == [ONE] and obj == 11

    def test_infeasible_reports(self):
        g = make_graph(4, [(1, 2, 0), (3, 4, 0), (1, 3, 0)])
        fam = LaminarFamily(4)
        x, dual, obj = solve_primal(g, [c for _u, _v, c in g.edges], fam)
        assert x[0] == ONE and x[1] == ONE
        g2 = make_graph(4, [(1, 2, 0), (1, 3, 0), (1, 4, 0)])
        with pytest.raises(LPInfeasible):
            solve_primal(g2, [c for _u, _v, c in g2.edges], fam)

    def test_corrupted_dual_raises_under_optimize_flag(self):
        # python -O strips asserts; the duality check must still fire
        import subprocess
        import sys

        script = (
            "import cpmatch.lp as lp\n"
            "from cpmatch import LaminarFamily, StructureViolation, make_graph\n"
            "real = lp.simplex_solve\n"
            "def corrupt(prog, start=None, **kwargs):\n"
            "    res = real(prog, start, **kwargs)\n"
            "    res.duals[0] += 1\n"
            "    return res\n"
            "lp.simplex_solve = corrupt\n"
            "g = make_graph(2, [(1, 2, 5)])\n"
            "try:\n"
            "    lp.solve_primal(g, [5], LaminarFamily(2))\n"
            "except StructureViolation as exc:\n"
            "    print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised strong duality violated\n"


def laminar_draw(draw, n: int) -> list:
    """Odd sets of a random laminar family over nodes 1..n: each set is the
    union of three items that are still top-level (single nodes or earlier
    sets), so it is odd and crosses nothing.  Sets of more than n - 3 nodes
    are left out."""
    items = [frozenset({u}) for u in range(1, n + 1)]
    sets = []
    for _ in range(draw(0, 4)):
        if len(items) < 3:
            break
        picked = [items.pop(draw(0, len(items) - 1)) for _ in range(3)]
        s = frozenset().union(*picked)
        if len(s) > n - 3:
            items.extend(picked)
            break
        sets.append(s)
        items.append(s)
    return sets


def warm_case(draw) -> str:
    """One warm re-solve of P_F2 from P_F1's final tableau, F1 a subfamily
    of a random laminar family F2 on a random graph with perturbed costs,
    checked against `reference_simplex` solving P_F2 cold: the same x and
    objective with a basis dual that passes `slackness_violation`, or
    LPInfeasible from both.  Then F2 less one set of F1, if F1 has one,
    must be solved from the dual start.  Returns the case reached."""
    n = 2 * draw(3, 5)
    # one draw in three has edges only inside blocks of three nodes, and
    # the blocks for family: no perfect matching, often a fractional one
    blocks = draw(0, 2) == 0
    edges = [(u, v, draw(0, 6)) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if (u - 1) // 3 == (v - 1) // 3 or not blocks and draw(0, 9) < 4]
    g = make_graph(n, edges)
    costs = perturb([c for _u, _v, c in edges]).scaled
    if blocks:
        family = [frozenset(range(b, b + 3)) for b in range(1, n - 1, 3)]
    else:
        family = laminar_draw(draw, n)
    f1 = LaminarFamily(n, [s for s in family if draw(0, 1)])
    f2 = LaminarFamily(n, family)
    starts = []
    real = lp_mod.simplex_solve

    def recorded(lp, start=None):
        starts.append(len(start.rows))  # 0 for the dual start
        return real(lp, start)

    warm = lp_mod.WarmStart()
    with mock.patch.object(lp_mod, "simplex_solve", recorded):
        try:
            solve_primal(g, costs, f1, warm)
        except LPInfeasible:
            return "first solve infeasible"
        want = outcome(reference_simplex.simplex_solve, build_primal(g, costs, f2.sets)[0])
        try:
            x, dual, obj = solve_primal_with_basis_dual(g, costs, f2, warm)
        except LPInfeasible as exc:
            assert want == ("LPInfeasible", str(exc))
            return "warm infeasible"
        assert starts[-1] > 0
        assert want[0] == "optimal" and (x, obj) == (want[1], want[3])
        cut_value = dict(zip(f2.sets, cut_values(x, map(g.delta, f2.sets))))
        assert slackness_violation(x, dual, dual.slacks(g, costs), cut_value) is None
        if not f1.sets:
            return "warm optimal"
        dropped = f1.sets[draw(0, len(f1) - 1)]
        x3, _dual, _obj = solve_primal(g, costs, LaminarFamily(n, set(family) - {dropped}), warm)
        assert starts[-1] == 0
        want = outcome(reference_simplex.simplex_solve, build_primal(
            g, costs, [s for s in f2.sets if s != dropped])[0])
        assert x3 == want[1]
        return "cut dropped"


def dual_start_case(draw) -> set:
    """One P_F on a drawn graph, solved by `solve_primal` (every relaxation
    by the dual simplex, from the dual start or a warm tableau) against
    `reference_simplex` solving the same program by the two-phase simplex:
    the same x and objective, with a basis dual that `certify_optimum`
    accepts, or LPInfeasible("phase-1 optimum positive") from both.

    The graph is a multigraph with base costs in [-5, 20], perturbed, so
    that P_F has one optimum and some costs are negative.  One draw in four
    has only bipartite components, whose degree rows are linearly
    dependent; one in four has edges only inside blocks of three nodes and
    the blocks as its family, which leaves no feasible point.  The family
    is otherwise a random laminar one, and half the draws first solve a
    subfamily and then the family warm.  Returns the cases reached."""
    n = 2 * draw(3, 5)
    kind = draw(0, 3)
    pairs = []
    if kind == 0:  # bipartite: each component joins its first half to its second
        comps = [list(range(1, n + 1))] if draw(0, 1) else [list(range(1, n // 2 + 1)),
                                                              list(range(n // 2 + 1, n + 1))]
        for comp in comps:
            half = len(comp) // 2
            pairs += [(u, v) for u in comp[:half] for v in comp[half:] if draw(0, 2)]
    elif kind == 1:  # odd blocks: no feasible point once the blocks are cuts
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if (u - 1) // 3 == (v - 1) // 3]
    else:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if draw(0, 9) < 5]
    edges = [(u, v, draw(-5, 20)) for u, v in pairs for _ in range(draw(1, 2))]
    if not edges:
        return {"no edges"}
    g = make_graph(n, edges)
    costs = perturb([c for _u, _v, c in edges]).scaled
    if kind == 1:
        family = [frozenset(range(b, b + 3)) for b in range(1, n - 1, 3)]
    else:
        family = laminar_draw(draw, n)
    fam = LaminarFamily(n, family)
    cases = {"negative cost"} if min(costs) < 0 else set()
    cases.add("cuts" if family else "no cuts")
    warm = lp_mod.WarmStart()
    if draw(0, 1):
        try:
            solve_primal(g, costs, LaminarFamily(n, [s for s in family if draw(0, 1)]), warm)
        except LPInfeasible:
            warm = lp_mod.WarmStart()
    want = outcome(reference_simplex.simplex_solve, build_primal(g, costs, fam.sets)[0])
    try:
        x, dual, obj = solve_primal_with_basis_dual(g, costs, fam, warm)
    except LPInfeasible as exc:
        assert want == ("LPInfeasible", "phase-1 optimum positive") == ("LPInfeasible", str(exc))
        return cases | {"infeasible"}
    assert want[0] == "optimal" and (x, obj) == (want[1], want[3])
    lp_mod.certify_optimum(g, costs, fam.sets, x, obj, dual)
    t = warm.tableau
    if any(b >= len(t.rc) for b in t.basis):
        cases.add("artificial left basic")
    return cases | {"optimal"}


class TestDualStartRelaxation:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_dual_start_matches_two_phase_reference(self, data):
        dual_start_case(lambda lo, hi: data.draw(st.integers(lo, hi)))

    def test_seeded_sweep_covers_every_case(self):
        rng = random.Random(22)
        seen = Counter()
        for _ in range(300):
            seen.update(dual_start_case(rng.randint))
        for case in ("optimal", "infeasible", "negative cost", "cuts", "no cuts",
                     "artificial left basic"):
            assert seen[case] > 0, seen


class TestWarmStart:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_warm_resolve_matches_cold_reference(self, data):
        warm_case(lambda lo, hi: data.draw(st.integers(lo, hi)))

    def test_seeded_sweep_covers_every_case(self):
        rng = random.Random(18)
        seen = Counter(warm_case(rng.randint) for _ in range(200))
        for case in ("warm optimal", "warm infeasible", "cut dropped"):
            assert seen[case] > 0, seen


class TestExtremalDual:
    def test_no_cuts_reduces_to_node_dual(self, bowtie, bowtie_perturbed):
        fam = LaminarFamily(6)
        x, _dual, _obj = solve_primal(bowtie, bowtie_perturbed.scaled, fam)
        psi = solve_extremal_dual(
            bowtie, bowtie_perturbed.scaled, fam, x, DualSolution.zeros(bowtie)
        )
        assert [psi.node(u) for u in range(1, 7)] == [
            rat(40), rat(24), rat(-8), rat(5), rat(3), rat(-1)
        ]
        assert psi.set_keys() == []

    def test_gamma_already_optimal_returns_gamma(self, bowtie, bowtie_perturbed):
        fam = LaminarFamily(6)
        x, _dual, _obj = solve_primal(bowtie, bowtie_perturbed.scaled, fam)
        gamma = DualSolution(
            {1: rat(40), 2: rat(24), 3: rat(-8), 4: rat(5), 5: rat(3), 6: rat(-1)}
        )
        psi = solve_extremal_dual(bowtie, bowtie_perturbed.scaled, fam, x, gamma)
        keys = list(range(1, 7))
        assert extremal_distance(psi, gamma, keys) == ZERO
        assert all(psi.node(u) == gamma.node(u) for u in range(1, 7))

    def test_bowtie_after_first_cut_round(self, bowtie, bowtie_perturbed, bowtie_family):
        # frozen basic optimum of the tie-breaking program: the whole bridge
        # residual lands on the lexicographically first triangle set
        x, _dual, obj = solve_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        gamma = DualSolution(
            {1: rat(40), 2: rat(24), 3: rat(-8), 4: rat(5), 5: rat(3), 6: rat(-1),
             TRIANGLE_LEFT: ZERO, TRIANGLE_RIGHT: ZERO}
        )
        psi = solve_extremal_dual(bowtie, bowtie_perturbed.scaled, bowtie_family, x, gamma)
        assert sum(psi.values(), ZERO) == obj == 1347
        assert [psi.node(u) for u in range(1, 7)] == [
            rat(40), rat(24), rat(-8), rat(5), rat(3), rat(-1)
        ]
        assert psi.of_set(TRIANGLE_LEFT) == 1284
        assert psi.of_set(TRIANGLE_RIGHT) == ZERO

    def test_infeasible_for_nonoptimal_x(self, bowtie, bowtie_perturbed):
        fam = LaminarFamily(6)
        bad_x = [ONE, ZERO, ZERO, ZERO, ZERO, ONE, ONE]  # feasible, not optimal
        with pytest.raises(LPInfeasible):
            solve_extremal_dual(
                bowtie, bowtie_perturbed.scaled, fam, bad_x, DualSolution.zeros(bowtie)
            )

    def test_cut_below_one_raises(self, bowtie, bowtie_perturbed, bowtie_family):
        # both triangles at 1/2: every degree is 1, and neither cut is crossed
        x = [HALF] * 6 + [ZERO]
        with pytest.raises(StructureViolation, match="below one on a cut") as info:
            solve_extremal_dual(
                bowtie, bowtie_perturbed.scaled, bowtie_family, x, DualSolution.zeros(bowtie)
            )
        assert info.value.witness == sorted(TRIANGLE_LEFT)

    def test_extremal_dual_is_dual_optimum(self, bowtie, bowtie_perturbed, bowtie_family):
        x, basis_dual, obj = solve_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        gamma = DualSolution.zeros(bowtie)
        gamma[TRIANGLE_LEFT] = ZERO
        gamma[TRIANGLE_RIGHT] = ZERO
        psi = solve_extremal_dual(bowtie, bowtie_perturbed.scaled, bowtie_family, x, gamma)
        assert sum(psi.values(), ZERO) == obj
        assert dual_feasible(psi, bowtie, bowtie_perturbed.scaled, bowtie_family.sets)

    def test_edge_rows_list_every_crossing_key_in_key_order(
        self, bowtie, bowtie_perturbed, bowtie_family, monkeypatch
    ):
        import cpmatch.lp as lp_mod

        built = []
        real = lp_mod.simplex_solve

        def capture(lp, start=None, **kwargs):
            built.append(lp)
            return real(lp, start, **kwargs)

        monkeypatch.setattr(lp_mod, "simplex_solve", capture)
        x, _dual, _obj = solve_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        gamma = DualSolution.zeros(bowtie)
        solve_extremal_dual(bowtie, bowtie_perturbed.scaled, bowtie_family, x, gamma)
        lp = built[-1]
        # keys: nodes, then the tight sets; key i owns the mirrored pair of
        # variables 2i (up), 2i+1 (down), at one cost, and a row gives the
        # coefficient of up alone (down's is minus it)
        keys = list(range(1, 7)) + [TRIANGLE_LEFT, TRIANGLE_RIGHT]
        assert lp.pairs == len(keys) and lp.num_vars == 2 * len(keys)
        assert all(lp.objective[2 * i] == lp.objective[2 * i + 1] for i in range(len(keys)))
        for e, (u, v, _c) in enumerate(bowtie.edges):
            want = {}
            for i, key in enumerate(keys):
                if key in (u, v) if isinstance(key, int) else (u in key) != (v in key):
                    want[2 * i] = ONE
            coefs, _rel, _rhs = lp.rows[e]
            assert list(coefs.items()) == list(want.items())
        assert len(lp.rows[6][0]) == 4  # the bridge: its two ends and both triangles
        # each tight set's row down - up <= Gamma(S) gives up's coefficient, -1
        assert [coefs for coefs, _rel, _rhs in lp.rows[7:]] == [{12: -ONE}, {14: -ONE}]

    @staticmethod
    def with_moved_deviation(monkeypatch, column, rhs):
        """Make lp.simplex_solve return its tableau with the row where
        deviation `column` is basic given right-hand side rhs(scale)."""
        real = lp_mod.simplex_solve

        def moved(lp, start=None):
            res = real(lp, start)
            t = res.tableau
            r = t.basis.index(column)
            t.rhs[r] = rhs(t.scale[r])
            return res

        monkeypatch.setattr(lp_mod, "simplex_solve", moved)

    def test_a_moved_deviation_breaks_strong_duality(
        self, bowtie, bowtie_perturbed, bowtie_family, monkeypatch
    ):
        # up of TRIANGLE_LEFT (key 6, column 12) is basic at 1289; one more
        # unit keeps Psi >= 0 and moves sum(Psi) off c.x
        x, _dual, _obj = solve_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        gamma = DualSolution.zeros(bowtie)
        self.with_moved_deviation(monkeypatch, 12, lambda s: 1290 * s)
        with pytest.raises(StructureViolation, match="^extremal dual is not a dual optimum$"):
            solve_extremal_dual(bowtie, bowtie_perturbed.scaled, bowtie_family, x, gamma)

    def test_a_moved_deviation_makes_a_cut_negative(
        self, bowtie, bowtie_perturbed, bowtie_family, monkeypatch
    ):
        x, _dual, _obj = solve_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        gamma = DualSolution.zeros(bowtie)
        self.with_moved_deviation(monkeypatch, 12, lambda s: -s)
        with pytest.raises(StructureViolation, match="^extremal dual is negative on a cut$") as info:
            solve_extremal_dual(bowtie, bowtie_perturbed.scaled, bowtie_family, x, gamma)
        assert info.value.witness == sorted(TRIANGLE_LEFT)


class TestExtremalTracerBoundary:
    """benchmarks/tracing.py counts every lp.extremal.* metric at the
    lp.simplex_solve call solve_extremal_dual makes: its pivots, its
    program's tableau_cells, and the bit lengths of its x and duals."""

    @staticmethod
    def tableau_cells(lp) -> int:
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        return tracing.tableau_cells(lp)

    @pytest.mark.parametrize("cuts, cells, weight", [(False, 133, 1), (True, 225, 3)])
    def test_one_simplex_call_matches_the_reference(
        self, bowtie, bowtie_perturbed, bowtie_family, cuts, cells, weight
    ):
        # weight: the lcm of the tight-set sizes, by which both int programs
        # scale the rational weights 1/|S|, and so the rational duals; with
        # Gamma 0 and int costs no row is scaled
        import reference_extremal

        fam = bowtie_family if cuts else LaminarFamily(6)
        x, _dual, _obj = solve_primal(bowtie, bowtie_perturbed.scaled, fam)
        gamma = DualSolution.zeros(bowtie)
        calls = {}
        for module in (lp_mod, reference_extremal):
            real = module.simplex_solve

            def recorded(lp, *rest):
                res = real(lp, *rest)
                calls.setdefault(module, []).append((lp, res))
                return res

            with mock.patch.object(module, "simplex_solve", recorded):
                module.solve_extremal_dual(bowtie, bowtie_perturbed.scaled, fam, x, gamma)
        ((lp, res),) = calls[lp_mod]
        ((ref_lp, ref),) = calls[reference_extremal]
        assert self.tableau_cells(lp) == cells
        assert res.pivots == ref.pivots > 0
        assert res.x == ref.x
        assert lp.objective == ref_lp.objective and lp.objective[0] == weight
        assert res.duals == ref.duals


def extremal_calls(g, solver) -> list:
    """The (g, costs, fam, x, gamma) of every solve_extremal_dual call of
    one driver run on g."""
    import cpmatch.driver as drv_mod

    calls = []
    real = drv_mod.solve_extremal_dual

    def recorded(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(drv_mod, "solve_extremal_dual", recorded):
        try:
            run(g, solver=solver)
        except NoPerfectMatching:
            pass
    return calls


def int_and_rational_extremal(args) -> tuple:
    """((Psi items, pivots) of `solve_extremal_dual`, the same of the
    rational reference builder), or the error each raises."""
    import reference_extremal

    out = []
    for module in (lp_mod, reference_extremal):
        pivots = []
        real = module.simplex_solve

        def counted(lp, *rest, **kwargs):
            res = real(lp, *rest, **kwargs)
            pivots.append(res.pivots)
            return res

        with mock.patch.object(module, "simplex_solve", counted):
            try:
                psi = module.solve_extremal_dual(*args)
            except (LPInfeasible, StructureViolation) as exc:
                out.append((type(exc).__name__, str(exc)))
                continue
        out.append((list(psi.items()), pivots))
    return tuple(out)


def extremal_pool() -> list:
    """Golden instances, the pinned multi-round draws and two telescopes:
    runs whose later rounds have tight sets and a Gamma positive on some."""
    from instances import MULTI_ROUND_RANDOM, telescope

    from cpmatch import random_instance

    graphs = [parse_instance(p.read_text()) for p in sorted(GOLDEN.glob("*.txt"))]
    graphs += [random_instance(n, p, (0, hi), seed) for n, p, hi, seed in MULTI_ROUND_RANDOM]
    return graphs + [telescope(stages=4, gadgets=2), telescope(stages=2, gadgets=6)]


class TestIntExtremalProgram:
    """`solve_extremal_dual` poses its program in ints: deviations in units
    of 1/d and weights times the lcm of the set sizes.  On every program a
    driver run builds, it must reach the Psi of the rational builder it
    replaced (tests/reference_extremal.py) in as many pivots."""

    def test_every_pool_call_matches_reference(self):
        seen = Counter()
        for g in extremal_pool():
            for solver in ("simplex", "combinatorial"):
                for args in extremal_calls(g, solver):
                    got, want = int_and_rational_extremal(args)
                    assert got == want
                    _g, _costs, fam, _x, gamma = args
                    seen["calls"] += 1
                    seen["positive set gamma"] += any(gamma.of_set(s) > 0 for s in fam.sets)
                    items, pivots = got
                    seen["fractional psi"] += any(v.denominator != 1 for _key, v in items)
                    seen["pivots"] += pivots[0] > 0
        for case in ("positive set gamma", "fractional psi", "pivots"):
            assert seen[case] > 0, seen

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_seeded_driver_draws_match_reference(self, data):
        from cpmatch import random_instance

        n = data.draw(st.sampled_from([4, 6, 8, 10, 12, 14]), label="n")
        density = data.draw(st.sampled_from([0.3, 0.5, 0.8]), label="density")
        hi = data.draw(st.integers(0, 9), label="cost_hi")
        g = random_instance(n, density, (0, hi), data.draw(st.integers(0, 10**6), label="seed"))
        calls = extremal_calls(g, data.draw(st.sampled_from(["simplex", "combinatorial"])))
        if calls:
            got, want = int_and_rational_extremal(data.draw(st.sampled_from(calls)))
            assert got == want
