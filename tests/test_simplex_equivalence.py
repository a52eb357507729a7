"""The integer-preserving `simplex_solve` against the rational reference.

Without a start both kernels run the two-phase simplex under Bland's rule
(see `cpmatch.lp._primal_loop`), so on every program they must make the
same pivots: equal x, duals, objective and pivot count, or the same error.
The programs are random small LPs, posed in ints by `reference_simplex.in_ints`
as the kernel takes them, and every LP the solver itself builds for the
golden instances.  A solve from a start, by the dual simplex, may
end at another optimal basis: it must reach the reference's objective, or
its error, with an x and duals that prove optimality.
"""

import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_simplex
from cpmatch import lp as lp_mod
from cpmatch import parse_instance, run
from cpmatch.driver import SOLVER_CHOICES
from cpmatch.errors import LPInfeasible, LPUnbounded, NoPerfectMatching, StructureViolation
from cpmatch.lp import LinearProgram, dual_start, simplex_solve
from cpmatch.rational import Rat, ZERO, rat
from reference_simplex import in_ints
from test_golden import EXPECTED, GOLDEN

RELATIONS = ("<=", ">=", "=")


def outcome(solve, lp, *args, **kwargs):
    try:
        res = solve(lp, *args, **kwargs)
    except (LPInfeasible, LPUnbounded, StructureViolation) as exc:
        return (type(exc).__name__, str(exc))
    return ("optimal", res.x, res.duals, res.objective, res.pivots)


def random_lp(draw) -> LinearProgram:
    """A small LP with rational data of both signs and all three relations,
    built from `draw(lo, hi)`, an integer in [lo, hi].  Some programs end
    with an equality row and a nonzero multiple of it, which is redundant
    and leaves an artificial basic at zero after phase 1."""

    def q():
        return rat(draw(-4, 4), draw(1, 3))

    lp = LinearProgram()
    nvars = draw(1, 4)
    for _ in range(nvars):
        lp.add_var(q())
    for _ in range(draw(1, 4)):
        coefs = {j: q() for j in range(nvars) if draw(0, 2)}
        lp.add_row(coefs, RELATIONS[draw(0, 2)], q())
    if draw(0, 2) == 0:
        coefs = {j: q() for j in range(nvars)}
        rhs = q()
        k = rat(draw(1, 3), draw(1, 3)) * (-1) ** draw(0, 1)
        lp.add_row(coefs, "=", rhs)
        lp.add_row({j: k * v for j, v in coefs.items()}, "=", k * rhs)
    return lp


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_random_lps_match_reference(data):
    lp = in_ints(random_lp(lambda lo, hi: data.draw(st.integers(lo, hi))))
    assert outcome(simplex_solve, lp) == outcome(reference_simplex.simplex_solve, lp)


def int_and_rat_lps(draw) -> tuple:
    """The same small LP twice: every value an int, then every value that
    int as a Rat.  Relations, signs and the redundant-equality case are as
    in `random_lp`."""
    nvars = draw(1, 4)
    objective = [draw(-4, 4) for _ in range(nvars)]
    rows = []
    for _ in range(draw(1, 4)):
        coefs = {j: draw(-4, 4) for j in range(nvars) if draw(0, 2)}
        rows.append((coefs, RELATIONS[draw(0, 2)], draw(-4, 4)))
    if draw(0, 2) == 0:
        coefs = {j: draw(-4, 4) for j in range(nvars)}
        rhs, k = draw(-4, 4), draw(1, 3) * (-1) ** draw(0, 1)
        rows.append((coefs, "=", rhs))
        rows.append(({j: k * v for j, v in coefs.items()}, "=", k * rhs))
    built = []
    for wrap in (int, Rat):
        lp = LinearProgram()
        for c in objective:
            lp.add_var(wrap(c))
        for coefs, rel, rhs in rows:
            lp.add_row({j: wrap(v) for j, v in coefs.items()}, rel, wrap(rhs))
        built.append(lp)
    return tuple(built)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_int_values_match_reference_and_rat_values_raise(data):
    # ints enter the tableau as they are and give the reference's outcome
    # on the Rat program, every value a Rat; the kernel refuses the Rat
    # program, naming a value
    int_lp, rat_lp = int_and_rat_lps(lambda lo, hi: data.draw(st.integers(lo, hi)))
    assert all(type(c) is int for c in int_lp.objective)
    got = outcome(simplex_solve, int_lp)
    assert got == outcome(reference_simplex.simplex_solve, rat_lp)
    if got[0] == "optimal":
        _tag, x, duals, objective, _pivots = got
        assert all(type(v) is Rat for v in (*x, *duals, objective))
    with pytest.raises(TypeError, match="is not an int"):
        simplex_solve(rat_lp)


def dense_lp(draw) -> LinearProgram:
    """Up to 6 x 6 with about five in six coefficients nonzero, so pivots
    fill rows in and updates cancel entries of the sparse rows."""

    def q():
        return rat(draw(1, 4) * (-1) ** draw(0, 1), draw(1, 3))

    lp = LinearProgram()
    nvars = draw(1, 6)
    for _ in range(nvars):  # mostly positive costs keep most programs bounded
        lp.add_var(rat(draw(-1, 4), draw(1, 3)))
    for _ in range(draw(1, 6)):
        coefs = {j: q() for j in range(nvars) if draw(0, 5)}
        lp.add_row(coefs, RELATIONS[draw(0, 2)], rat(draw(-4, 4), draw(1, 3)))
    return lp


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_dense_lps_match_reference(data):
    lp = in_ints(dense_lp(lambda lo, hi: data.draw(st.integers(lo, hi))))
    assert outcome(simplex_solve, lp) == outcome(reference_simplex.simplex_solve, lp)


def test_seeded_sweep_covers_every_case():
    rng = random.Random(20240)
    seen = Counter()
    for _ in range(1500):
        lp = random_lp(rng.randint)
        int_lp = in_ints(lp)
        got = outcome(simplex_solve, int_lp)
        assert got == outcome(reference_simplex.simplex_solve, int_lp, seen)
        seen[got[0]] += 1
        for coefs, rel, rhs in lp.rows:
            seen[rel] += 1
            seen["negative_rhs"] += rhs < ZERO
            seen["fractional_data"] += any(
                v.denominator != 1 for v in (rhs, *coefs.values())
            )
    for case in (
        "optimal", "LPInfeasible", "LPUnbounded", *RELATIONS, "negative_rhs",
        "fractional_data", "artificial_left_basic", "negative_cleanup_pivot",
    ):
        assert seen[case] > 0, case


def optimality_violation(lp: LinearProgram, res):
    """The first way x and the duals of res fail to prove each other
    optimal for lp, or None: x >= 0 meets every row, the duals have the
    sign of their rows (<= 0 on a <= row, >= 0 on a >= row), every reduced
    cost c_j - y.A_j is >= 0 and 0 where x_j > 0, a dual is 0 where its
    row is slack, and the objective is c.x = y.b."""
    x, y = res.x, res.duals
    if any(v < ZERO for v in x):
        return "x negative"
    for (coefs, rel, rhs), yi in zip(lp.rows, y):
        act = sum((v * x[j] for j, v in coefs.items()), ZERO)
        if {"<=": act > rhs, ">=": act < rhs, "=": act != rhs}[rel]:
            return "row violated"
        if rel == "<=" and yi > ZERO or rel == ">=" and yi < ZERO:
            return "dual sign"
        if yi != ZERO and act != rhs:
            return "slack row with a nonzero dual"
    for j, c in enumerate(lp.objective):
        reduced = c - sum((yi * coefs.get(j, ZERO) for (coefs, _r, _b), yi in zip(lp.rows, y)), ZERO)
        if reduced < ZERO or reduced != ZERO and x[j] != ZERO:
            return "reduced cost"
    cx = sum((c * v for c, v in zip(lp.objective, x)), ZERO)
    if not cx == res.objective == sum((yi * rhs for (_c, _r, rhs), yi in zip(lp.rows, y)), ZERO):
        return "objective"
    return None


def dual_start_outcome(lp: LinearProgram):
    """The outcome of solving lp from its `dual_start`, with x and the
    duals checked to prove each other optimal: ("optimal", objective) or
    the error."""
    try:
        res = simplex_solve(lp, dual_start(lp.objective))
    except (LPInfeasible, StructureViolation) as exc:
        return (type(exc).__name__, str(exc))
    assert optimality_violation(lp, res) is None
    return ("optimal", res.objective)


def nonnegative_costs(lp: LinearProgram) -> LinearProgram:
    return LinearProgram([abs(c) for c in lp.objective], lp.rows)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_dual_start_reaches_the_two_phase_optimum(data):
    # every relation, sign of right-hand side and redundant equality pair
    # of random_lp, with costs made >= 0 so that the dual start is optimal;
    # such a program is never unbounded
    lp = in_ints(nonnegative_costs(random_lp(lambda lo, hi: data.draw(st.integers(lo, hi)))))
    want = outcome(reference_simplex.simplex_solve, lp)
    assert dual_start_outcome(lp) == ((want[0], want[3]) if want[0] == "optimal" else want)


def test_dual_start_sweep_covers_every_case(monkeypatch):
    # the sweep reaches artificials that leave from a negative and from a
    # positive value (a row negated first), and redundant equalities that
    # leave one basic at zero
    seen = Counter()
    real = lp_mod._dual_simplex

    def counted(t):
        first_art = len(t.rc)
        pivot = t.pivot

        def positive():
            return {r for r, b in enumerate(t.basis) if b >= first_art and t.rhs[r] > 0}

        before = [positive()]

        def tracked(r, c):
            if t.basis[r] >= first_art:
                seen["positive artificial" if r in before[0] else "negative artificial"] += 1
            pivot(r, c)
            before[0] = positive()

        t.pivot = tracked
        real(t)
        seen["artificial_left_basic"] += any(b >= first_art for b in t.basis)
        del t.pivot

    monkeypatch.setattr(lp_mod, "_dual_simplex", counted)
    rng = random.Random(20241)
    for _ in range(1500):
        lp = in_ints(nonnegative_costs(random_lp(rng.randint)))
        want = outcome(reference_simplex.simplex_solve, lp)
        got = dual_start_outcome(lp)
        assert got == ((want[0], want[3]) if want[0] == "optimal" else want)
        seen[got[0]] += 1
    for case in ("optimal", "LPInfeasible", "negative artificial", "positive artificial",
                 "artificial_left_basic"):
        assert seen[case] > 0, case


def test_dual_start_refuses_a_negative_cost():
    with pytest.raises(ValueError, match="costs >= 0"):
        dual_start([1, rat(-1, 2)])


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_solver_lps_match_reference(name, monkeypatch):
    """Every LP solve_primal and solve_extremal_dual build on a golden
    instance, on all three solvers.  solve_extremal_dual solves without a
    start, by the two-phase simplex, and must match the reference pivot for
    pivot.  solve_primal solves every relaxation from a start, the dual
    start or the last round's tableau, by the dual simplex: that may end at
    another optimal basis, so it is compared on x and the objective, or on
    the error, against the reference solving the same program."""
    compared = Counter()

    def checked(lp, start=None):
        want = outcome(reference_simplex.simplex_solve, lp)
        if start is None:
            assert sys._getframe(1).f_code.co_name == "solve_extremal_dual"
            assert outcome(simplex_solve, lp) == want
            compared[want[0]] += 1
            return simplex_solve(lp)
        assert sys._getframe(1).f_code.co_name == "solve_primal"
        compared["warm" if start.rows else "dual start"] += 1
        try:
            res = simplex_solve(lp, start)
        except LPInfeasible as exc:
            assert want == ("LPInfeasible", str(exc))
            raise
        assert want[0] == "optimal" and (res.x, res.objective) == (want[1], want[3])
        return res

    monkeypatch.setattr(lp_mod, "simplex_solve", checked)
    g = parse_instance((GOLDEN / f"{name}.txt").read_text())
    for solver in SOLVER_CHOICES:
        try:
            run(g, solver=solver)
        except NoPerfectMatching:
            pass
    assert compared["dual start"] > 0
    if "lp_solves 1\n" not in EXPECTED[name]["simplex"]["stdout"]:
        assert compared["optimal"] > 0 and compared["warm"] > 0
