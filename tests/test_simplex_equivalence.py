"""The integer-preserving `simplex_solve` against the rational reference.

Both kernels run the same entering rule, Bland's or Dantzig's (see
`cpmatch.lp._primal_loop`), so on every program they must make the same
pivots: equal x, duals, objective and pivot count, or the same error.  The
programs are random small LPs, solved under both rules, and every LP the
solver itself builds for the golden instances, solved under the rule its
caller picks.
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
from cpmatch.lp import PRICINGS, LinearProgram, simplex_solve
from cpmatch.rational import Rat, ZERO, rat
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
    lp = random_lp(lambda lo, hi: data.draw(st.integers(lo, hi)))
    for pricing in PRICINGS:
        assert outcome(simplex_solve, lp, pricing=pricing) == outcome(
            reference_simplex.simplex_solve, lp, pricing=pricing
        )


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
def test_int_and_rat_values_give_one_outcome(data):
    # ints enter the tableau as they are and Rats through their
    # denominators; both must give the reference's outcome, every value a Rat
    int_lp, rat_lp = int_and_rat_lps(lambda lo, hi: data.draw(st.integers(lo, hi)))
    assert all(type(c) is int for c in int_lp.objective)
    got = outcome(simplex_solve, int_lp)
    assert got == outcome(simplex_solve, rat_lp) == outcome(reference_simplex.simplex_solve, rat_lp)
    if got[0] == "optimal":
        _tag, x, duals, objective, _pivots = got
        assert all(type(v) is Rat for v in (*x, *duals, objective))


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
    lp = dense_lp(lambda lo, hi: data.draw(st.integers(lo, hi)))
    for pricing in PRICINGS:
        assert outcome(simplex_solve, lp, pricing=pricing) == outcome(
            reference_simplex.simplex_solve, lp, pricing=pricing
        )


def test_seeded_sweep_covers_every_case():
    for pricing in PRICINGS:
        rng = random.Random(20240)
        seen = Counter()
        for _ in range(1500):
            lp = random_lp(rng.randint)
            got = outcome(simplex_solve, lp, pricing=pricing)
            assert got == outcome(reference_simplex.simplex_solve, lp, seen, pricing=pricing)
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
            assert seen[case] > 0, (pricing, case)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_solver_lps_match_reference(name, monkeypatch):
    """Every LP solve_primal and solve_extremal_dual build on a golden
    instance, on all three solvers.  The primal LPs are priced by Dantzig's
    rule and the extremal-dual LPs by Bland's.  A cold solve must match the
    reference under the same rule pivot for pivot.  A warm re-solve from the
    last round's tableau takes other pivots and may end at another optimal
    basis, so it is compared on x and the objective, or on the error,
    against the reference solving the same program cold."""
    compared = Counter()
    rule = {"solve_primal": "dantzig", "solve_extremal_dual": "bland"}

    def checked(lp, start=None, pricing="bland"):
        assert pricing == rule[sys._getframe(1).f_code.co_name]
        want = outcome(reference_simplex.simplex_solve, lp, pricing=pricing)
        if start is None:
            assert outcome(simplex_solve, lp, pricing=pricing) == want
            compared[want[0]] += 1
            compared[pricing] += 1
            return simplex_solve(lp, pricing=pricing)
        compared["warm"] += 1
        try:
            res = simplex_solve(lp, start, pricing)
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
    assert compared["optimal"] > 0 and compared["dantzig"] > 0
    if "lp_solves 1\n" not in EXPECTED[name]["simplex"]["stdout"]:
        assert compared["warm"] > 0
