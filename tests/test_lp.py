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
from cpmatch.errors import LPUnbounded
from cpmatch.rational import HALF, ONE, ZERO, perturb, rat

from conftest import TRIANGLE_LEFT, TRIANGLE_RIGHT, dual_feasible, per_edge_slacks


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


class TestDualSlacks:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_slacks_match_per_edge_slack(self, data):
        # multigraphs with parallel edges; set keys drawn like the incidence
        # test's sets (numbers -2..n+2), with zero, negative and fractional
        # values; nodes may have no key at all
        n = data.draw(st.integers(2, 7))
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        edges = [(u, v, c) for (u, v), c in data.draw(
            st.lists(st.tuples(pair, st.integers(-5, 20)), max_size=14)
        )]
        g = make_graph(n, edges)
        value = st.builds(rat, st.integers(-6, 6), st.integers(1, 3))
        dual = DualSolution(data.draw(st.dictionaries(st.integers(1, n), value)))
        for s, val in data.draw(st.lists(
            st.tuples(st.frozensets(st.integers(-2, n + 2)), value), max_size=5
        )):
            dual[s] = val
        costs = g.costs()
        assert dual.slacks(g, costs) == per_edge_slacks(dual, g, costs)


class TestBuildPrimal:
    def test_bowtie_no_cuts(self, bowtie, bowtie_perturbed):
        lp, keys = build_primal(bowtie, bowtie_perturbed.scaled, LaminarFamily(6))
        assert lp.num_vars == 7
        assert lp.num_rows == 6
        assert all(rel == "=" for _c, rel, _r in lp.rows)

    def test_debug_dump(self, bowtie, bowtie_perturbed):
        lp, _keys = build_primal(bowtie, bowtie_perturbed.scaled, LaminarFamily(6))
        text = format_lp(lp)
        assert text.startswith("min 64 32 16 8 4 2 1281")
        assert len(text.splitlines()) == 7

    def test_bowtie_with_cuts(self, bowtie, bowtie_perturbed, bowtie_family):
        lp, keys = build_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        assert lp.num_vars == 7 and lp.num_rows == 8

    def test_single_edge(self):
        g = make_graph(2, [(1, 2, 5)])
        lp, keys = build_primal(g, perturb([5]).scaled, LaminarFamily(2))
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
        x, dual, obj = solve_primal(g, g.costs(), fam)
        assert x[0] == ONE and x[1] == ONE
        g2 = make_graph(4, [(1, 2, 0), (1, 3, 0), (1, 4, 0)])
        with pytest.raises(LPInfeasible):
            solve_primal(g2, g2.costs(), fam)

    def test_corrupted_dual_raises_under_optimize_flag(self):
        # python -O strips asserts; the duality check must still fire
        import subprocess
        import sys

        script = (
            "import cpmatch.lp as lp\n"
            "from cpmatch import LaminarFamily, StructureViolation, make_graph\n"
            "real = lp.simplex_solve\n"
            "def corrupt(prog):\n"
            "    res = real(prog)\n"
            "    res.duals[0] += 1\n"
            "    return res\n"
            "lp.simplex_solve = corrupt\n"
            "g = make_graph(2, [(1, 2, 5)])\n"
            "try:\n"
            "    lp.solve_primal(g, g.costs(), LaminarFamily(2))\n"
            "except StructureViolation as exc:\n"
            "    print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised strong duality violated\n"


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
        assert psi.objective() == obj == 1347
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

    def test_extremal_dual_is_dual_optimum(self, bowtie, bowtie_perturbed, bowtie_family):
        x, basis_dual, obj = solve_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        gamma = DualSolution.zeros(bowtie)
        gamma[TRIANGLE_LEFT] = ZERO
        gamma[TRIANGLE_RIGHT] = ZERO
        psi = solve_extremal_dual(bowtie, bowtie_perturbed.scaled, bowtie_family, x, gamma)
        assert psi.objective() == obj
        assert dual_feasible(psi, bowtie, bowtie_perturbed.scaled, bowtie_family.sets)

    def test_edge_rows_list_every_crossing_key_in_key_order(
        self, bowtie, bowtie_perturbed, bowtie_family, monkeypatch
    ):
        import cpmatch.lp as lp_mod

        built = []
        real = lp_mod.simplex_solve

        def capture(lp):
            built.append(lp)
            return real(lp)

        monkeypatch.setattr(lp_mod, "simplex_solve", capture)
        x, _dual, _obj = solve_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        gamma = DualSolution.zeros(bowtie)
        solve_extremal_dual(bowtie, bowtie_perturbed.scaled, bowtie_family, x, gamma)
        lp = built[-1]
        # keys: nodes, then the tight sets; key i owns variables 2i (up), 2i+1 (down)
        keys = list(range(1, 7)) + [TRIANGLE_LEFT, TRIANGLE_RIGHT]
        for e, (u, v, _c) in enumerate(bowtie.edges):
            want = {}
            for i, key in enumerate(keys):
                if key in (u, v) if isinstance(key, int) else (u in key) != (v in key):
                    want[2 * i] = ONE
                    want[2 * i + 1] = -ONE
            coefs, _rel, _rhs = lp.rows[e]
            assert list(coefs.items()) == list(want.items())
        assert len(lp.rows[6][0]) == 8  # the bridge crosses both triangles
