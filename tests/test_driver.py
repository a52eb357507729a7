import json
import random
from fractions import Fraction

import pytest

from cpmatch import (
    DualSolution,
    LaminarFamily,
    NoPerfectMatching,
    StructureViolation,
    iteration_bound,
    make_graph,
    parse_instance,
    random_instance,
    run,
    select_new_cuts,
    select_old_cuts,
    verify_trace,
)
from cpmatch.driver import SOLVER_CHOICES, DriverState, IterationRecord, step
from cpmatch.graph import SupportDecomposition
from cpmatch.rational import ZERO, perturb, rat

from conftest import TRIANGLE_LEFT, TRIANGLE_RIGHT
from paper_oracles import enumerate_perfect_matchings

# pinned multi-round instance: three relaxation solves, both first-round
# cuts retained and absorbed into larger cuts in round two
MULTI_ROUND_SEED = 4752199


class TestSelectOldCuts:
    def test_all_zero_duals_empty(self, bowtie_family):
        pi = DualSolution({TRIANGLE_LEFT: ZERO, TRIANGLE_RIGHT: ZERO})
        assert select_old_cuts(bowtie_family, pi) == ([], [])

    def test_all_positive_keeps_family(self, bowtie_family):
        pi = DualSolution({TRIANGLE_LEFT: rat(1), TRIANGLE_RIGHT: rat(2)})
        assert select_old_cuts(bowtie_family, pi) == (bowtie_family.sets, bowtie_family.sets)

    def test_bowtie_round_one_retains_tie_broken_vertex(
        self, bowtie, bowtie_perturbed, bowtie_family
    ):
        # the extremal program's optimum is a vertex of a one-dimensional
        # optimal face; the frozen tie-break puts everything on the first set
        from cpmatch import solve_extremal_dual, solve_primal

        x, _dual, _obj = solve_primal(bowtie, bowtie_perturbed.scaled, bowtie_family)
        gamma = DualSolution(
            {1: rat(40), 2: rat(24), 3: rat(-8), 4: rat(5), 5: rat(3), 6: rat(-1),
             TRIANGLE_LEFT: ZERO, TRIANGLE_RIGHT: ZERO}
        )
        psi = solve_extremal_dual(bowtie, bowtie_perturbed.scaled, bowtie_family, x, gamma)
        kept, tops = select_old_cuts(bowtie_family, psi)
        assert kept == tops == [TRIANGLE_LEFT]

    def test_tops_are_the_maximal_kept_sets(self):
        # every subset of a family three deep: the tops read off the
        # family's forest are those of a family built from the kept sets
        from itertools import combinations

        family = [{1, 2, 3}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5, 6, 7},
                  {9, 10, 11}, {9, 10, 11, 12, 13}, {15, 16, 17}]
        fam = LaminarFamily(20, family)
        for k in range(len(family) + 1):
            for chosen in combinations(fam.sets, k):
                pi = DualSolution({s: rat(1) if s in chosen else ZERO for s in fam.sets})
                kept, tops = select_old_cuts(fam, pi)
                assert kept == list(chosen)
                assert tops == LaminarFamily(20, kept).tops


class TestSelectNewCuts:
    def test_bowtie_initial_cycles(self, bowtie):
        dec = SupportDecomposition(matched_edges=[], odd_cycles=[[1, 2, 3], [4, 5, 6]])
        info = select_new_cuts(dec, LaminarFamily(6).tops)
        assert [hat for _c, _a, hat in info] == [TRIANGLE_LEFT, TRIANGLE_RIGHT]

    def test_integral_solution_no_cuts(self):
        dec = SupportDecomposition(matched_edges=[0, 1], odd_cycles=[])
        assert select_new_cuts(dec, LaminarFamily(6).tops) == []

    def test_cycle_absorbs_intersecting_maximal_set(self):
        dec = SupportDecomposition(matched_edges=[], odd_cycles=[[1, 2, 3, 4, 5]])
        hp = LaminarFamily(12, [{5, 6, 7}, {9, 10, 11}])
        info = select_new_cuts(dec, hp.tops)
        assert [hat for _c, _a, hat in info] == [frozenset(range(1, 8))]

    def test_even_union_rejected(self):
        dec = SupportDecomposition(matched_edges=[], odd_cycles=[[1, 2, 3]])
        hp = LaminarFamily(12, [{3, 4, 5, 6, 7}])
        # |C u T| = 3 + 5 - 1 = 7 is fine; force evenness with overlap 2
        dec2 = SupportDecomposition(matched_edges=[], odd_cycles=[[2, 3, 4]])
        hp2 = LaminarFamily(12, [{3, 4, 5}])
        with pytest.raises(StructureViolation):
            select_new_cuts(dec2, hp2.tops)
        assert select_new_cuts(dec, hp.tops)[0][2] == frozenset(range(1, 8))

    def test_set_meeting_two_cycles_rejected(self):
        dec = SupportDecomposition(
            matched_edges=[], odd_cycles=[[1, 2, 3], [7, 8, 9]]
        )
        hp = LaminarFamily(14, [{3, 4, 5, 6, 7}])
        with pytest.raises(StructureViolation):
            select_new_cuts(dec, hp.tops)


class TestRun:
    def test_single_edge(self):
        g = make_graph(2, [(1, 2, 5)])
        res = run(g)
        assert res.matching == [0]
        assert res.base_cost == 5
        assert res.lp_solves == 1
        assert res.records[0].cuts_added == []

    def test_bowtie(self, bowtie):
        res = run(bowtie)
        assert "PASS positively_critical" in verify_trace(bowtie, res.trace_lines()).lines()
        assert res.matching == [0, 5, 6]
        assert res.base_cost == 10
        assert res.perturbed_cost == rat(1347, 128)
        assert res.lp_solves == 2

    def test_six_cycle(self, six_cycle):
        # the first optimum is a matching: one record, with the basis dual,
        # so verify has no extremal dual to check
        res = run(six_cycle)
        report = verify_trace(six_cycle, res.trace_lines())
        assert len(res.records) == 1 and res.records[0].dual_kind == "basis"
        assert "SKIP positively_critical reason=no extremal dual" in report.lines()
        assert "PASS positively_critical" not in report.lines()
        assert res.matching == [1, 3, 5]
        assert res.base_cost == 3
        assert res.lp_solves == 1

    def test_no_perfect_matching_disjoint_triangles(self):
        g = make_graph(6, [(1, 2, 0), (1, 3, 0), (2, 3, 0), (4, 5, 0), (4, 6, 0), (5, 6, 0)])
        for solver in ("simplex", "combinatorial", "cross-check"):
            with pytest.raises(NoPerfectMatching):
                run(g, solver=solver)

    def test_odd_and_empty_rejected(self):
        with pytest.raises(NoPerfectMatching):
            run(make_graph(3, [(1, 2, 1), (2, 3, 1)]))
        with pytest.raises(NoPerfectMatching):
            run(make_graph(0, []))

    def test_isolated_nodes_rejected_in_all_modes(self):
        g = make_graph(4, [(1, 2, 3)])
        for solver in ("simplex", "combinatorial", "cross-check"):
            with pytest.raises(NoPerfectMatching):
                run(g, solver=solver)

    def test_multi_round_retention_and_absorption(self):
        g = random_instance(16, 0.28, (0, 1), MULTI_ROUND_SEED)
        res = run(g, solver="cross-check")
        assert "PASS positively_critical" in verify_trace(g, res.trace_lines()).lines()
        assert res.lp_solves == 3
        os = [r.odd_cycle_count for r in res.records]
        assert os == [2, 2, 0]
        r1 = res.records[1]
        assert r1.cuts_retained == r1.cuts_imposed  # both cuts kept
        # each new cut strictly contains the retained cut it absorbed
        for added in r1.cuts_added:
            assert any(set(kept) < set(added) for kept in r1.cuts_retained)
        # persistence: round-0 cuts still imposed in the final family
        final_imposed = [set(s) for s in res.records[2].cuts_imposed]
        for added in res.records[0].cuts_added:
            assert set(added) in final_imposed

    def test_cycle_count_never_increases_across_runs(self):
        for seed in range(25):
            g = random_instance(10, 0.35, (0, 2), 31_000 + seed)
            res = run(g)
            os = [r.odd_cycle_count for r in res.records]
            assert all(a >= b for a, b in zip(os, os[1:]))

    def test_telescope_walks_nested_cut_chain(self):
        from instances import telescope

        g = telescope(stages=3, gadgets=2)
        res = run(g, solver="cross-check")
        assert "PASS positively_critical" in verify_trace(g, res.trace_lines()).lines()
        assert res.lp_solves == 4
        assert [r.odd_cycle_count for r in res.records] == [2, 2, 2, 0]
        sizes = [sorted(len(s) for s in r.cuts_imposed) for r in res.records]
        assert sizes == [[], [3, 3], [3, 3, 5, 5], [3, 3, 5, 5, 7, 7]]
        assert res.base_cost == 100
        # every earlier cut stays imposed until the cycles vanish
        final = {tuple(s) for s in res.records[-1].cuts_imposed}
        for rec in res.records[:-1]:
            for added in rec.cuts_added:
                assert tuple(added) in final

    def test_matching_optimal_for_base_and_perturbed_costs(self, bowtie):
        res = run(bowtie)
        pc = res.perturbed
        candidates = enumerate_perfect_matchings(bowtie)
        best_perturbed = min(pc.perturbed_total(m) for m in candidates)
        assert pc.perturbed_total(res.matching) == best_perturbed
        best_base = min(sum(bowtie.edges[e][2] for e in m) for m in candidates)
        assert res.base_cost == best_base


class TestStep:
    def _initial_state(self, g):
        return DriverState(
            iteration=0, fam=LaminarFamily(g.n), gamma=DualSolution.zeros(g)
        )

    def test_terminal_state_passes_through(self, bowtie):
        state = self._initial_state(bowtie)
        state.terminal = True
        pc = perturb([c for _u, _v, c in bowtie.edges])
        out, record = step(state, bowtie, pc)
        assert out is state and record is None

    def test_bowtie_first_step_imposes_triangles(self, bowtie):
        pc = perturb([c for _u, _v, c in bowtie.edges])
        state = self._initial_state(bowtie)
        state, record = step(state, bowtie, pc)
        assert state.fam.sets == [TRIANGLE_LEFT, TRIANGLE_RIGHT]
        assert record.odd_cycle_count == 2
        assert not state.terminal

    def test_combinatorial_step_matches_simplex(self, bowtie):
        pc = perturb([c for _u, _v, c in bowtie.edges])
        s_a, r_a = step(self._initial_state(bowtie), bowtie, pc, solver="simplex")
        s_b, r_b = step(self._initial_state(bowtie), bowtie, pc, solver="combinatorial")
        assert r_a.primal == r_b.primal
        assert s_a.fam.sets == s_b.fam.sets

    def test_one_support_decomposition_per_step(self, monkeypatch):
        import cpmatch.driver as drv_mod
        import cpmatch.graph as graph_mod
        from instances import telescope

        calls = []
        real = graph_mod.decompose_support

        def counting(*args):
            calls.append(args)
            return real(*args)

        for mod in (graph_mod, drv_mod):
            monkeypatch.setattr(mod, "decompose_support", counting)
        res = run(telescope(stages=3, gadgets=2))
        assert len(calls) == res.lp_solves == 4

    def test_optimum_that_is_not_half_integral_raises(self, bowtie, monkeypatch):
        import cpmatch.driver as drv_mod

        def third(g, costs, fam, warm=None, cuts=None):
            return [rat(1, 3)] * g.m, DualSolution.zeros(g), ZERO

        monkeypatch.setattr(drv_mod, "solve_primal", third)
        pc = perturb([c for _u, _v, c in bowtie.edges])
        with pytest.raises(StructureViolation) as info:
            step(self._initial_state(bowtie), bowtie, pc)
        assert str(info.value) == "intermediate optimum is not proper-half-integral"
        assert info.value.witness == ["1/3"] * bowtie.m


class TestSinglePinnedAttempt:
    def test_uncertified_attempt_raises_with_witness(self, monkeypatch):
        # a real round of telescope(3, 2) whose extremal-dual program is
        # made infeasible once the procedure has run: step rejects the
        # pinned output as not optimal, and no other candidate is tried
        import cpmatch.driver as drv_mod
        from cpmatch.errors import LPInfeasible
        from instances import telescope

        g = telescope(stages=3, gadgets=2)
        pc = perturb([c for _u, _v, c in g.edges])
        state = DriverState(iteration=0, fam=LaminarFamily(g.n), gamma=DualSolution.zeros(g))
        state, _record = step(state, g, pc, solver="combinatorial")
        assert state.pinned

        runs = []
        real_run = drv_mod.run_half_integral_procedure

        def counting(*args, **kwargs):
            runs.append(args)
            return real_run(*args, **kwargs)

        def infeasible(*args):
            assert len(runs) == 1
            raise LPInfeasible("extremal dual made infeasible")

        monkeypatch.setattr(drv_mod, "run_half_integral_procedure", counting)
        monkeypatch.setattr(drv_mod, "solve_extremal_dual", infeasible)
        with pytest.raises(StructureViolation, match="^pinned-cut optimum is not optimal for the relaxation$") as info:
            step(state, g, pc, solver="combinatorial")
        assert info.value.witness == [sorted(hat) for hat in state.pinned]
        assert isinstance(info.value.__cause__, LPInfeasible)
        assert len(runs) == 1

    def test_infeasible_relaxation_runs_procedure_once(self, monkeypatch):
        import cpmatch.driver as drv_mod
        from instances import four_triangles

        calls = []
        real = drv_mod.run_half_integral_procedure

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(drv_mod, "run_half_integral_procedure", counting)
        with pytest.raises(NoPerfectMatching, match="^phase-1 optimum positive$"):
            run(four_triangles(), solver="combinatorial")
        assert len(calls) == 1


class TestTrace:
    def test_trace_roundtrip(self, bowtie):
        res = run(bowtie)
        lines = res.trace_lines()
        header = json.loads(lines[0])
        assert header["schema"] == "cpmatch-trace-1"
        assert header["n"] == 6 and header["m"] == 7
        parsed = [IterationRecord(**json.loads(ln)) for ln in lines[1:]]
        assert parsed == res.records

    def test_trace_marks_cross_checks(self, bowtie):
        res = run(bowtie, solver="cross-check")
        assert all(r.cross_checked for r in res.records)

    def test_deterministic_traces(self, bowtie):
        assert run(bowtie).trace_lines() == run(bowtie).trace_lines()


class TestIterationBound:
    def test_values(self):
        assert iteration_bound(2) == 3  # ceil(1*H_1) + 2
        assert iteration_bound(6) == 11  # ceil(3*1.5) + 6
        assert iteration_bound(16) == 36  # ceil(8*H_6) + 16 = 20 + 16

    def test_matches_rational_formula(self):
        # the bound as a Fraction computation: ceil((n/2) H_k) + n, k = ceil(n/3),
        # with H_k summed once per k instead of once per n
        harmonic = [Fraction(0)]
        for n in range(1, 3001):
            k = max(1, -(-n // 3))
            while len(harmonic) <= k:
                harmonic.append(harmonic[-1] + Fraction(1, len(harmonic)))
            capped = Fraction(n, 2) * harmonic[k]
            assert iteration_bound(n) == -(-capped.numerator // capped.denominator) + n, n

    def test_observed_runs_within_bound(self):
        for seed in range(10):
            g = random_instance(12, 0.3, (0, 1), 77_000 + seed)
            res = run(g)
            assert res.lp_solves <= iteration_bound(12)


class TestExtremalDualCount:
    @pytest.mark.parametrize("solver", SOLVER_CHOICES)
    def test_one_extremal_dual_per_relaxation(self, monkeypatch, solver):
        # Psi is solved only where it is read: by the next round's cut
        # selection, and on the terminal round by the combinatorial record
        # alone.  The simplex and cross-check routes record the basis dual
        # there, so they solve no extremal program on the terminal round.
        import cpmatch.driver as drv_mod
        from test_golden import GOLDEN

        calls = []
        real = drv_mod.solve_extremal_dual

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(drv_mod, "solve_extremal_dual", counting)
        for name in ("telescope_3_2", "random_n16_seed4752199"):
            calls.clear()
            res = run(parse_instance((GOLDEN / f"{name}.txt").read_text()), solver=solver)
            assert res.lp_solves > 1, name
            expected = res.lp_solves if solver == "combinatorial" else res.lp_solves - 1
            assert len(calls) == expected, name
            terminal_kind = "extremal" if solver == "combinatorial" else "basis"
            assert res.records[-1].dual_kind == terminal_kind, name


class TestCutsReadOnce:
    @staticmethod
    def _scans(monkeypatch):
        """A Counter of the sets `Graph.delta` reads from now on."""
        from collections import Counter

        from cpmatch.graph import Graph

        scans = Counter()
        real = Graph.delta

        def counting(self, nodes):
            scans[frozenset(nodes)] += 1
            return real(self, nodes)

        monkeypatch.setattr(Graph, "delta", counting)
        return scans

    def test_each_delta_read_once_per_run_and_per_replay(self, monkeypatch):
        # the run's duals share one map of delta(S), and so do a replay's
        # records: no set is read from the graph twice in either
        from instances import telescope

        scans = self._scans(monkeypatch)
        g = telescope(4, 2, bridge=1000)
        res = run(g, solver="combinatorial")
        assert len(res.records) == 5 and scans
        assert max(scans.values()) == 1
        run_scans = set(scans)
        scans.clear()
        assert verify_trace(g, res.trace_lines()).all_ok
        assert set(scans) == run_scans
        assert max(scans.values()) == 1

    @pytest.mark.parametrize("solver", ["simplex", "cross-check"])
    def test_primal_rows_read_the_runs_map(self, monkeypatch, solver):
        # each cut row of the primal program reads delta(S) from the run's
        # map, which the extremal dual then reads again without a scan
        from instances import telescope

        scans = self._scans(monkeypatch)
        res = run(telescope(4, 2, bridge=1000), solver=solver)
        assert len(res.records) == 5 and scans
        assert max(scans.values()) == 1


def assert_same_but_terminal_duals(runs_a, runs_b) -> int:
    """Two runs of each graph, as trace lines or a NoPerfectMatching
    message: equal but for a terminal record's `dual_nodes` and
    `dual_sets`.  Returns how many terminal records differ there."""
    moved_records = 0
    for a, b in zip(runs_a, runs_b, strict=True):
        assert type(a) is type(b)
        if isinstance(a, str):
            assert a == b
            continue
        assert len(a) == len(b) and a[0] == b[0]
        for line_a, line_b in zip(a[1:], b[1:]):
            rec_a, rec_b = json.loads(line_a), json.loads(line_b)
            if not rec_a["terminal"]:
                assert line_a == line_b
            else:
                moved = {k for k in rec_a if rec_a[k] != rec_b[k]}
                assert moved <= {"dual_nodes", "dual_sets"}
                moved_records += bool(moved)
    return moved_records


class TestWarmStart:
    """After round one the simplex route solves each relaxation from the
    last optimal tableau.  x is the unique optimum under the perturbation,
    so every record but a terminal one's basis dual matches a run whose
    every primal solve starts from the program with no rows."""

    @pytest.mark.parametrize("solver", ["simplex", "cross-check"])
    def test_warm_runs_match_cold_runs(self, solver, monkeypatch):
        import cpmatch.driver as drv_mod
        import cpmatch.lp as lp_mod
        from instances import MULTI_ROUND_RANDOM, telescope
        from test_golden import GOLDEN

        graphs = [parse_instance(p.read_text()) for p in sorted(GOLDEN.glob("*.txt"))]
        graphs += [random_instance(n, p, (0, hi), seed) for n, p, hi, seed in MULTI_ROUND_RANDOM]
        graphs.append(telescope(stages=3, gadgets=2))

        def traces():
            out = []
            for g in graphs:
                try:
                    lines = run(g, solver=solver).trace_lines()
                except NoPerfectMatching as exc:
                    out.append(str(exc))
                    continue
                report = verify_trace(g, lines)
                assert not [ln for ln in report.lines() if ln.startswith("FAIL")]
                out.append(lines)
            return out

        starts = []
        real = lp_mod.simplex_solve

        def recorded(lp, start=None):
            starts.append(start is not None and len(start.rows) > 0)
            return real(lp, start)

        monkeypatch.setattr(lp_mod, "simplex_solve", recorded)
        warm = traces()
        assert sum(starts) > len(graphs)
        cold_primal = lp_mod.solve_primal
        monkeypatch.setattr(
            drv_mod,
            "solve_primal",
            lambda g, costs, fam, warm=None, cuts=None: cold_primal(g, costs, fam, cuts=cuts),
        )
        starts.clear()
        cold = traces()
        assert not any(starts)

        assert_same_but_terminal_duals(warm, cold)


class TestPrimalStart:
    """solve_primal solves every relaxation by the dual simplex.  Under the
    cost perturbation each relaxation has one optimum, so the two-phase
    simplex reaches the same x in every round, and every record but a
    terminal one's basis dual is the same."""

    def test_dual_start_and_two_phase_runs_match(self, monkeypatch):
        import cpmatch.lp as lp_mod
        from test_golden import GOLDEN

        graphs = [parse_instance(p.read_text()) for p in sorted(GOLDEN.glob("*.txt"))]
        rng = random.Random(19)
        for seed in range(50):
            n = 2 * rng.randint(2, 7)
            graphs.append(random_instance(n, rng.uniform(0.3, 0.9), (0, rng.randint(1, 9)), seed))

        real = lp_mod.simplex_solve

        def runs(two_phase):
            """Each graph's trace lines (or its NoPerfectMatching message),
            and the x of every primal solve; with `two_phase`, a solve that
            solve_primal starts from the dual start is made by the
            two-phase simplex instead."""
            xs = []

            def solve(lp, start=None):
                if start is None:  # solve_extremal_dual
                    return real(lp)
                cold = not start.rows
                res = real(lp) if cold and two_phase else real(lp, start)
                xs.append((cold, res.x))
                return res

            monkeypatch.setattr(lp_mod, "simplex_solve", solve)
            out = []
            for g in graphs:
                try:
                    out.append(run(g, solver="simplex").trace_lines())
                except NoPerfectMatching as exc:
                    out.append(str(exc))
            return out, xs

        dual, xs_dual = runs(False)
        two_phase, xs_two_phase = runs(True)
        assert xs_dual == xs_two_phase
        assert sum(cold for cold, _x in xs_dual) >= len(graphs)
        # the dual simplex does reach another optimal basis on some runs
        assert assert_same_but_terminal_duals(dual, two_phase) > 0
