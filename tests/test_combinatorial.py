import pytest

from cpmatch import (
    DualSolution,
    InvalidConfiguration,
    LaminarFamily,
    NotCritical,
    ValidConfiguration,
    consistency_delta,
    critical_matching,
    is_consistent,
    is_factor_critical,
    is_positively_critical,
    make_graph,
    make_positively_critical,
    run_half_integral_procedure,
    solve_bipartite_via_procedure,
    solve_primal,
)
from cpmatch.errors import PreconditionBroken
from cpmatch.rational import HALF, ONE, Rat, ZERO, perturb, rat

from conftest import TRIANGLE_LEFT, TRIANGLE_RIGHT


def zero_dual(n):
    return DualSolution({u: ZERO for u in range(1, n + 1)})


class TestCriticalMatching:
    def test_tight_triangle_gives_opposite_edge(self):
        g = make_graph(3, [(1, 2, 0), (2, 3, 0), (1, 3, 0)])
        s = frozenset({1, 2, 3})
        m = critical_matching(g, g.costs(), s, [s], zero_dual(3), 1)
        assert m == [1]  # edge (2,3)
        m = critical_matching(g, g.costs(), s, [s], zero_dual(3), 2)
        assert m == [2]  # edge (1,3)

    def test_even_set_rejected(self):
        g = make_graph(4, [(1, 2, 0), (3, 4, 0)])
        with pytest.raises(ValueError):
            critical_matching(g, g.costs(), frozenset({1, 2, 3, 4}), [], zero_dual(4), 1)

    def test_non_tight_edges_unusable(self):
        g = make_graph(3, [(1, 2, 0), (2, 3, 5), (1, 3, 0)])
        s = frozenset({1, 2, 3})
        m = critical_matching(g, g.costs(), s, [s], zero_dual(3), 1)
        assert isinstance(m, NotCritical)  # (2,3) has slack 5


class TestFactorCritical:
    def test_tight_triangle(self):
        g = make_graph(3, [(1, 2, 0), (2, 3, 0), (1, 3, 0)])
        s = frozenset({1, 2, 3})
        assert is_factor_critical(g, g.costs(), s, [s], zero_dual(3))

    def test_path_of_three_fails(self):
        g = make_graph(3, [(1, 2, 0), (2, 3, 0)])
        s = frozenset({1, 2, 3})
        assert not is_factor_critical(g, g.costs(), s, [s], zero_dual(3))

    def test_nested_set_inherits_criticality(self):
        # seven-node odd cycle with a chord closing the inner triangle
        edges = [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 6, 0), (6, 7, 0), (7, 1, 0), (1, 3, 0)]
        g = make_graph(7, edges)
        t = frozenset({1, 2, 3})
        s = frozenset(range(1, 8))
        fam = [t, s]
        dual = zero_dual(7)
        assert is_factor_critical(g, g.costs(), s, fam, dual)
        assert is_factor_critical(g, g.costs(), t, fam, dual)

    def test_bridge_edge_separates_plain_from_family_criticality(self):
        # without the (4,5) edge, covering {1,2,3,4,5} minus a triangle node
        # forces two edges across the inner triangle: plain factor-critical
        # but not family-factor-critical
        base = [(1, 2, 0), (2, 3, 0), (1, 3, 0), (1, 4, 0), (3, 4, 0), (2, 5, 0), (3, 5, 0)]
        t = frozenset({1, 2, 3})
        s = frozenset({1, 2, 3, 4, 5})

        g_without = make_graph(5, base)
        assert is_factor_critical(g_without, g_without.costs(), s, [], zero_dual(5))
        assert not is_factor_critical(g_without, g_without.costs(), s, [t], zero_dual(5))

        g_with = make_graph(5, base + [(4, 5, 0)])
        assert is_factor_critical(g_with, g_with.costs(), s, [t], zero_dual(5))


class TestConsistency:
    def test_identical_duals(self):
        g = make_graph(4, [(1, 2, 0), (2, 3, 0), (1, 3, 0), (3, 4, 0)])
        s = frozenset({1, 2, 3})
        pi = DualSolution({1: rat(1), 2: rat(1), 3: rat(1)})
        psi = DualSolution(pi)
        x = [ZERO, ZERO, ZERO, ONE]
        assert consistency_delta(pi, psi, s) == ZERO
        assert is_consistent(pi, psi, s, x, g)

    def test_uniform_shift(self):
        g = make_graph(4, [(1, 2, 0), (2, 3, 0), (1, 3, 0), (3, 4, 0)])
        s = frozenset({1, 2, 3})
        pi = DualSolution({1: rat(1), 2: rat(1), 3: rat(1)})
        psi = DualSolution({1: rat(1, 2), 2: rat(1, 2), 3: rat(1, 2)})
        x = [ONE, ZERO, ZERO, ONE]
        assert consistency_delta(pi, psi, s) == HALF
        assert is_consistent(pi, psi, s, x, g)

    def test_inconsistent_when_boundary_node_misses_max(self):
        g = make_graph(4, [(1, 2, 0), (2, 3, 0), (1, 3, 0), (3, 4, 0)])
        s = frozenset({1, 2, 3})
        pi = DualSolution({1: rat(2), 2: rat(0), 3: rat(0)})
        psi = DualSolution({1: rat(0), 2: rat(0), 3: rat(0)})
        x = [ZERO, ZERO, ZERO, ONE]  # support leaves s at node 3
        assert consistency_delta(pi, psi, s) == 2
        assert not is_consistent(pi, psi, s, x, g)


class TestPositivelyCritical:
    def _bowtie_round_one(self, bowtie, bowtie_perturbed, bowtie_family):
        x, basis_dual, obj = solve_primal(
            bowtie, bowtie_perturbed.scaled, bowtie_family
        )
        gamma = DualSolution(
            {1: rat(40), 2: rat(24), 3: rat(-8), 4: rat(5), 5: rat(3), 6: rat(-1),
             TRIANGLE_LEFT: ZERO, TRIANGLE_RIGHT: ZERO}
        )
        return x, basis_dual, obj, gamma

    def test_already_critical_returns_unchanged(self, bowtie, bowtie_perturbed, bowtie_family):
        _x, basis_dual, obj, gamma = self._bowtie_round_one(
            bowtie, bowtie_perturbed, bowtie_family
        )
        psi, iters = make_positively_critical(
            bowtie, bowtie_perturbed.scaled, bowtie_family, gamma, basis_dual, optimal_value=obj
        )
        assert iters == 0
        assert psi == basis_dual

    def test_precondition_checked(self, bowtie, bowtie_perturbed, bowtie_family):
        _x, basis_dual, obj, gamma = self._bowtie_round_one(
            bowtie, bowtie_perturbed, bowtie_family
        )
        with pytest.raises(PreconditionBroken):
            make_positively_critical(
                bowtie, bowtie_perturbed.scaled, bowtie_family, gamma, basis_dual,
                optimal_value=obj + 1,
            )

    def test_positive_delta_small_lambda_zeroes_set(self, bowtie, bowtie_perturbed, bowtie_family):
        # move the optimal dual along the optimal face so the right triangle
        # carries value 1 but differs from gamma inside: one step with
        # lambda = psi(S)/Delta = 1/2 must zero the set and keep the objective
        _x, _bd, obj, gamma = self._bowtie_round_one(
            bowtie, bowtie_perturbed, bowtie_family
        )
        psi = DualSolution(
            {1: rat(40), 2: rat(24), 3: rat(-8), 4: rat(3), 5: rat(3), 6: rat(-1),
             TRIANGLE_LEFT: rat(1285), TRIANGLE_RIGHT: rat(1)}
        )
        assert psi.objective() == obj
        assert psi.is_feasible(bowtie, bowtie_perturbed.scaled, bowtie_family.sets)
        out, iters = make_positively_critical(
            bowtie, bowtie_perturbed.scaled, bowtie_family, gamma, psi, optimal_value=obj
        )
        assert iters == 1
        assert out.of_set(TRIANGLE_RIGHT) == ZERO
        assert out.node(4) == 4  # halfway between 3 and gamma's 5
        assert out.objective() == obj
        assert is_positively_critical(bowtie, bowtie_perturbed.scaled, bowtie_family, out)

    def test_two_sets_processed_in_deterministic_order(self, bowtie, bowtie_perturbed, bowtie_family):
        # both triangles positive and perturbed inside: two steps, one per
        # maximal set, largest key first
        _x, _bd, obj, gamma = self._bowtie_round_one(
            bowtie, bowtie_perturbed, bowtie_family
        )
        psi = DualSolution(
            {1: rat(40), 2: rat(24), 3: rat(-9), 4: rat(4), 5: rat(3), 6: rat(-1),
             TRIANGLE_LEFT: rat(1285), TRIANGLE_RIGHT: rat(1)}
        )
        assert psi.objective() == obj
        assert psi.is_feasible(bowtie, bowtie_perturbed.scaled, bowtie_family.sets)
        out, iters = make_positively_critical(
            bowtie, bowtie_perturbed.scaled, bowtie_family, gamma, psi, optimal_value=obj
        )
        assert iters == 2
        assert out.of_set(TRIANGLE_LEFT) == rat(1284)
        assert out.of_set(TRIANGLE_RIGHT) == ZERO
        assert [out.node(u) for u in range(1, 7)] == [
            rat(40), rat(24), rat(-8), rat(5), rat(3), rat(-1)
        ]
        assert is_positively_critical(bowtie, bowtie_perturbed.scaled, bowtie_family, out)

    def test_zero_delta_copies_inner_values(self):
        # balanced redistribution between the two inner triangles: node sums
        # match gamma inside s, so Delta = 0 and one lambda = 1 step makes
        # the duals identical inside while leaving psi(s) untouched
        edges = [
            (1, 2, 2), (2, 3, 2), (1, 3, 2), (4, 5, 2), (5, 6, 2), (4, 6, 2),
            (3, 4, 4), (6, 7, 3), (7, 1, 3), (7, 8, 2), (8, 9, 0), (9, 10, 0),
        ]
        g = make_graph(10, edges)
        t1, t2 = frozenset({1, 2, 3}), frozenset({4, 5, 6})
        s = frozenset(range(1, 8))
        fam = LaminarFamily(10, [t1, t2, s])
        gamma = DualSolution({u: rat(1) for u in range(1, 8)})
        gamma.update({8: ZERO, 9: ZERO, 10: ZERO, t1: rat(1), t2: rat(1), s: rat(1)})
        psi = DualSolution(gamma)
        psi[t1] = ZERO
        for u in (1, 2, 3):
            psi[u] = rat(2)
        psi[t2] = rat(2)
        for u in (4, 5, 6):
            psi[u] = ZERO
        assert psi.objective() == gamma.objective()
        assert consistency_delta(gamma, psi, s) == ZERO
        out, iters = make_positively_critical(g, g.costs(), fam, gamma, psi)
        assert iters == 1
        assert out.of_set(s) == psi.of_set(s) == rat(1)
        for key in list(range(1, 8)) + [t1, t2]:
            got = out.node(key) if isinstance(key, int) else out.of_set(key)
            want = gamma.node(key) if isinstance(key, int) else gamma.of_set(key)
            assert got == want


class TestProcedure:
    def test_feasible_input_returns_unchanged(self, bowtie):
        costs = [c for _u, _v, c in bowtie.edges]
        z = [ONE, ZERO, ZERO, ZERO, ZERO, ONE, ONE]
        dual = zero_dual(6)
        dual[TRIANGLE_LEFT] = rat(5)
        dual[TRIANGLE_RIGHT] = rat(5)
        cfg = ValidConfiguration(
            laminar=[], disjoint=[TRIANGLE_LEFT, TRIANGLE_RIGHT], z=z, dual=dual
        )
        out, stats = run_half_integral_procedure(bowtie, costs, cfg)
        assert stats.iterations == 0
        assert out.z == z

    def test_bowtie_dual_step_then_augment(self, bowtie):
        # both triangles pinned and exposed: one dual step of half the
        # bridge slack, then one augmentation along the now-tight bridge
        costs = [c for _u, _v, c in bowtie.edges]
        z = [HALF] * 6 + [ZERO]
        cfg = ValidConfiguration(
            laminar=[], disjoint=[TRIANGLE_LEFT, TRIANGLE_RIGHT], z=z, dual=zero_dual(6)
        )
        out, stats = run_half_integral_procedure(
            bowtie, costs, cfg, revalidate_each_iteration=True
        )
        assert stats.case_counts == {"Ia": 1, "Ib": 0, "Ic": 0, "II": 1}
        assert out.z == [ONE, ZERO, ZERO, ZERO, ZERO, ONE, ONE]
        assert out.dual.of_set(TRIANGLE_LEFT) == rat(5)  # half of bridge slack 10
        assert out.dual.of_set(TRIANGLE_RIGHT) == rat(5)
        assert [ev["case"] for ev in stats.events] == ["II", "I(a)"]
        assert stats.events[0]["epsilon"] == "5"
        import json

        assert json.dumps(stats.events)  # step trace is JSONL-serializable

    def test_exposed_set_reaching_half_cycle_fires_case_ib(self):
        # pinned triangle, a matched bridge pair, and a five-cycle: the walk
        # from the exposed set reaches the cycle, which folds to a blossom
        edges = [
            (1, 2, 0), (2, 3, 0), (1, 3, 0),       # pinned triangle
            (3, 4, 0), (4, 5, 0), (5, 6, 0),       # path to the cycle
            (6, 7, 0), (7, 8, 0), (8, 9, 0), (9, 10, 0), (6, 10, 0),
        ]
        g = make_graph(10, edges)
        k = frozenset({1, 2, 3})
        z = [HALF, HALF, HALF, ZERO, ONE, ZERO, HALF, HALF, HALF, HALF, HALF]
        cfg = ValidConfiguration(laminar=[], disjoint=[k], z=z, dual=zero_dual(10))
        from cpmatch.graph import decompose_support

        assert decompose_support(z, g).o == 2
        out, stats = run_half_integral_procedure(g, g.costs(), cfg)
        assert stats.case_counts["Ib"] == 1
        assert decompose_support(out.z, g).o == 0

    def test_invalid_configuration_rejected(self, bowtie):
        costs = [c for _u, _v, c in bowtie.edges]
        z = [HALF] * 6 + [ZERO]
        # crossing sets are not a valid family
        cfg = ValidConfiguration(
            laminar=[frozenset({2, 3, 4})], disjoint=[TRIANGLE_LEFT], z=z, dual=zero_dual(6)
        )
        with pytest.raises(InvalidConfiguration):
            run_half_integral_procedure(bowtie, costs, cfg)

    def test_untight_support_rejected(self, bowtie):
        z = [ONE, ZERO, ZERO, ZERO, ZERO, ONE, ONE]
        cfg = ValidConfiguration(laminar=[], disjoint=[], z=z, dual=zero_dual(6))
        with pytest.raises(InvalidConfiguration):
            # bridge edge carries value 1 but has slack 10 under zero duals
            run_half_integral_procedure(bowtie, [c for _u, _v, c in bowtie.edges], cfg)

    @pytest.mark.parametrize("seed", range(8))
    def test_bootstrap_matches_simplex_on_randoms(self, seed):
        from cpmatch import LaminarFamily, random_instance

        g = random_instance(8, 0.6, (0, 20), 9_000 + seed)
        pc = perturb([c for _u, _v, c in g.edges])
        out, _stats = solve_bipartite_via_procedure(g, pc.scaled)
        x, _dual, obj = solve_primal(g, pc.scaled, LaminarFamily(g.n))
        assert out.z == x
        assert sum((Rat(c) * v for c, v in zip(pc.scaled, out.z)), ZERO) == obj


class TestSharedFinder:
    """One CriticalMatchingFinder serves a whole procedure run."""

    @pytest.fixture
    def procedure_runs(self, monkeypatch):
        """Wrap every procedure run; returns the list of runs, each a dict
        with its pinned sets, the finders it built and its ProcedureStats."""
        import sys

        import cpmatch.combinatorial as comb
        import cpmatch.driver as drv_mod

        runs = []
        real_run = comb.run_half_integral_procedure
        real_finder = comb.CriticalMatchingFinder

        class CountingFinder(real_finder):
            def __init__(self, *args):
                # is_factor_critical builds its own throwaway finder for
                # validation; count only the finders the run keeps
                if runs and sys._getframe(1).f_code.co_name != "is_factor_critical":
                    runs[-1]["built"].append(self)
                super().__init__(*args)

        def wrapped(g, costs, cfg, **kwargs):
            runs.append({"built": [], "pinned": {frozenset(s) for s in cfg.disjoint}})
            out, stats = real_run(g, costs, cfg, **kwargs)
            runs[-1]["stats"] = stats
            return out, stats

        monkeypatch.setattr(comb, "CriticalMatchingFinder", CountingFinder)
        monkeypatch.setattr(comb, "run_half_integral_procedure", wrapped)
        monkeypatch.setattr(drv_mod, "run_half_integral_procedure", wrapped)
        return runs

    @pytest.fixture
    def checked_fills(self, procedure_runs, monkeypatch):
        """Compare the shared finder, at every repair inside a run, with a
        fresh one built from a copy of the current dual and the current
        family: the pinned sets plus the laminar sets not yet unshrunk.
        Returns the list of repaired sets."""
        import cpmatch.combinatorial as comb

        checked = []
        real_fill = comb.fill_inside

        def fill(g, z, s, finder):
            dual = DualSolution(finder.dual)
            pinned = procedure_runs[-1]["pinned"]
            family = [t for t in finder.fam_sets if t in pinned or dual.of_set(t) > ZERO]
            fresh = comb.CriticalMatchingFinder(g, finder.costs, family, dual)
            for u in sorted(s):
                assert finder.critical_matching(s, u) == fresh.critical_matching(s, u)
            checked.append(s)
            return real_fill(g, z, s, finder)

        monkeypatch.setattr(comb, "fill_inside", fill)
        return checked

    def test_one_finder_per_run(self, procedure_runs):
        from cpmatch import run
        from instances import telescope

        run(telescope(stages=4, gadgets=2), solver="combinatorial")
        stepped = [r for r in procedure_runs if r["stats"].case_counts["II"] > 0]
        assert stepped
        assert all(len(r["built"]) == 1 for r in stepped)

    @pytest.mark.parametrize(
        "instance",
        ["telescope"] + [f"random{i}" for i in range(14)],
    )
    def test_memo_matches_fresh_finder(self, checked_fills, instance):
        from cpmatch import random_instance, run
        from instances import MULTI_ROUND_RANDOM, telescope

        if instance == "telescope":
            g = telescope(stages=4, gadgets=2)
        else:
            n, density, cost_hi, seed = MULTI_ROUND_RANDOM[int(instance[len("random"):])]
            g = random_instance(n, density, (0, cost_hi), seed)
        run(g, solver="combinatorial")
        assert checked_fills

    def test_memo_survives_unshrink(self, checked_fills):
        # C = {1,2,3} nests in T = {1..5}; nodes 6 and 8 are exposed.  The
        # first dual step lowers T to zero and unshrinks it, the second makes
        # the bridge 7-8 tight, and the augmentation 6-1-...-7-8 repairs C
        # with the finder built before the unshrink.
        import cpmatch.combinatorial as comb

        c, t = frozenset({1, 2, 3}), frozenset({1, 2, 3, 4, 5})
        g = make_graph(8, [
            (1, 2, 0), (2, 3, 0), (1, 3, 0),        # C, tight
            (3, 4, 5), (4, 5, 0), (5, 1, 5),        # T around C, tight
            (6, 1, 6), (5, 7, 1), (7, 8, 10),       # 7-8 has slack 10
        ])
        dual = zero_dual(8)
        dual[c] = rat(5)
        dual[t] = rat(1)
        z = [ONE, ZERO, ZERO, ONE, ZERO, ZERO, ZERO, ONE, ZERO]
        cfg = ValidConfiguration(laminar=[c, t], disjoint=[], z=z, dual=dual)
        out, stats = comb.run_half_integral_procedure(
            g, g.costs(), cfg, allow_exposed_nodes=True, revalidate_each_iteration=True
        )
        assert [ev["case"] for ev in stats.events] == ["II", "II", "I(a)"]
        assert stats.unshrinks == 1
        assert out.laminar == [c]
        assert out.z == [ZERO, ONE, ZERO, ZERO, ONE, ZERO, ONE, ZERO, ONE]
        assert checked_fills == [c]
