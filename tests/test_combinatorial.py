import pytest

from cpmatch import (
    CriticalMatchingFinder,
    DualSolution,
    InvalidConfiguration,
    LaminarFamily,
    ValidConfiguration,
    is_factor_critical,
    make_graph,
    run_half_integral_procedure,
    solve_bipartite_via_procedure,
    solve_primal,
)
from cpmatch.rational import HALF, ONE, Rat, ZERO, perturb, rat

from conftest import TRIANGLE_LEFT, TRIANGLE_RIGHT, dual_feasible, per_edge_slacks
from paper_oracles import (
    PreconditionBroken,
    consistency_delta,
    is_consistent,
    is_positively_critical,
    make_positively_critical,
)


def zero_dual(n):
    return DualSolution({u: ZERO for u in range(1, n + 1)})


def finder_for(g, fam_sets, dual):
    """A finder for tight edges of g under dual, with g's own costs."""
    return CriticalMatchingFinder(g, fam_sets, dual.slacks(g, g.costs()))


def keeping_state(ws_class):
    """A subclass of the procedure workspace class whose instances keep
    `state`: the g, costs, lam_sets, kay_sets, z and dual they were built
    from.  The workspace takes no costs, only the slacks of the dual under
    them, so state recovers the costs: each edge's slack plus its dual
    load.  The run mutates lam_sets and z in place, so those are always its
    current ones; the dual stays the one at build time (see current_dual),
    and so do the slacks."""

    class Recording(ws_class):
        def __init__(self, g, lam_sets, kay_sets, z, dual, slacks):
            super().__init__(g, lam_sets, kay_sets, z, dual, slacks)
            # an edge's slack at cost zero is minus its dual load
            at_zero = per_edge_slacks(dual, g, [ZERO] * g.m)
            costs = [Rat(k, slacks.unit) - z0 for k, z0 in zip(slacks, at_zero)]
            self.state = (g, costs, lam_sets, kay_sets, z, dual)

    return Recording


def current_dual(ws):
    """The run's current dual: the dual a keeping_state workspace was built
    from, plus the changes it carries in units of 1/ws.unit.  The run adds
    them to its dual only when it is done with the workspace."""
    dual = DualSolution(ws.state[5])
    for key, k in ws.moved.items():
        dual[key] = dual.get(key, ZERO) + Rat(k, ws.unit)
    return dual


@pytest.fixture
def validate_each_step(monkeypatch):
    """Validate a procedure run's live configuration before every
    alternating search: the input, then the state after each step and any
    unshrink.  Call it with the run's allow_exposed_nodes before the run; it
    returns the list of the laminar sets validated, one entry per search."""
    import cpmatch.combinatorial as comb

    def install(allow_exposed_nodes=False):
        real_search = comb._alternating_search
        validated = []

        def search(ws):
            g, costs, lam_sets, kay_sets, z, _dual = ws.state
            comb.validate_configuration(
                g, costs, ValidConfiguration(lam_sets, kay_sets, z, current_dual(ws)),
                allow_exposed_nodes=allow_exposed_nodes,
            )
            validated.append(list(lam_sets))
            return real_search(ws)

        monkeypatch.setattr(comb, "_Workspace", keeping_state(comb._Workspace))
        monkeypatch.setattr(comb, "_alternating_search", search)
        return validated

    return install


class TestCriticalMatching:
    def test_tight_triangle_gives_opposite_edge(self):
        g = make_graph(3, [(1, 2, 0), (2, 3, 0), (1, 3, 0)])
        s = frozenset({1, 2, 3})
        finder = finder_for(g, [s], zero_dual(3))
        assert finder.critical_matching(s, 1) == [1]  # edge (2,3)
        assert finder.critical_matching(s, 2) == [2]  # edge (1,3)

    def test_even_set_rejected(self):
        g = make_graph(4, [(1, 2, 0), (3, 4, 0)])
        with pytest.raises(ValueError):
            finder_for(g, [], zero_dual(4)).critical_matching(frozenset({1, 2, 3, 4}), 1)

    def test_non_tight_edges_unusable(self):
        g = make_graph(3, [(1, 2, 0), (2, 3, 5), (1, 3, 0)])
        s = frozenset({1, 2, 3})
        m = finder_for(g, [s], zero_dual(3)).critical_matching(s, 1)
        assert m is None  # (2,3) has slack 5


class TestFactorCritical:
    def test_tight_triangle(self):
        g = make_graph(3, [(1, 2, 0), (2, 3, 0), (1, 3, 0)])
        s = frozenset({1, 2, 3})
        assert is_factor_critical(finder_for(g, [s], zero_dual(3)), s)

    def test_path_of_three_fails(self):
        g = make_graph(3, [(1, 2, 0), (2, 3, 0)])
        s = frozenset({1, 2, 3})
        assert not is_factor_critical(finder_for(g, [s], zero_dual(3)), s)

    def test_nested_set_inherits_criticality(self):
        # seven-node odd cycle with a chord closing the inner triangle
        edges = [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 6, 0), (6, 7, 0), (7, 1, 0), (1, 3, 0)]
        g = make_graph(7, edges)
        t = frozenset({1, 2, 3})
        s = frozenset(range(1, 8))
        fam = [t, s]
        dual = zero_dual(7)
        finder = finder_for(g, fam, dual)
        assert is_factor_critical(finder, s)
        assert is_factor_critical(finder, t)

    def test_bridge_edge_separates_plain_from_family_criticality(self):
        # without the (4,5) edge, covering {1,2,3,4,5} minus a triangle node
        # forces two edges across the inner triangle: plain factor-critical
        # but not family-factor-critical
        base = [(1, 2, 0), (2, 3, 0), (1, 3, 0), (1, 4, 0), (3, 4, 0), (2, 5, 0), (3, 5, 0)]
        t = frozenset({1, 2, 3})
        s = frozenset({1, 2, 3, 4, 5})

        g_without = make_graph(5, base)
        assert is_factor_critical(finder_for(g_without, [], zero_dual(5)), s)
        assert not is_factor_critical(finder_for(g_without, [t], zero_dual(5)), s)

        g_with = make_graph(5, base + [(4, 5, 0)])
        assert is_factor_critical(finder_for(g_with, [t], zero_dual(5)), s)


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
        assert dual_feasible(psi, bowtie, bowtie_perturbed.scaled, bowtie_family.sets)
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
        assert dual_feasible(psi, bowtie, bowtie_perturbed.scaled, bowtie_family.sets)
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

    def test_bowtie_dual_step_then_augment(self, bowtie, validate_each_step):
        # both triangles pinned and exposed: one dual step of half the
        # bridge slack, then one augmentation along the now-tight bridge
        costs = [c for _u, _v, c in bowtie.edges]
        z = [HALF] * 6 + [ZERO]
        cfg = ValidConfiguration(
            laminar=[], disjoint=[TRIANGLE_LEFT, TRIANGLE_RIGHT], z=z, dual=zero_dual(6)
        )
        validated = validate_each_step()
        out, stats = run_half_integral_procedure(bowtie, costs, cfg)
        assert len(validated) == stats.iterations == 2
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
        # the folded cycle as decompose_support lists it, in workspace nodes
        assert [ev.get("cycle") for ev in stats.events] == [[4, 5, 6, 7, 8]]
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

    def test_exposed_set_with_several_cycles_rejected(self):
        # s = {1..9} holds three half-triangles joined in a ring by 0-edges:
        # as many support edges as nodes, all of s covered, but three cycles
        from cpmatch.combinatorial import validate_configuration

        tri = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (7, 9)]
        joins = [(3, 4), (6, 7), (9, 1)]
        pinned = [(10, 11), (11, 12), (10, 12)]
        g = make_graph(12, [(u, v, 0) for u, v in tri + joins + pinned + [(9, 10)]])
        z = [HALF] * 9 + [ZERO] * 3 + [HALF] * 3 + [ZERO]
        cfg = ValidConfiguration(
            laminar=[], disjoint=[frozenset(range(1, 10)), frozenset({10, 11, 12})],
            z=z, dual=zero_dual(12),
        )
        with pytest.raises(InvalidConfiguration, match="not a spanning odd cycle"):
            validate_configuration(g, g.costs(), cfg)
        with pytest.raises(InvalidConfiguration):
            run_half_integral_procedure(g, g.costs(), cfg)

    def test_set_outside_the_graph_rejected(self, bowtie):
        z = [HALF] * 6 + [ZERO]
        cfg = ValidConfiguration(
            laminar=[], disjoint=[TRIANGLE_LEFT, frozenset({4, 5, 7})], z=z, dual=zero_dual(6)
        )
        with pytest.raises(InvalidConfiguration, match="outside 1..6"):
            run_half_integral_procedure(bowtie, bowtie.costs(), cfg)

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


UNSHRINK_C, UNSHRINK_T = frozenset({1, 2, 3}), frozenset({1, 2, 3, 4, 5})


def unshrink_instance():
    """A procedure input whose run unshrinks a set: C = {1,2,3} nests in
    T = {1..5} and nodes 6 and 8 are exposed.  The first dual step lowers T
    to zero and unshrinks it, the second makes the bridge 7-8 tight, and the
    augmentation 6-1-...-7-8 repairs C.  Returns (graph, configuration)."""
    c, t = UNSHRINK_C, UNSHRINK_T
    g = make_graph(8, [
        (1, 2, 0), (2, 3, 0), (1, 3, 0),        # C, tight
        (3, 4, 5), (4, 5, 0), (5, 1, 5),        # T around C, tight
        (6, 1, 6), (5, 7, 1), (7, 8, 10),       # 7-8 has slack 10
    ])
    dual = zero_dual(8)
    dual[c] = rat(5)
    dual[t] = rat(1)
    z = [ONE, ZERO, ZERO, ONE, ZERO, ZERO, ZERO, ONE, ZERO]
    return g, ValidConfiguration(laminar=[c, t], disjoint=[], z=z, dual=dual)


def instance_graph(instance):
    """telescope(4, 2), or "random<i>" for MULTI_ROUND_RANDOM[i]."""
    from cpmatch import random_instance
    from instances import MULTI_ROUND_RANDOM, telescope

    if instance == "telescope":
        return telescope(stages=4, gadgets=2)
    n, density, cost_hi, seed = MULTI_ROUND_RANDOM[int(instance[len("random"):])]
    return random_instance(n, density, (0, cost_hi), seed)


class TestLaminarSetsInsidePinnedSets:
    """The driver hands the procedure the family on g itself: the retained
    sets a new cut absorbed are laminar sets inside that pinned set."""

    @staticmethod
    def ring():
        """n = 10: the pinned set {1..7} holds the laminar set T = {1, 2, 3}.
        Every edge is tight (the three leaving T cost 1, T's dual is 1, all
        else 0), and a half-triangle covers 8, 9, 10."""
        g = make_graph(10, [(1, 2, 0), (2, 3, 0), (1, 3, 0), (3, 4, 1), (4, 5, 0), (5, 6, 0),
                            (6, 7, 0), (3, 7, 1), (3, 5, 1), (8, 9, 0), (9, 10, 0), (8, 10, 0)])
        dual = zero_dual(10)
        dual[frozenset({1, 2, 3})] = ONE
        return g, dual

    def configuration(self, dual, halves, ones):
        z = [HALF if e in halves else ONE if e in ones else ZERO for e in range(12)]
        return ValidConfiguration(
            laminar=[frozenset({1, 2, 3})], disjoint=[frozenset(range(1, 8))], z=z, dual=dual
        )

    def test_driver_state_runs_on_g(self):
        from cpmatch.driver import DriverState, step
        from instances import telescope

        g = telescope(stages=3, gadgets=2)
        pc = perturb([c for _u, _v, c in g.edges])
        states = [DriverState(iteration=0, fam=LaminarFamily(g.n), gamma=zero_dual(g.n))]
        while not states[-1].terminal:
            states.append(step(states[-1], g, pc, solver="combinatorial")[0])
        # after round 1 each new cut has absorbed a retained cut
        state = states[2]
        pinned = set(state.pinned)
        laminar = [s for s in state.fam.sets if s not in pinned]
        assert len(pinned) == 2 and all(any(t < p for t in laminar) for p in pinned)
        cfg = ValidConfiguration(laminar, state.pinned, state.x, state.gamma)
        out, stats = run_half_integral_procedure(g, pc.scaled, cfg)
        assert out.z == states[3].x
        # every laminar set lies inside a pinned set
        assert (stats.input_laminar, stats.input_pinned) == (0, 2)

    def test_spanning_cycle_through_an_inner_set_accepted(self):
        from cpmatch.combinatorial import validate_configuration

        g, dual = self.ring()
        # the half-cycle 3-4-5-6-7 enters T at 3, and 1-2 matches the rest
        cfg = self.configuration(dual, halves={3, 4, 5, 6, 7, 9, 10, 11}, ones={0})
        _finder, o = validate_configuration(g, g.costs(), cfg)
        assert o == 2

    def test_cycle_that_misses_an_own_node_rejected(self):
        from cpmatch.combinatorial import validate_configuration

        g, dual = self.ring()
        # the half-triangle 3-4-5 meets T, 4 and 5 but misses 6 and 7
        cfg = self.configuration(dual, halves={3, 4, 8, 9, 10, 11}, ones={0, 6})
        with pytest.raises(InvalidConfiguration, match="not a spanning odd cycle"):
            validate_configuration(g, g.costs(), cfg)

    @pytest.mark.parametrize(
        "laminar, disjoint, message",
        [
            ([{3, 4, 5}], [{1, 2, 3}], "properly crosses"),
            ([{1, 2, 3, 4, 5}], [{1, 2, 3}], "intersects"),
            ([], [{1, 2, 3}, {1, 2, 3, 4, 5}], "intersects"),
        ],
    )
    def test_set_that_meets_a_pinned_set_otherwise_rejected(self, laminar, disjoint, message):
        from cpmatch.combinatorial import validate_configuration

        g, _dual = self.ring()
        cfg = ValidConfiguration(
            laminar=[frozenset(s) for s in laminar], disjoint=[frozenset(s) for s in disjoint],
            z=[ZERO] * g.m, dual=zero_dual(g.n),
        )
        with pytest.raises(InvalidConfiguration, match=message):
            validate_configuration(g, g.costs(), cfg)


class TestSharedFinder:
    """The finder that validates a procedure run's input serves the run."""

    @pytest.fixture
    def procedure_runs(self, monkeypatch):
        """Wrap every procedure run; returns the list of runs, each a dict
        with the finders built while it ran, the (set, finder) of each
        repair, its workspaces and its ProcedureStats."""
        import cpmatch.combinatorial as comb
        import cpmatch.driver as drv_mod

        runs = []
        real_run, real_fill = comb.run_half_integral_procedure, comb.fill_inside

        class CountingFinder(CriticalMatchingFinder):
            def __init__(self, *args):
                super().__init__(*args)
                if runs:
                    runs[-1]["built"].append(self)

        class Recording(keeping_state(comb._Workspace)):
            def __init__(self, *args):
                super().__init__(*args)
                runs[-1]["workspaces"].append(self)

        def fill(g, z, s, finder):
            runs[-1]["fills"].append((s, finder))
            return real_fill(g, z, s, finder)

        def wrapped(g, costs, cfg, **kwargs):
            runs.append({"built": [], "fills": [], "workspaces": []})
            out, stats = real_run(g, costs, cfg, **kwargs)
            runs[-1]["stats"] = stats
            return out, stats

        monkeypatch.setattr(comb, "CriticalMatchingFinder", CountingFinder)
        monkeypatch.setattr(comb, "_Workspace", Recording)
        monkeypatch.setattr(comb, "fill_inside", fill)
        monkeypatch.setattr(comb, "run_half_integral_procedure", wrapped)
        monkeypatch.setattr(drv_mod, "run_half_integral_procedure", wrapped)
        return runs

    @pytest.fixture
    def checked_fills(self, procedure_runs, monkeypatch):
        """Compare the run's finder, at every repair, with a fresh one built
        from the slacks of the run's live dual and its live family: the
        pinned sets plus the laminar sets not yet unshrunk.  Returns the
        list of repaired sets."""
        import cpmatch.combinatorial as comb

        checked = []
        recorded_fill = comb.fill_inside

        def fill(g, z, s, finder):
            assert finder is procedure_runs[-1]["built"][0]
            ws = procedure_runs[-1]["workspaces"][-1]
            _g, costs, lam_sets, kay_sets, _z, _dual = ws.state
            fresh = CriticalMatchingFinder(
                g, lam_sets + kay_sets, current_dual(ws).slacks(g, costs)
            )
            for u in sorted(s):
                assert finder.critical_matching(s, u) == fresh.critical_matching(s, u)
            checked.append(s)
            return recorded_fill(g, z, s, finder)

        monkeypatch.setattr(comb, "fill_inside", fill)
        return checked

    def test_one_finder_per_run(self, procedure_runs):
        # two finders per stepped run: the one that validates the input
        # serves every repair, the other validates the output
        from cpmatch import run
        from instances import telescope

        run(telescope(stages=4, gadgets=2), solver="combinatorial")
        stepped = [r for r in procedure_runs if r["stats"].case_counts["II"] > 0]
        assert any(r["fills"] for r in stepped)
        for r in stepped:
            assert len(r["built"]) == 2
            assert all(finder is r["built"][0] for _s, finder in r["fills"])

    @pytest.mark.parametrize(
        "instance",
        ["telescope"] + [f"random{i}" for i in range(14)],
    )
    def test_memo_matches_fresh_finder(self, checked_fills, instance):
        from cpmatch import run

        run(instance_graph(instance), solver="combinatorial")
        assert checked_fills

    def test_memo_survives_unshrink(self, checked_fills, validate_each_step):
        # the augmentation repairs C with the finder built before the unshrink
        import cpmatch.combinatorial as comb

        g, cfg = unshrink_instance()
        c = UNSHRINK_C
        validated = validate_each_step(allow_exposed_nodes=True)
        out, stats = comb.run_half_integral_procedure(
            g, g.costs(), cfg, allow_exposed_nodes=True
        )
        # the second and third searches start after T was unshrunk
        assert validated == [[c, UNSHRINK_T], [c], [c]]
        assert [ev["case"] for ev in stats.events] == ["II", "II", "I(a)"]
        assert stats.unshrinks == 1
        assert out.laminar == [c]
        assert out.z == [ZERO, ONE, ZERO, ZERO, ONE, ZERO, ONE, ZERO, ONE]
        assert checked_fills == [c]


class TestCarriedWorkspace:
    """One procedure workspace per run, rebuilt only after an unshrink, with
    slacks and node counts carried from step to step."""

    @pytest.fixture
    def checked_workspaces(self, monkeypatch):
        """Compare the workspace every alternating search receives with one
        built from scratch from the run's current state, and its slacks, top
        set duals, twice-values, node counts, neighbour lists and odd-cycle
        count with values recomputed directly.  Returns the list of checked
        workspaces."""
        import cpmatch.combinatorial as comb

        real_ws, real_search = comb._Workspace, comb._alternating_search
        checked = []

        def search(ws):
            from cpmatch.graph import decompose_support

            g, costs, lam_sets, kay_sets, z, _dual = ws.state
            dual = current_dual(ws)
            slacks = per_edge_slacks(dual, g, costs)
            fresh = real_ws(g, lam_sets, kay_sets, z, dual, dual.slacks(g, costs))
            assert ws.tops == fresh.tops
            assert ws.wg == fresh.wg
            assert ws.cmap.edge_preimage == fresh.cmap.edge_preimage
            assert ws.z2 == fresh.z2
            assert ws.wg.neighbours == fresh.wg.neighbours
            values = [z[e] for e in ws.cmap.edge_preimage]
            assert ws.z2 == [int(2 * val) for val in values]
            assert ws.o == decompose_support(values, fresh.wg).o
            assert all(type(s) is int for s in ws.slack)
            assert [Rat(s, ws.unit) for s in ws.slack] == [slacks[e] for e in ws.cmap.edge_preimage]
            assert [Rat(s, fresh.unit) for s in fresh.slack] == [slacks[e] for e in ws.cmap.edge_preimage]
            assert list(ws.set_units) == [s for s in ws.tops if s in lam_sets]
            for s in ws.set_units:
                assert Rat(ws.set_dual(s), ws.unit) == dual.of_set(s)
            deg2 = [0] * (ws.wg.n + 1)
            halves = [0] * (ws.wg.n + 1)
            for e, val in enumerate(values):
                for v in ws.wg.endpoints(e):
                    deg2[v] += int(2 * val)
                    halves[v] += val == HALF
            assert ws.deg2 == deg2
            assert ws.halves == halves
            assert ws.exposed == [v for v in range(1, ws.wg.n + 1) if deg2[v] == 0]
            for v in range(1, ws.wg.n + 1):
                at_v = [(b if a == v else a, e) for e, (a, b, _c) in enumerate(ws.wg.edges) if v in (a, b)]
                assert list(ws.wg.neighbours[v]) == sorted(at_v)
            checked.append(ws)
            return real_search(ws)

        monkeypatch.setattr(comb, "_Workspace", keeping_state(real_ws))
        monkeypatch.setattr(comb, "_alternating_search", search)
        return checked

    @pytest.mark.parametrize(
        "instance",
        ["telescope"] + [f"random{i}" for i in range(14)],
    )
    def test_carried_workspace_matches_fresh(self, checked_workspaces, instance):
        from cpmatch import run

        run(instance_graph(instance), solver="combinatorial")
        assert checked_workspaces

    def test_rebuilt_after_unshrink(self, checked_workspaces):
        g, cfg = unshrink_instance()
        _out, stats = run_half_integral_procedure(g, g.costs(), cfg, allow_exposed_nodes=True)
        assert stats.unshrinks == 1
        assert UNSHRINK_T in checked_workspaces[0].tops
        assert UNSHRINK_T not in checked_workspaces[-1].tops

    def test_unit_is_twice_the_lcm_of_rational_denominators(self, monkeypatch):
        # the build takes int slacks over one unit; its own unit must still
        # be twice the lcm of the denominators, in lowest terms, of the
        # contracted edges' slacks and of the top laminar sets' duals
        import math

        import cpmatch.combinatorial as comb
        from cpmatch import run

        real_init = comb._Workspace.__init__
        units = []

        def init(ws, g, lam_sets, kay_sets, z, dual, slacks):
            real_init(ws, g, lam_sets, kay_sets, z, dual, slacks)
            rat_slacks = [Rat(k, slacks.unit) for k in slacks]
            values = [rat_slacks[e] for e in ws.cmap.edge_preimage]
            values += [dual.of_set(s) for s in ws.tops if s in lam_sets]
            assert ws.unit == 2 * math.lcm(*(int(Rat(v).denominator) for v in values))
            assert [Rat(k, ws.unit) for k in ws.slack] == values[:ws.wg.m]
            units.append(ws.unit)

        monkeypatch.setattr(comb._Workspace, "__init__", init)
        for instance in ["telescope"] + [f"random{i}" for i in range(14)]:
            run(instance_graph(instance), solver="combinatorial")
        g, cfg = unshrink_instance()
        run_half_integral_procedure(g, g.costs(), cfg, allow_exposed_nodes=True)
        assert len(units) > 15 and max(units) > 2

    def test_contracts_once_per_run_plus_once_per_unshrink(self, monkeypatch):
        import cpmatch.combinatorial as comb
        import cpmatch.driver as drv_mod
        from cpmatch import run
        from instances import telescope

        calls = []
        runs = []
        real_contract = comb.contract_with_dual
        real_run = comb.run_half_integral_procedure

        def contract(*args):
            calls.append(args)
            return real_contract(*args)

        def wrapped(g, costs, cfg, **kwargs):
            before = len(calls)
            out, stats = real_run(g, costs, cfg, **kwargs)
            runs.append((len(calls) - before, stats))
            return out, stats

        monkeypatch.setattr(comb, "contract_with_dual", contract)
        monkeypatch.setattr(comb, "run_half_integral_procedure", wrapped)
        monkeypatch.setattr(drv_mod, "run_half_integral_procedure", wrapped)
        run(telescope(stages=4, gadgets=2), solver="combinatorial")
        g, cfg = unshrink_instance()
        wrapped(g, g.costs(), cfg, allow_exposed_nodes=True)
        assert any(stats.iterations > 1 for _count, stats in runs)
        assert runs[-1][1].unshrinks == 1
        assert [count for count, _stats in runs] == [1 + stats.unshrinks for _c, stats in runs]

    @pytest.mark.parametrize(
        "instance",
        ["telescope"] + [f"random{i}" for i in range(14)],
    )
    def test_case_ii_edge_bound_matches_full_scan(self, monkeypatch, instance):
        # the bound read from the edges at B+ nodes equals the one from a
        # scan of every workspace edge
        import cpmatch.combinatorial as comb
        from cpmatch import run

        real_bound = comb._edge_bound
        steps = []

        def bound(ws, b_plus, b_minus):
            # got is in half-units of the workspace, the scan in Rat
            got = real_bound(ws, b_plus, b_minus)
            want = None
            for e, (a, b, _c) in enumerate(ws.wg.edges):
                d = sum((v in b_plus) - (v in b_minus) for v in (a, b))
                if d > 0 and ws.slack[e] != 0:
                    cand = Rat(ws.slack[e], ws.unit) / d
                    want = cand if want is None else min(want, cand)
            if want is None:
                assert got is None
            else:
                assert type(got) is int
                assert Rat(got, 2 * ws.unit) == want
            steps.append(got)
            return got

        monkeypatch.setattr(comb, "_edge_bound", bound)
        run(instance_graph(instance), solver="combinatorial")
        assert steps

    def test_odd_bound_doubles_the_unit(self):
        # Natural runs never need it: after a first step of half a unit,
        # give the non-tight edge 7-8, between two B+ nodes, an odd slack in
        # units, so the next Case II bound is half a unit.  That step doubles
        # the unit and keeps the value of every carried slack and dual.
        import cpmatch.combinatorial as comb

        g, cfg = unshrink_instance()
        ws = comb._Workspace(
            g, list(cfg.laminar), [], cfg.z, cfg.dual, cfg.dual.slacks(g, g.costs())
        )
        assert ws.unit == 2
        bridge = ws.cmap.edge_preimage.index(8)  # 7-8
        _tag, b_plus, b_minus = comb._alternating_search(ws)
        seven, eight, t = (ws.cmap.node_image[7], ws.cmap.node_image[8],
                           ws.cmap.image_node_of_set(UNSHRINK_T))
        assert {seven, eight} <= set(b_plus)
        assert b_minus == [t]
        ws.shift_duals(b_plus, b_minus, ws.epsilon(2))  # a step of 1/2
        assert ws.moved == {6: 1, 7: 1, 8: 1, UNSHRINK_T: -1}

        ws.slack[bridge] = 1
        assert comb._alternating_search(ws) == ("frontier", b_plus, b_minus)
        slacks_before = [Rat(v, ws.unit) for v in ws.slack]
        moved_before = {key: Rat(v, ws.unit) for key, v in ws.moved.items()}
        t_before = Rat(ws.set_dual(UNSHRINK_T), ws.unit)
        assert slacks_before[bridge] == HALF
        assert t_before == HALF

        bound = comb._edge_bound(ws, b_plus, b_minus)
        assert bound == 1  # half-units; T's dual allows 2
        eps = ws.epsilon(bound)
        assert ws.unit == 4
        assert all(type(v) is int for v in ws.slack)
        assert [Rat(v, ws.unit) for v in ws.slack] == slacks_before
        assert {key: Rat(v, ws.unit) for key, v in ws.moved.items()} == moved_before
        assert Rat(ws.set_dual(UNSHRINK_T), ws.unit) == t_before
        assert Rat(eps, ws.unit) == slacks_before[bridge] / 2

        ws.shift_duals(b_plus, b_minus, eps)
        assert ws.slack[bridge] == 0
        assert Rat(ws.set_dual(UNSHRINK_T), ws.unit) == Rat(1, 4)
        dual = DualSolution(cfg.dual)
        ws.write_back(dual)
        assert dual[UNSHRINK_T] == Rat(1, 4)
        assert dual[UNSHRINK_C] == rat(5)
        assert dual.node(6) == dual.node(7) == dual.node(8) == Rat(3, 4)
        assert all(dual.node(u) == ZERO for u in (1, 2, 3, 4, 5))

    def test_unshrink_run_output_pinned(self):
        # the dual, z and step events of the run that unshrinks T, as the
        # procedure gave them when it still stepped the duals in Rat
        g, cfg = unshrink_instance()
        out, stats = run_half_integral_procedure(g, g.costs(), cfg, allow_exposed_nodes=True)
        assert out.dual == {
            1: ZERO, 2: ZERO, 3: ZERO, 4: rat(4), 5: rat(-4), 6: rat(5), 7: rat(5),
            8: rat(5), UNSHRINK_C: ONE, UNSHRINK_T: ZERO,
        }
        assert all(type(v) is Rat for v in out.dual.values())
        assert out.z == [ZERO, ONE, ZERO, ZERO, ONE, ZERO, ONE, ZERO, ONE]
        assert stats.events == [
            {"case": "II", "epsilon": "1", "raised": [2, 3, 4], "lowered": [1]},
            {"case": "II", "epsilon": "4", "raised": [2, 4, 5, 6], "lowered": [1, 3]},
            {"case": "I(a)", "walk": [4, 1, 2, 3, 5, 6]},
        ]
        assert stats.unshrinks == 1

    def test_three_decompositions_per_run_plus_one_per_unshrink(self, monkeypatch):
        # validating the input, building the workspace and validating the
        # output decompose a support once each; a rebuild after an unshrink
        # decomposes its own
        import cpmatch.combinatorial as comb
        import cpmatch.driver as drv_mod
        from cpmatch import run
        from instances import telescope

        calls = []
        runs = []
        real_decompose = comb.decompose_support
        real_run = comb.run_half_integral_procedure

        def decompose(*args):
            calls.append(args)
            return real_decompose(*args)

        def wrapped(g, costs, cfg, **kwargs):
            before = len(calls)
            out, stats = real_run(g, costs, cfg, **kwargs)
            runs.append((len(calls) - before, stats))
            return out, stats

        monkeypatch.setattr(comb, "decompose_support", decompose)
        monkeypatch.setattr(comb, "run_half_integral_procedure", wrapped)
        monkeypatch.setattr(drv_mod, "run_half_integral_procedure", wrapped)
        run(telescope(stages=4, gadgets=2), solver="combinatorial")
        g, cfg = unshrink_instance()
        wrapped(g, g.costs(), cfg, allow_exposed_nodes=True)
        assert any(stats.iterations > 1 for _count, stats in runs)
        assert runs[-1][1].unshrinks == 1
        assert [count for count, _stats in runs] == [3 + stats.unshrinks for _c, stats in runs]

    def test_two_slack_passes_per_run_plus_one_per_unshrink(self, monkeypatch):
        # validating the input and validating the output compute the slacks
        # once each; the first workspace takes the validated list, and a
        # rebuild after an unshrink computes its own
        import cpmatch.combinatorial as comb
        import cpmatch.driver as drv_mod
        from cpmatch import run
        from instances import telescope

        calls = []
        runs = []
        real_slacks = DualSolution.slacks
        real_run = comb.run_half_integral_procedure

        def slacks(dual, g, costs):
            calls.append(dual)
            return real_slacks(dual, g, costs)

        def wrapped(g, costs, cfg, **kwargs):
            before = len(calls)
            out, stats = real_run(g, costs, cfg, **kwargs)
            runs.append((len(calls) - before, stats))
            return out, stats

        monkeypatch.setattr(DualSolution, "slacks", slacks)
        monkeypatch.setattr(comb, "run_half_integral_procedure", wrapped)
        monkeypatch.setattr(drv_mod, "run_half_integral_procedure", wrapped)
        run(telescope(stages=4, gadgets=2), solver="combinatorial")
        g, cfg = unshrink_instance()
        wrapped(g, g.costs(), cfg, allow_exposed_nodes=True)
        assert any(stats.case_counts["II"] > 0 for _count, stats in runs)
        assert runs[-1][1].unshrinks == 1
        assert [count for count, _stats in runs] == [2 + stats.unshrinks for _c, stats in runs]

    def test_third_half_edge_raises_structure_violation(self, monkeypatch):
        # a set_value that also puts half on the pendant edge 3-4 leaves node
        # 3 with three half-edges when the triangle opens; the check after
        # the step reports it as a structure violation
        import cpmatch.combinatorial as comb
        from cpmatch.errors import StructureViolation

        real_set = comb._Workspace.set_value

        def sabotaged(ws, e_star, v2):
            real_set(ws, e_star, v2)
            if v2 == 1:
                real_set(ws, ws.cmap.edge_preimage.index(3), 1)

        # a tight triangle with a pendant edge, from every node exposed under
        # the zero dual: the run opens the triangle (the greedy start of
        # solve_bipartite_via_procedure would match 1-2 and 3-4 at once)
        g = make_graph(4, [(1, 2, 0), (2, 3, 0), (1, 3, 0), (3, 4, 10)])
        cold = ValidConfiguration(laminar=[], disjoint=[], z=[ZERO] * g.m, dual=zero_dual(4))
        _out, stats = run_half_integral_procedure(g, g.costs(), cold, allow_exposed_nodes=True)
        assert stats.case_counts["Ic"] == 1
        monkeypatch.setattr(comb._Workspace, "set_value", sabotaged)
        with pytest.raises(StructureViolation, match="3 half-edges"):
            run_half_integral_procedure(g, g.costs(), cold, allow_exposed_nodes=True)

    def test_half_cycle_listed_as_decompose_support_lists_it(self):
        # from every start node, the walked cycle comes out in the node order
        # of the decomposition, and its edges close a walk from the start
        from types import SimpleNamespace

        from cpmatch.combinatorial import _half_cycle
        from cpmatch.graph import decompose_support

        g = make_graph(10, [
            (9, 3, 0), (3, 7, 0), (7, 1, 0), (1, 5, 0), (5, 9, 0),   # five-cycle
            (8, 2, 0), (2, 10, 0), (10, 8, 0),                       # triangle
            (4, 6, 0), (3, 6, 0), (2, 5, 0), (8, 2, 0),              # 1-edge, 0-edges
        ])
        x = [HALF] * 8 + [ONE, ZERO, ZERO, ZERO]
        ws = SimpleNamespace(wg=g, z2=[int(2 * v) for v in x])
        cycles = decompose_support(x, g).odd_cycles
        assert cycles == [[1, 5, 9, 3, 7], [2, 8, 10]]
        for cycle in cycles:
            for start in cycle:
                nodes, edges = _half_cycle(ws, start)
                assert nodes == cycle
                assert sorted(edges) == sorted(
                    e for e in range(g.m) if x[e] == HALF and g.endpoints(e)[0] in cycle
                )
                cur = start
                for e in edges:
                    a, b = g.endpoints(e)
                    assert cur in (a, b)
                    cur = b if a == cur else a
                assert cur == start
