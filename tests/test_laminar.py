import re

import pytest

from cpmatch import LaminarFamily, LaminarityViolation, make_graph
from cpmatch.driver import select_new_cuts
from cpmatch.graph import SupportDecomposition
from cpmatch.laminar import contract_with_dual, odd_set, sorted_sets
from cpmatch.lp import DualSolution
from cpmatch.rational import rat

from conftest import TRIANGLE_LEFT, TRIANGLE_RIGHT
from paper_oracles import dual_inside


class TestOddSet:
    def test_valid(self):
        assert odd_set([3, 1, 2], 8) == frozenset({1, 2, 3})

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            odd_set([1, 2, 3, 4], 10)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            odd_set([1], 10)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            odd_set([1, 2, 3], 4)

    def test_set_outside_the_graph_rejected(self):
        # a family checks each of its sets as an odd set of the graph
        with pytest.raises(ValueError, match=re.escape("odd set [4, 5, 7] has a node outside 1..6")):
            LaminarFamily(6, [{4, 5, 7}])


class TestInsertChecked:
    """The constructor inserts each set checked against the ones before it."""

    def test_insert_into_empty(self):
        fam = LaminarFamily(8, [{1, 2, 3}])
        assert len(fam) == 1

    def test_nested_insert(self):
        fam = LaminarFamily(8, [{1, 2, 3}, {1, 2, 3, 4, 5}])
        assert len(fam) == 2
        assert fam.tops == [frozenset({1, 2, 3, 4, 5})]
        assert fam.children[frozenset({1, 2, 3, 4, 5})] == (frozenset({1, 2, 3}),)
        assert fam.children[frozenset({1, 2, 3})] == ()

    def test_crossing_rejected(self):
        with pytest.raises(LaminarityViolation):
            LaminarFamily(8, [{1, 2, 3}, {3, 4, 5}])

    def test_duplicate_rejected(self):
        with pytest.raises(LaminarityViolation):
            LaminarFamily(8, [{1, 2, 3}, {1, 2, 3}])

    def test_size_bound_holds_on_deep_nesting(self):
        # max-size laminar chains never exceed n/2 members
        n = 14
        sets = [set(range(1, k)) for k in (4, 6, 8, 10, 12)] + [{12, 13, 14}]
        fam = LaminarFamily(n, sets)
        assert len(fam) == 6 <= n // 2
        assert fam.tops == sorted(
            [frozenset({12, 13, 14}), frozenset(range(1, 12))], key=lambda s: (len(s), sorted(s))
        )

    def test_sets_come_back_in_sorted_order(self):
        given = [{9, 10, 11}, {1, 2, 3, 4, 5}, {6, 7, 8}, [3, 2, 1], {12, 13, 14}]
        fam = LaminarFamily(20, given)
        assert fam.sets == sorted_sets(frozenset(s) for s in given)
        assert fam.sets[0] == frozenset({1, 2, 3})


class TestMaximalSets:
    """The retained sets a new cut absorbs: the maximal ones meeting its
    cycle."""

    @staticmethod
    def absorbed(fam, cycle):
        dec = SupportDecomposition(matched_edges=[], odd_cycles=[cycle])
        [(_nodes, absorbed, _hat)] = select_new_cuts(dec, fam.tops)
        return absorbed

    def test_nested_query(self):
        fam = LaminarFamily(8, [{1, 2, 3}, {1, 2, 3, 4, 5}])
        assert self.absorbed(fam, [5, 6, 7]) == [frozenset({1, 2, 3, 4, 5})]

    def test_empty_family(self):
        assert self.absorbed(LaminarFamily(8), [1, 2, 3]) == []

    def test_two_disjoint_hits(self):
        fam = LaminarFamily(12, [{1, 2, 3}, {7, 8, 9}])
        assert self.absorbed(fam, [3, 4, 7]) == [
            frozenset({1, 2, 3}),
            frozenset({7, 8, 9}),
        ]


class TestContraction:
    def test_bowtie_contract_both_triangles(self, bowtie):
        fam = LaminarFamily(6, [TRIANGLE_LEFT, TRIANGLE_RIGHT])
        new_g, cmap = contract_with_dual(bowtie, fam.sets)
        assert new_g.n == 2 and new_g.m == 1
        # the bridge keeps its own cost
        assert new_g.edges[0][2] == bowtie.edges[6][2]
        assert cmap.edge_preimage == [6]

    def test_contract_nothing_is_identity(self, bowtie):
        new_g, cmap = contract_with_dual(bowtie, [])
        assert new_g == bowtie
        assert cmap.edge_preimage == list(range(7))
        assert all(cmap.node_image[u] == u for u in range(1, 7))

    def test_nested_contract_outer_drops_inner(self):
        g = make_graph(8, [(1, 2, 0), (3, 4, 0), (5, 6, 1), (7, 8, 1), (1, 6, 2)])
        fam = LaminarFamily(8, [{1, 2, 3}, {1, 2, 3, 4, 5}])
        new_g, cmap = contract_with_dual(g, [s for s in fam.sets if len(s) == 5])
        # the inner set maps to its outer set's node: it vanished from the picture
        outer = cmap.set_node[frozenset({1, 2, 3, 4, 5})]
        assert {cmap.node_image[u] for u in (1, 2, 3)} == {outer}
        assert new_g.n == 4

    def test_selected_nested_pair_rejected(self):
        g = make_graph(8, [(1, 2, 0)])
        fam = LaminarFamily(8, [{1, 2, 3}, {1, 2, 3, 4, 5}])
        with pytest.raises(ValueError):
            contract_with_dual(g, fam.sets)

    def test_preimage_bijection_roundtrip(self, bowtie):
        new_g, cmap = contract_with_dual(bowtie, [TRIANGLE_LEFT])
        # every surviving edge has a unique pre-image; nothing else survives
        assert sorted(cmap.edge_preimage) == [3, 4, 5, 6]
        assert len(set(cmap.edge_preimage)) == new_g.m

    def test_surviving_edges_keep_their_cost_and_order(self):
        # two contracted sets, one holding a chain of inner sets: the edges
        # inside a set are dropped, every other edge keeps its cost, in the
        # original edge order, between the images of its ends
        outer = frozenset(range(1, 8))
        g = make_graph(12, [(1, 8, 50), (4, 9, 60), (7, 8, 70), (2, 3, 0), (10, 11, 80),
                            (11, 12, 90), (5, 11, 100), (8, 9, 110)])
        new_g, cmap = contract_with_dual(g, [outer, frozenset({10, 11, 12})])
        assert cmap.edge_preimage == [0, 1, 2, 6, 7]
        for (a, b, cost), e in zip(new_g.edges, cmap.edge_preimage):
            u, v, c = g.edges[e]
            assert (a, b, cost) == (cmap.node_image[u], cmap.node_image[v], c)
        assert new_g.n == 4 and cmap.node_image[1] == 1 and cmap.node_image[10] == 4

    def test_parallel_edges_kept_distinct(self):
        g = make_graph(5, [(1, 4, 3), (2, 4, 7), (3, 4, 9), (1, 2, 0), (2, 3, 0), (1, 3, 0)])
        new_g, cmap = contract_with_dual(g, [frozenset({1, 2, 3})])
        assert new_g.m == 3  # three parallel boundary edges survive distinct
        assert len({tuple(new_g.endpoints(e)) for e in range(3)}) == 1


class TestContractionImageInvariant:
    @pytest.mark.parametrize("seed", range(5))
    def test_image_of_optimum_stays_half_integral_with_same_o(self, seed):
        # contract the maximal positive-dual sets of a real run w.r.t. its
        # extremal dual: the image must stay proper-half-integral with the
        # same number of odd cycles
        from cpmatch import random_instance, run
        from cpmatch.graph import decompose_support, is_proper_half_integral
        from cpmatch.lp import DualSolution
        from cpmatch.rational import parse_rat

        from instances import MULTI_ROUND_RANDOM

        n, dens, hi, pinned = MULTI_ROUND_RANDOM[seed]
        g = random_instance(n, dens, (0, hi), pinned)
        res = run(g)
        rec = next(r for r in res.records if r.cuts_imposed and r.dual_kind == "extremal")
        x = [parse_rat(s) for s in rec.primal]
        dual = DualSolution()
        for u_str, val in rec.dual_nodes.items():
            dual[int(u_str)] = parse_rat(val)
        for nodes, val in rec.dual_sets:
            dual[frozenset(nodes)] = parse_rat(val)
        fam = LaminarFamily(g.n, [frozenset(s) for s in rec.cuts_imposed])
        maximal = set(fam.tops)
        new_g, cmap = contract_with_dual(g, [s for s in maximal if dual.of_set(s) > 0])
        x_img = [x[cmap.edge_preimage[e]] for e in range(new_g.m)]
        assert is_proper_half_integral(x_img, new_g)
        assert decompose_support(x_img, new_g).o == rec.odd_cycle_count


class TestDualInside:
    def test_sums_strict_subsets_containing_node(self):
        s = frozenset({1, 2, 3, 4, 5})
        dual = DualSolution(
            {1: rat(7), frozenset({1, 2, 3}): rat(5), s: rat(100), frozenset({4, 5, 6, 7, 8, 9, 10}): rat(11)}
        )
        assert dual_inside(dual, s, 1) == 12  # own value + inner set, not s itself
        assert dual_inside(dual, s, 4) == 0
