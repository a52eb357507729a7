import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmatch import (
    ParseError,
    check_degree_and_cut_feasibility,
    decompose_support,
    is_proper_half_integral,
    make_graph,
    parse_instance,
    run,
    write_instance,
)
from cpmatch.graph import feasibility_violation
from cpmatch.rational import HALF, ONE, Rat, ZERO, rat

from conftest import BOWTIE_EDGES, TRIANGLE_LEFT, TRIANGLE_RIGHT


def reassemble(dec, g):
    """Inverse of decompose_support (cycle edges picked lowest-id first)."""
    x = [ZERO] * g.m
    for e in dec.matched_edges:
        x[e] = ONE
    for cycle in dec.odd_cycles:
        k = len(cycle)
        for i in range(k):
            u, v = cycle[i], cycle[(i + 1) % k]
            cands = [
                e
                for e, (a, b, _c) in enumerate(g.edges)
                if {a, b} == {u, v} and x[e] == ZERO
            ]
            if not cands:
                raise ValueError(f"no free edge between {u} and {v}")
            x[min(cands)] = HALF
    return x


def solution_cost(x, costs):
    return sum((Rat(c) * val for c, val in zip(costs, x)), ZERO)


def vec(g, assignments):
    x = [ZERO] * g.m
    for e, val in assignments.items():
        x[e] = val
    return x


class TestGraphBasics:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1, 5)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_graph(2, [(1, 3, 5)])

    @pytest.mark.parametrize("cost", [rat(1, 2), 0.5, Rat(2)], ids=["Rat", "float", "integral Rat"])
    def test_cost_that_is_not_an_int_rejected(self, cost):
        # the cost perturbation and the LPs take ints only, so a run on such
        # a graph stops at the graph, with the edge named, and not in perturb
        with pytest.raises(ValueError, match=re.escape(f"edge (1,2) has cost {cost!r}, not an int")):
            run(make_graph(4, [(1, 2, cost), (3, 4, 1), (1, 3, 2), (2, 4, 2)]))

    def test_parallel_edges_allowed(self):
        g = make_graph(2, [(1, 2, 5), (1, 2, 7)])
        assert g.m == 2

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_incidence_queries_match_an_edge_scan(self, data):
        # incident/delta/inside read per-node incidence lists; they must
        # return what a scan of every edge returns, in ascending edge id,
        # also for sets naming numbers that are not nodes (-2..0, n+1, n+2)
        n = data.draw(st.integers(2, 7))
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        g = make_graph(n, [(u, v, 0) for u, v in data.draw(st.lists(pair, max_size=14))])
        nodes = data.draw(st.sets(st.integers(-2, n + 2)))
        assert g.delta(nodes) == [
            e for e, (a, b, _c) in enumerate(g.edges) if (a in nodes) != (b in nodes)
        ]
        assert g.inside(nodes) == [
            e for e, (a, b, _c) in enumerate(g.edges) if a in nodes and b in nodes
        ]
        for u in range(1, n + 1):
            assert g.incident(u) == [e for e, (a, b, _c) in enumerate(g.edges) if u in (a, b)]

    def test_delta_and_inside(self, bowtie):
        assert bowtie.delta(TRIANGLE_LEFT) == [6]
        assert bowtie.inside(TRIANGLE_LEFT) == [0, 1, 2]


class TestInstanceFormat:
    def test_roundtrip(self, bowtie):
        assert parse_instance(write_instance(bowtie)).edges == bowtie.edges

    def test_comments_and_blanks_skipped(self):
        text = "c a comment\n\np edge 2 1\ne 1 2 -3\n"
        g = parse_instance(text)
        assert g.n == 2 and g.edges == ((1, 2, -3),)

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_instance("p edge x y\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_instance("p edge 2 2\ne 1 2 0\n")

    def test_edge_before_header(self):
        with pytest.raises(ParseError):
            parse_instance("e 1 2 0\n")


class TestProperHalfIntegral:
    def test_single_matched_edge(self):
        g = make_graph(2, [(1, 2, 1)])
        assert is_proper_half_integral([ONE], g)

    def test_even_half_cycle_rejected(self):
        g = make_graph(4, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 1, 0)])
        assert not is_proper_half_integral([HALF] * 4, g)

    def test_two_disjoint_half_triangles(self, bowtie):
        x = vec(bowtie, {e: HALF for e in range(6)})
        assert is_proper_half_integral(x, bowtie)

    def test_other_values_rejected(self):
        g = make_graph(2, [(1, 2, 1)])
        assert not is_proper_half_integral([rat(1, 3)], g)

    def test_lone_half_edge_rejected(self):
        g = make_graph(2, [(1, 2, 1)])
        assert not is_proper_half_integral([HALF], g)

    def test_parallel_two_cycle_rejected(self):
        g = make_graph(2, [(1, 2, 1), (1, 2, 2)])
        assert not is_proper_half_integral([HALF, HALF], g)


class TestDecompose:
    def test_bowtie_two_triangles(self, bowtie):
        x = vec(bowtie, {e: HALF for e in range(6)})
        dec = decompose_support(x, bowtie)
        assert dec.o == 2
        assert dec.matched_edges == []
        assert dec.odd_cycles == [[1, 2, 3], [4, 5, 6]]

    def test_perfect_matching_vector(self, bowtie):
        x = vec(bowtie, {0: ONE, 5: ONE, 6: ONE})
        dec = decompose_support(x, bowtie)
        assert dec.o == 0 and dec.odd_cycles == []
        assert dec.matched_edges == [0, 5, 6]

    def test_structure_only_no_degree_check(self):
        # triangle at 1/2 plus a disjoint 1-edge on five nodes: not
        # degree-feasible, but the decomposition is purely structural
        g = make_graph(5, [(1, 2, 0), (2, 3, 0), (1, 3, 0), (4, 5, 0)])
        x = [HALF, HALF, HALF, ONE]
        dec = decompose_support(x, g)
        assert dec.o == 1 and dec.matched_edges == [3]

    def test_cycle_order_starts_at_min_toward_smaller_neighbor(self):
        # cycle 2-5-3-6-4-2: printed from node 2 toward its smaller neighbor 4
        g = make_graph(6, [(2, 5, 0), (5, 3, 0), (3, 6, 0), (6, 4, 0), (4, 2, 0)])
        dec = decompose_support([HALF] * 5, g)
        assert dec.odd_cycles == [[2, 4, 6, 3, 5]]

    def test_even_cycle_raises(self):
        g = make_graph(4, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 1, 0)])
        with pytest.raises(ValueError):
            decompose_support([HALF] * 4, g)

    def test_reassemble_roundtrip(self, bowtie):
        x = vec(bowtie, {e: HALF for e in range(6)})
        x[6] = ZERO
        dec = decompose_support(x, bowtie)
        assert reassemble(dec, bowtie) == x

    @pytest.mark.parametrize("seed", range(6))
    def test_reassemble_roundtrip_on_lp_optima(self, seed):
        from cpmatch import LaminarFamily, random_instance, solve_primal
        from cpmatch.rational import perturb

        g = random_instance(10, 0.35, (0, 1), 50_000 + seed)
        pc = perturb([c for _u, _v, c in g.edges])
        x, _dual, _obj = solve_primal(g, pc.scaled, LaminarFamily(g.n))
        dec = decompose_support(x, g)
        assert reassemble(dec, g) == x


class TestFeasibility:
    def test_bowtie_half_solution_no_cuts(self, bowtie):
        x = vec(bowtie, {e: HALF for e in range(6)})
        assert check_degree_and_cut_feasibility(x, bowtie, [])

    def test_bowtie_half_solution_violates_triangle_cut(self, bowtie):
        x = vec(bowtie, {e: HALF for e in range(6)})
        assert not check_degree_and_cut_feasibility(x, bowtie, [TRIANGLE_LEFT])

    def test_unique_matching_satisfies_both_cuts(self, bowtie):
        x = vec(bowtie, {0: ONE, 5: ONE, 6: ONE})
        assert check_degree_and_cut_feasibility(
            x, bowtie, [TRIANGLE_LEFT, TRIANGLE_RIGHT]
        )

    def test_negative_value_rejected(self, bowtie):
        x = vec(bowtie, {0: -ONE})
        assert not check_degree_and_cut_feasibility(x, bowtie, [])

    def test_violation_names_the_first_breach(self, bowtie):
        assert feasibility_violation(vec(bowtie, {0: ONE, 3: -ONE}), bowtie, []) == {
            "edge": 3,
            "reason": "negative",
        }
        assert feasibility_violation(vec(bowtie, {0: ONE}), bowtie, []) == {
            "node": 3,
            "reason": "degree",
        }
        x = vec(bowtie, {e: HALF for e in range(6)})
        assert feasibility_violation(x, bowtie, [TRIANGLE_RIGHT, TRIANGLE_LEFT]) == {
            "set": [4, 5, 6],
            "reason": "cut below one",
        }

    def test_thirds_summed_exactly(self, six_cycle):
        third, two_thirds = rat(1, 3), rat(2, 3)
        x = [third, two_thirds] * 3
        assert feasibility_violation(x, six_cycle, []) is None
        assert feasibility_violation([third] * 6, six_cycle, []) == {
            "node": 1,
            "reason": "degree",
        }

    def test_covered_nodes_of_a_decomposition(self, bowtie):
        dec = decompose_support(vec(bowtie, {0: HALF, 1: HALF, 2: HALF, 3: ONE}), bowtie)
        assert dec.covered(bowtie) == {1, 2, 3, 4, 5}

    def test_solution_cost(self, bowtie):
        x = vec(bowtie, {0: ONE, 5: ONE, 6: ONE})
        costs = [c for _u, _v, c in BOWTIE_EDGES]
        assert solution_cost(x, costs) == 10
