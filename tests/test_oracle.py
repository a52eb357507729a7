import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmatch import (
    GenerationFailed,
    NoPerfectMatching,
    SchemaMismatch,
    brute_force_mcpm,
    make_graph,
    random_instance,
    run,
    verify_trace,
    write_instance,
)
from cpmatch.driver import iteration_bound
from cpmatch.graph import Graph
from cpmatch.oracle import VerifyReport, parse_trace
from cpmatch.rational import perturb

import reference_oracle
from conftest import verify_line
from paper_oracles import brute_force_fractional_opt, enumerate_perfect_matchings

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def unchecked_graph(n, edges):
    """A Graph built past its constructor's checks, so that it may hold
    self-loops, which make_graph refuses and the oracle must skip."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", tuple(edges))
    return g


@st.composite
def oracle_graphs(draw):
    """n in 0..12, mostly even, odd and edgeless graphs included; parallel
    edges, self-loops, and costs in {0, 1, 2}, so optima often tie.  Half
    the even graphs get a planted perfect matching, so that large ones have
    a matching to find."""
    n = draw(st.one_of(st.integers(0, 6).map(lambda k: 2 * k), st.integers(0, 12)))
    cost = st.integers(0, 2)
    edges = []
    if n:
        node = st.integers(1, n)
        edges = draw(st.lists(st.tuples(node, node, cost), max_size=3 * n))
    if n % 2 == 0 and draw(st.booleans()):
        order = draw(st.permutations(range(1, n + 1)))
        planted = [(order[i], order[i + 1], draw(cost)) for i in range(0, n, 2)]
        edges = draw(st.permutations(edges + planted))
    return unchecked_graph(n, edges)


def outcome(oracle, g, costs):
    """(edges, cost, type of cost) the oracle returns, or the type it raises."""
    try:
        edges, cost = oracle(g, costs)
    except NoPerfectMatching as exc:
        return type(exc)
    return edges, cost, type(cost)


class TestBruteForce:
    def test_bowtie(self, bowtie):
        edges, cost = brute_force_mcpm(bowtie)
        assert edges == [0, 5, 6]
        assert cost == 10

    def test_single_edge(self):
        g = make_graph(2, [(1, 2, 5)])
        assert brute_force_mcpm(g) == ([0], 5)

    def test_triangle_has_no_matching(self):
        g = make_graph(3, [(1, 2, 0), (2, 3, 0), (1, 3, 0)])
        with pytest.raises(NoPerfectMatching):
            brute_force_mcpm(g)

    def test_node_limit(self):
        g = make_graph(18, [(1, 2, 0)])
        with pytest.raises(ValueError):
            brute_force_mcpm(g)

    def test_perturbed_costs_rank_matchings(self, bowtie, bowtie_perturbed):
        edges, cost = brute_force_mcpm(bowtie, bowtie_perturbed.scaled)
        assert edges == [0, 5, 6] and cost == 1347

    @pytest.mark.parametrize(
        "n,edges,want",
        [
            # two matchings of cost 1: {1-3, 2-4} takes edge 1 at node 1,
            # {1-2, 3-4} edge 2, though its ids [0, 2] sort before [1, 3]
            (4, [(3, 4, 1), (1, 3, 1), (1, 2, 0), (2, 4, 0)], ([1, 3], 1)),
            # node 1 has one edge; the same tie, one level down at node 2
            (6, [(4, 5, 1), (2, 4, 1), (2, 3, 0), (3, 5, 0), (1, 6, 7)], ([1, 3, 4], 8)),
        ],
    )
    def test_tie_goes_to_least_edge_at_lowest_node(self, n, edges, want):
        g = make_graph(n, edges)
        assert brute_force_mcpm(g) == want
        assert reference_oracle.brute_force_mcpm(g) == want

    @settings(max_examples=300, deadline=None)
    @given(oracle_graphs())
    def test_matches_reference(self, g):
        cost_lists = [None] + ([perturb([c for _u, _v, c in g.edges]).scaled] if g.m else [])
        for costs in cost_lists:
            assert outcome(brute_force_mcpm, g, costs) == outcome(
                reference_oracle.brute_force_mcpm, g, costs
            )

    def test_enumerate_bowtie(self, bowtie):
        assert enumerate_perfect_matchings(bowtie) == [(0, 5, 6)]

    def test_enumerate_six_cycle(self, six_cycle):
        assert enumerate_perfect_matchings(six_cycle) == [(0, 2, 4), (1, 3, 5)]


class TestFractionalOracle:
    def test_bowtie_perturbed(self, bowtie, bowtie_perturbed):
        assert brute_force_fractional_opt(bowtie, bowtie_perturbed.scaled) == 63

    def test_single_matching_graph(self):
        g = make_graph(4, [(1, 2, 7), (3, 4, 9)])
        assert brute_force_fractional_opt(g) == 16

    def test_six_cycle_fractional_never_beats_integral(self, six_cycle):
        pc = perturb([1] * 6)
        assert brute_force_fractional_opt(six_cycle, pc.scaled) == 213

    def test_limit(self):
        g = make_graph(14, [(1, 2, 0)])
        with pytest.raises(ValueError):
            brute_force_fractional_opt(g)

    @pytest.mark.parametrize("n,seed", [(4, 1), (4, 2), (6, 3), (6, 4), (8, 5), (8, 6)])
    def test_matches_lp_engine_on_randoms(self, n, seed):
        from cpmatch import LaminarFamily, solve_primal

        g = random_instance(n, 0.7, (0, 30), 60_000 + seed)
        pc = perturb([c for _u, _v, c in g.edges])
        _x, _dual, obj = solve_primal(g, pc.scaled, LaminarFamily(n))
        assert brute_force_fractional_opt(g, pc.scaled) == obj


class TestRandomInstance:
    def test_complete_graph_when_density_one(self):
        g = random_instance(6, 1.0, (0, 0), 123)
        assert g.m == 15 and all(c == 0 for _u, _v, c in g.edges)

    def test_same_seed_same_instance(self):
        a = random_instance(8, 0.5, (0, 100), 4242)
        b = random_instance(8, 0.5, (0, 100), 4242)
        assert a.edges == b.edges

    def test_golden_instance_pinned(self):
        g = random_instance(4, 0.5, (0, 100), 42)
        golden = (FIXTURES / "golden_n4_seed42.txt").read_text()
        assert write_instance(g) == golden

    def test_generation_failure(self):
        with pytest.raises(GenerationFailed):
            random_instance(4, 0.0, (0, 10), 1)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            random_instance(5, 0.5, (0, 10), 1)


class TestVerifyTrace:
    def _trace(self, g, **kwargs):
        res = run(g, **kwargs)
        return res.trace_lines()

    def test_clean_run_passes_all_checks(self, bowtie):
        report = verify_trace(bowtie, self._trace(bowtie))
        assert report.all_ok
        assert "PASS positively_critical" in report.lines()

    def test_positively_critical_skipped_without_extremal_dual(self, six_cycle):
        # the simplex route solves the six-cycle in one terminal iteration,
        # whose record carries the basis dual: there is nothing to check
        lines = self._trace(six_cycle)
        assert [json.loads(line)["dual_kind"] for line in lines[1:]] == ["basis"]
        report = verify_trace(six_cycle, lines)
        assert "SKIP positively_critical reason=no extremal dual" in report.lines()
        assert "PASS positively_critical" not in report.lines()
        assert report.all_ok

    def test_a_skipped_check_is_not_a_pass(self, six_cycle):
        # a check that did not run prints SKIP, though it failed nowhere,
        # and leaves all_ok as it is
        report = verify_trace(six_cycle, self._trace(six_cycle))
        assert report.checks["positively_critical"] == ("SKIP", "no extremal dual")
        skips = [line for line in report.lines() if line.startswith("SKIP ")]
        assert skips == ["SKIP positively_critical reason=no extremal dual"]
        assert verify_line(report, "complementary_slackness") == "PASS complementary_slackness"
        assert report.all_ok
        bare = VerifyReport({"laminarity": ("PASS", None), "family_size": ("SKIP", "no family")})
        assert bare.lines() == ["SKIP family_size reason=no family", "PASS laminarity"]
        assert bare.all_ok
        bare.checks["laminarity"] = ("FAIL", {"iteration": 0})
        assert bare.lines()[1] == "FAIL laminarity witness={'iteration': 0}"
        assert not bare.all_ok

    def test_positively_critical_skipped_on_crossing_family(self, bowtie):
        # the one extremal record imposes crossing cuts, so no laminar
        # family is there to check its dual against
        lines = self._trace(bowtie)
        assert [json.loads(line)["dual_kind"] for line in lines[1:]] == ["extremal", "basis"]
        rec = json.loads(lines[1])
        rec["cuts_imposed"] = [[1, 2, 3], [3, 4, 5]]
        lines[1] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        assert verify_line(report, "laminarity").startswith("FAIL laminarity ")
        assert "SKIP positively_critical reason=cut family not laminar" in report.lines()

    def test_non_critical_positive_dual_set_fails(self, bowtie, tmp_path, capsys):
        # the combinatorial route's terminal record carries an extremal dual
        # with {1, 2, 3} positive; lowering node 1's dual leaves the edges
        # 1-2 and 1-3 inside the set with positive slack, so no critical
        # matching of {1, 2, 3} minus 2 exists
        from cpmatch import cli
        from cpmatch.rational import format_rat, parse_rat

        lines = self._trace(bowtie, solver="combinatorial")
        rec = json.loads(lines[2])
        assert rec["dual_kind"] == "extremal"
        assert [[1, 2, 3], "1284"] in rec["dual_sets"]
        rec["dual_nodes"]["1"] = format_rat(parse_rat(rec["dual_nodes"]["1"]) - 1)
        lines[2] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        assert report.checks["positively_critical"] == ("FAIL", {"iteration": 1, "set": [1, 2, 3]})

        instance, trace = tmp_path / "bowtie.txt", tmp_path / "bowtie.jsonl"
        instance.write_text(write_instance(bowtie))
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["verify", "--instance", str(instance), "--trace", str(trace)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "FAIL positively_critical witness={'iteration': 1, 'set': [1, 2, 3]}" in out

    def test_corrupted_dual_fails_slackness_with_witness(self, bowtie):
        lines = self._trace(bowtie)
        rec = json.loads(lines[1])
        rec["dual_nodes"]["1"] = "999"
        lines[1] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        status, witness = report.checks["complementary_slackness"]
        assert status == "FAIL" and witness["iteration"] == 0

    @pytest.mark.parametrize("solver", ["simplex", "combinatorial"])
    def test_dual_on_a_set_not_imposed_fails_slackness(self, solver):
        # the final record of telescope(2, 2), replayed alone as record 0
        # with no cuts: its dual keeps the duals of the cuts it no longer
        # imposes, which would certify x against a smaller polytope than the
        # bipartite one (the true record 0 has two odd cycles)
        from instances import telescope

        g = telescope(2, 2, bridge=100)
        lines = self._trace(g, solver=solver)
        rec = json.loads(lines[-1])
        assert [s for s, _y in rec["dual_sets"]][:3] == [[1, 2, 3], [6, 7, 8], [1, 2, 3, 4, 5]]
        rec.update(iteration=0, cuts_imposed=[], cuts_retained=[], cuts_added=[])
        report = verify_trace(g, [lines[0], json.dumps(rec, sort_keys=True)])
        assert report.checks["complementary_slackness"] == (
            "FAIL", {"iteration": 0, "set": [1, 2, 3], "reason": "dual on a set not imposed"},
        )
        assert [name for name, (status, _w) in report.checks.items() if status == "FAIL"] == [
            "complementary_slackness"
        ]
        assert not report.all_ok

    def test_half_integrality_failure_leaves_other_checks_running(self, bowtie):
        # record 0 is not half-integral and carries a corrupted extremal
        # dual: the checks that need no support decomposition still run on
        # it, and the two that do print SKIP
        lines = self._trace(bowtie)
        rec = json.loads(lines[1])
        assert rec["dual_kind"] == "extremal"
        rec["primal"][0] = "1/3"
        rec["dual_nodes"]["1"] = "999"
        lines[1] = json.dumps(rec, sort_keys=True)
        out = verify_trace(bowtie, lines).lines()
        assert "FAIL half_integrality witness={'iteration': 0}" in out
        assert any(line.startswith("FAIL complementary_slackness") for line in out)
        assert "SKIP positively_critical reason=no extremal dual" not in out
        assert "PASS positively_critical" in out
        for name in ("cycle_monotonicity", "cut_persistence"):
            assert f"SKIP {name} reason=half_integrality failed at iteration 0" in out
        assert "PASS laminarity" in out and "PASS family_size" in out

    @pytest.mark.parametrize(
        "edit, witness",
        [
            (lambda rec: rec["primal"].__setitem__(0, "1/3"),
             {"iteration": 0, "node": 1, "reason": "degree"}),
            (lambda rec: rec["primal"].__setitem__(6, "-1"),
             {"iteration": 0, "edge": 6, "reason": "negative"}),
            (lambda rec: rec.__setitem__("cuts_imposed", [[1, 2, 3]]),
             {"iteration": 0, "set": [1, 2, 3], "reason": "cut below one"}),
        ],
        ids=["degree-undecomposed", "negative", "cut"],
    )
    def test_infeasible_primal_fails_feasibility(self, bowtie, edit, witness):
        # record 0 holds both triangles at one half, the bridge at zero
        lines = self._trace(bowtie)
        rec = json.loads(lines[1])
        edit(rec)
        lines[1] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        assert report.checks["primal_feasibility"] == ("FAIL", witness)

    @staticmethod
    def _quarter_record(lines, quarters, set_dual):
        """Record 0 of a zero-cost K6 trace with x given in quarters by edge
        (u, v), the one imposed cut {1, 2, 3} with dual set_dual, and every
        other dual and the objective zero."""
        rec = json.loads(lines[1])
        edges = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
        rec["primal"] = [f"{quarters.get(uv, 0)}/4" for uv in edges]
        rec["dual_nodes"] = {str(u): "0" for u in range(1, 7)}
        rec["dual_sets"] = [[[1, 2, 3], set_dual]]
        rec["cuts_imposed"] = [[1, 2, 3]]
        rec["objective_scaled"] = "0"
        return json.dumps(rec, sort_keys=True)

    def test_positive_dual_on_cut_above_one_fails_slackness_only(self):
        # x(delta({1,2,3})) = 3/2: the cut is feasible, so primal_feasibility
        # passes, but a positive dual on it breaks complementary slackness
        k6 = make_graph(6, [(u, v, 0) for u in range(1, 7) for v in range(u + 1, 7)])
        quarters = {(1, 2): 1, (1, 3): 1, (2, 3): 1, (4, 5): 1, (4, 6): 1, (5, 6): 1,
                    (1, 4): 2, (2, 5): 2, (3, 6): 2}
        lines = self._trace(k6)
        lines[1] = self._quarter_record(lines, quarters, "1")
        report = verify_trace(k6, lines)
        assert verify_line(report, "primal_feasibility") == "PASS primal_feasibility"
        assert verify_line(report, "complementary_slackness").startswith("FAIL complementary_slackness ")

    def test_cut_of_one_half_fails_feasibility(self):
        # degrees are one everywhere, but x(delta({1,2,3})) = 1/2
        k6 = make_graph(6, [(u, v, 0) for u in range(1, 7) for v in range(u + 1, 7)])
        quarters = {(1, 2): 2, (1, 3): 2, (2, 3): 1, (4, 5): 2, (4, 6): 2, (5, 6): 1,
                    (2, 5): 1, (3, 6): 1}
        lines = self._trace(k6)
        lines[1] = self._quarter_record(lines, quarters, "0")
        report = verify_trace(k6, lines)
        assert report.checks["primal_feasibility"] == (
            "FAIL", {"iteration": 0, "set": [1, 2, 3], "reason": "cut below one"},
        )

    def test_fail_wins_over_skip(self, bowtie):
        # cut_persistence cannot run its windows on record 0, but record 1's
        # family is not record 0's retained + added: that failure prints
        lines = self._trace(bowtie)
        rec = json.loads(lines[1])
        rec["primal"][0] = "1/3"
        lines[1] = json.dumps(rec, sort_keys=True)
        skipped = verify_trace(bowtie, lines)
        assert verify_line(skipped, "cut_persistence") == (
            "SKIP cut_persistence reason=half_integrality failed at iteration 0"
        )
        rec = json.loads(lines[2])
        rec["cuts_imposed"] = [[1, 2, 3]]
        lines[2] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        out = report.lines()
        assert any(line.startswith("FAIL cut_persistence ") for line in out)
        assert not any(line.startswith("SKIP cut_persistence ") for line in out)
        assert "SKIP cycle_monotonicity reason=half_integrality failed at iteration 0" in out

    def test_reordered_iterations_fail_monotonicity(self, bowtie):
        lines = self._trace(bowtie)
        lines[1], lines[2] = lines[2], lines[1]
        report = verify_trace(bowtie, lines)
        assert verify_line(report, "cycle_monotonicity").startswith("FAIL cycle_monotonicity ")

    def test_corrupted_primal_fails_half_integrality(self, bowtie):
        lines = self._trace(bowtie)
        rec = json.loads(lines[1])
        rec["primal"][0] = "1/3"
        lines[1] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        assert verify_line(report, "half_integrality").startswith("FAIL half_integrality ")

    def test_wrong_instance_rejected(self, bowtie, six_cycle):
        with pytest.raises(SchemaMismatch):
            verify_trace(six_cycle, self._trace(bowtie))

    def test_bad_schema_rejected(self, bowtie):
        lines = self._trace(bowtie)
        lines[0] = json.dumps({"schema": "other"})
        with pytest.raises(SchemaMismatch):
            verify_trace(bowtie, lines)

    def test_missing_fields_rejected(self, bowtie):
        lines = self._trace(bowtie)
        rec = json.loads(lines[1])
        del rec["primal"]
        lines[1] = json.dumps(rec)
        with pytest.raises(SchemaMismatch):
            parse_trace(lines)

    def _telescope_trace(self):
        """telescope(3, 2, bridge=1000) on the simplex route: three
        extremal records, then the final one with the basis dual."""
        from instances import telescope

        g = telescope(3, 2, bridge=1000)
        lines = self._trace(g)
        assert [json.loads(line)["dual_kind"] for line in lines[1:]] == ["extremal"] * 3 + ["basis"]
        return g, lines

    @pytest.mark.parametrize("kind", [7, "Basis", None, ["basis"]], ids=["int", "case", "null", "list"])
    def test_unknown_dual_kind_rejected(self, kind):
        g, lines = self._telescope_trace()
        rec = json.loads(lines[1])
        rec["dual_kind"] = kind
        lines[1] = json.dumps(rec, sort_keys=True)
        with pytest.raises(SchemaMismatch, match="dual_kind"):
            parse_trace(lines)
        with pytest.raises(SchemaMismatch, match="dual_kind"):
            verify_trace(g, lines)

    def test_basis_dual_on_a_non_final_record_fails_critical(self):
        # relabelled "basis", record 0's extremal dual would skip the
        # positively_critical check: the label alone fails it
        g, lines = self._telescope_trace()
        rec = json.loads(lines[1])
        rec["dual_kind"] = "basis"
        lines[1] = json.dumps(rec, sort_keys=True)
        report = verify_trace(g, lines)
        assert report.checks["positively_critical"] == (
            "FAIL", {"iteration": 0, "reason": "basis dual on a non-final record"},
        )
        assert "PASS positively_critical" not in report.lines()
        assert not report.all_ok

    def test_doctored_family_evolution_caught(self, bowtie):
        lines = self._trace(bowtie)
        rec = json.loads(lines[2])
        rec["cuts_imposed"] = [[1, 2, 3]]  # not retained+added of the previous record
        lines[2] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        assert verify_line(report, "cut_persistence").startswith("FAIL cut_persistence ")

    def test_out_of_range_cut_fails_checks(self, bowtie):
        # A cut naming node n + 1 with a positive dual fails laminarity and
        # the cut checks; verify reports it instead of raising.
        lines = self._trace(bowtie)
        rec = json.loads(lines[1])
        rec["cuts_imposed"] = [[1, 2, 7]]
        rec["dual_sets"] = [[[1, 2, 7], "1"]]
        lines[1] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        assert verify_line(report, "laminarity").startswith("FAIL laminarity ")
        assert verify_line(report, "complementary_slackness").startswith("FAIL complementary_slackness ")
        assert not report.all_ok

    @pytest.mark.parametrize(
        "bad", [[1], {"a": 1}, 1, None, "1/0", "abc"], ids=["list", "dict", "int", "null", "1/0", "abc"]
    )
    @pytest.mark.parametrize(
        "edit",
        [
            lambda rec, bad: rec["primal"].__setitem__(1, bad),
            lambda rec, bad: rec["dual_nodes"].__setitem__("1", bad),
            lambda rec, bad: rec["dual_sets"][0].__setitem__(1, bad),
            lambda rec, bad: rec.__setitem__("objective_scaled", bad),
        ],
        ids=["primal", "dual_nodes", "dual_sets", "objective_scaled"],
    )
    def test_bad_number_raises_schema_mismatch(self, edit, bad):
        # record 2 repeats number strings that records 0 and 1 parsed: a
        # value that is not a "p" or "p/q" string is still refused, and a
        # JSON list or object is not looked up as if it were one
        from instances import telescope

        g = telescope(stages=2, gadgets=2)
        lines = self._trace(g)
        rec = json.loads(lines[3])
        edit(rec, bad)
        lines[3] = json.dumps(rec, sort_keys=True)
        with pytest.raises(SchemaMismatch):
            verify_trace(g, lines)

    def _shared_trace(self):
        """telescope(2, 2) on the simplex route: records 1 and 2 carry the
        same node duals and share the cuts {1, 2, 3} and {6, 7, 8}."""
        from instances import telescope

        g = telescope(stages=2, gadgets=2)
        lines = self._trace(g)
        recs = [json.loads(line) for line in lines[1:]]
        assert [rec["iteration"] for rec in recs] == [0, 1, 2]
        assert recs[1]["dual_nodes"] == recs[2]["dual_nodes"]
        assert [1, 2, 3] in recs[1]["cuts_imposed"] and [1, 2, 3] in recs[2]["cuts_imposed"]
        assert verify_trace(g, lines).all_ok
        return g, lines, recs[2]

    def test_corrupted_dual_in_a_later_record_fails_there(self):
        # node 1's dual in record 2 takes node 2's string, which records 0
        # to 2 all parse: the parse is looked up by the string, so the
        # changed value is the one checked
        g, lines, rec = self._shared_trace()
        rec["dual_nodes"]["1"] = rec["dual_nodes"]["2"]
        lines[3] = json.dumps(rec, sort_keys=True)
        report = verify_trace(g, lines)
        assert report.checks["complementary_slackness"] == (
            "FAIL", {"iteration": 2, "reason": "weak duality gap"},
        )

    def test_corrupted_cut_in_a_later_record_fails_there(self):
        # record 2 swaps node 3 of {1, 2, 3}, a cut record 1 also imposes,
        # for node 4: delta(S) is looked up by the set, so the cut checks
        # read the changed set's edges
        g, lines, rec = self._shared_trace()
        rec["cuts_imposed"] = [[1, 2, 4] if s == [1, 2, 3] else s for s in rec["cuts_imposed"]]
        rec["dual_sets"] = [[[1, 2, 4] if s == [1, 2, 3] else s, y] for s, y in rec["dual_sets"]]
        lines[3] = json.dumps(rec, sort_keys=True)
        report = verify_trace(g, lines)
        status, witness = report.checks["complementary_slackness"]
        assert status == "FAIL" and witness["iteration"] == 2

    def test_header_only_trace_passes_no_record_check(self, bowtie):
        # with no record, no check that reads one ran: each prints SKIP, not
        # PASS; the record count still meets the bound, and an empty trace
        # has no final matching
        report = verify_trace(bowtie, self._trace(bowtie)[:1])
        assert report.lines() == [
            "SKIP complementary_slackness reason=no records",
            "SKIP cut_persistence reason=no records",
            "SKIP cycle_monotonicity reason=no records",
            "SKIP family_size reason=no records",
            "FAIL final_matching_oracle witness={'reason': 'empty trace'}",
            "SKIP half_integrality reason=no records",
            "PASS iteration_bound",
            "SKIP laminarity reason=no records",
            "SKIP positively_critical reason=no records",
            "SKIP primal_feasibility reason=no records",
        ]
        assert not report.all_ok

    def test_check_whose_needs_are_never_met_skips(self, bowtie):
        # no record's x is half-integral: cycle_monotonicity applies to
        # every record and runs on none, and so do the level windows of
        # cut_persistence, though its per-record part runs on record 1
        lines = self._trace(bowtie)
        for i in (1, 2):
            rec = json.loads(lines[i])
            rec["primal"][0] = "1/3"
            lines[i] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        for name in ("cycle_monotonicity", "cut_persistence"):
            assert verify_line(report, name) == f"SKIP {name} reason=half_integrality failed at iteration 0"

    def test_positively_critical_skips_where_one_extremal_family_is_not_laminar(self):
        # telescope(3, 2) carries three extremal records: a crossing family
        # on the second leaves the check unrun there, so it does not PASS
        g, lines = self._telescope_trace()
        rec = json.loads(lines[2])
        rec["cuts_imposed"] = rec["cuts_imposed"] + [[1, 2, 3], [3, 4, 5]]
        lines[2] = json.dumps(rec, sort_keys=True)
        report = verify_trace(g, lines)
        assert verify_line(report, "positively_critical") == (
            "SKIP positively_critical reason=cut family not laminar"
        )

    def test_odd_cycle_count_mismatch_fails_monotonicity(self, bowtie):
        lines = self._trace(bowtie)
        rec = json.loads(lines[1])
        rec["odd_cycle_count"] += 1
        lines[1] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        assert verify_line(report, "cycle_monotonicity") == (
            "FAIL cycle_monotonicity witness={'iteration': 0, 'reason': 'o mismatch'}"
        )

    def test_repeated_final_record_fails_monotonicity(self):
        # run() stops at the first x with no odd cycle, so a record before
        # the last has one; this run's one record imposes no cut, so the
        # repeat keeps every cut_persistence window too
        from cpmatch import random_instance

        g = random_instance(8, 0.5, (0, 9), 100)
        lines = self._trace(g, solver="combinatorial")
        assert len(lines) == 2 and json.loads(lines[1])["cuts_imposed"] == []
        assert verify_trace(g, lines).all_ok
        report = verify_trace(g, lines + lines[1:])
        assert verify_line(report, "cycle_monotonicity") == (
            "FAIL cycle_monotonicity witness={'iteration': 0, "
            "'reason': 'no odd cycle before the final record'}"
        )
        assert [line for line in report.lines() if line.startswith("FAIL")] == [
            verify_line(report, "cycle_monotonicity")
        ]

    @pytest.mark.parametrize(
        "record, field, value, line",
        [
            (1, "objective_scaled", "0",
             "FAIL complementary_slackness witness={'iteration': 0, 'reason': 'objective mismatch'}"),
            (2, "primal", ["1/2"] * 6 + ["0"],
             "FAIL final_matching_oracle witness={'reason': 'final solution not integral'}"),
            (2, "primal", ["0"] * 7,
             "FAIL final_matching_oracle witness={'reason': 'final solution not a perfect matching'}"),
        ],
        ids=["objective", "not integral", "not perfect"],
    )
    def test_one_field_changed_fails_with_its_witness(self, bowtie, record, field, value, line):
        lines = self._trace(bowtie)
        rec = json.loads(lines[record])
        rec[field] = value
        lines[record] = json.dumps(rec, sort_keys=True)
        assert verify_line(verify_trace(bowtie, lines), line.split()[1]) == line

    def test_too_many_records_fail_iteration_bound(self, bowtie):
        # record 0 repeated up to one record past the bound
        lines = self._trace(bowtie)
        bound = iteration_bound(bowtie.n)
        lines = lines[:1] + lines[1:2] * bound + lines[2:]
        report = verify_trace(bowtie, lines)
        assert verify_line(report, "iteration_bound") == (
            f"FAIL iteration_bound witness={{'lp_solves': {bound + 1}}}"
        )

    def test_oracle_skipped_above_node_limit(self):
        from instances import telescope

        g = telescope(stages=3, gadgets=4)  # n = 28
        report = verify_trace(g, self._trace(g))
        lines = report.lines()
        assert "SKIP final_matching_oracle reason=n>16" in lines
        assert "PASS final_matching_oracle" not in lines
        assert report.all_ok

    def test_final_cost_checked_against_oracle(self, bowtie):
        lines = self._trace(bowtie)
        # doctor the final record to claim a different matching
        rec = json.loads(lines[-1])
        rec["primal"] = ["0", "1", "0", "0", "1", "0", "1"]
        lines[-1] = json.dumps(rec, sort_keys=True)
        report = verify_trace(bowtie, lines)
        assert not report.all_ok
