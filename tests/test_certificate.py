"""One certificate per record on the simplex and cross-check routes.

A non-terminal simplex optimum is certified once, by the extremal dual Psi
its record carries (`lp.certify_optimum`); only a terminal record's basis
dual is recovered, and `solve_primal` certifies it.  A warm round builds
only its new cut rows.  These tests break each piece on the golden
instances and check that the run stops with StructureViolation (exit 4,
with the trace recorded so far), never with NoPerfectMatching.
"""

import json

import pytest

import cpmatch.driver as drv_mod
import cpmatch.lp as lp_mod
from cpmatch import cli, parse_instance, run
from cpmatch.errors import StructureViolation
from cpmatch.graph import Graph, cost_value, decompose_support
from cpmatch.rational import ONE, ZERO
from paper_oracles import enumerate_perfect_matchings
from test_golden import EXPECTED, GOLDEN

ROUTES = ("simplex", "cross-check")
# golden instances whose runs have a non-terminal round
MULTI_ROUND = sorted(
    name for name, outcome in EXPECTED.items()
    if outcome["simplex"]["exit"] == 0 and "lp_solves 1\n" not in outcome["simplex"]["stdout"]
)


def integral(x) -> bool:
    return all(v == ZERO or v == ONE for v in x)


def aborted_run(name, solver, tmp_path, capsys, calls=None) -> tuple:
    """(error, trace lines) of `run` and of `cpmatch solve --trace` on the
    golden instance, both of which must stop with a structure violation:
    run() raises it, and the CLI exits 4, prints it and writes the trace of
    the rounds before it with the reason in the header.  `calls`, the list
    `corrupt_first` returns, is emptied before each run."""
    path = GOLDEN / f"{name}.txt"
    calls = [] if calls is None else calls
    calls.clear()
    with pytest.raises(StructureViolation) as info:
        run(parse_instance(path.read_text()), solver=solver)
    calls.clear()
    trace = tmp_path / "t.jsonl"
    capsys.readouterr()
    assert cli.main(["solve", str(path), "--solver", solver, "--trace", str(trace)]) == 4
    assert capsys.readouterr().err == f"structure violation: {info.value}\n"
    lines = trace.read_text().splitlines()
    assert json.loads(lines[0])["aborted"] == str(info.value)
    return info.value, lines


def corrupt_first(monkeypatch, name, wrapper) -> list:
    """Patch name in the driver so that its first call after the returned
    list is emptied goes through wrapper(real, *args); later calls are
    real."""
    real = getattr(drv_mod, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            return wrapper(real, *args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(drv_mod, name, patched)
    return calls


@pytest.mark.parametrize("solver", ROUTES)
@pytest.mark.parametrize("name", MULTI_ROUND)
class TestNonTerminalCertificate:
    def test_psi_wrong_on_a_support_edge(self, name, solver, tmp_path, capsys, monkeypatch):
        # Psi one lower at an end u of a support edge, and one higher at a
        # node off that edge: the same objective, but the edge is no longer
        # tight (or another edge goes negative)
        def wrong(real, g, costs, fam, x, gamma):
            psi = real(g, costs, fam, x, gamma)
            u, v, _c = g.edges[next(e for e, val in enumerate(x) if val)]
            w = next(w for w in range(1, g.n + 1) if w not in (u, v))
            psi[u] -= 1
            psi[w] += 1
            return psi

        calls = corrupt_first(monkeypatch, "solve_extremal_dual", wrong)
        exc, lines = aborted_run(name, solver, tmp_path, capsys, calls)
        assert str(exc).startswith("complementary slackness: ")
        assert len(lines) == 1  # the first round is the corrupted one

    def test_psi_off_the_optimum(self, name, solver, tmp_path, capsys, monkeypatch):
        def lowered(real, g, costs, fam, x, gamma):
            psi = real(g, costs, fam, x, gamma)
            psi[1] -= 1
            return psi

        calls = corrupt_first(monkeypatch, "solve_extremal_dual", lowered)
        exc, lines = aborted_run(name, solver, tmp_path, capsys, calls)
        assert str(exc) == "strong duality violated"
        assert len(lines) == 1


@pytest.mark.parametrize("solver", ("simplex", "combinatorial", "cross-check"))
def test_infeasible_extremal_program_is_a_structure_violation(solver, tmp_path, capsys, monkeypatch):
    # the simplex or the procedure has solved the first relaxation, and
    # the procedure returns only a z that covers every node: an extremal
    # program with no feasible point means x is not optimal, not that the
    # graph has no perfect matching
    from cpmatch.errors import LPInfeasible

    def infeasible(real, *args):
        raise LPInfeasible("phase-1 optimum positive")

    calls = corrupt_first(monkeypatch, "solve_extremal_dual", infeasible)
    exc, lines = aborted_run("telescope_3_2", solver, tmp_path, capsys, calls)
    assert str(exc) == drv_mod._NO_EXTREMAL_DUAL
    assert isinstance(exc.__cause__, LPInfeasible)
    assert len(lines) == 1


# The bowtie's first relaxation has no other proper-half-integral vertex:
# with any support edge made dear, its optimum is the perfect matching.
@pytest.mark.parametrize("solver", ROUTES)
@pytest.mark.parametrize("name", [name for name in MULTI_ROUND if name != "bowtie"])
def test_x_not_optimal(name, solver, tmp_path, capsys, monkeypatch):
    # the first round returns another proper-half-integral point of the
    # same relaxation, optimal for costs with one support edge made dear:
    # its extremal program has no feasible point
    def other_vertex(real, g: Graph, costs, fam, warm=None, cuts=None):
        x = real(g, costs, fam)[0]
        dear = 2 * sum(costs) + 1
        for e in (e for e, val in enumerate(x) if val):
            y = real(g, [dear if f == e else c for f, c in enumerate(costs)], fam)[0]
            try:
                decompose_support(y, g)
            except ValueError:
                continue
            if y != x and not integral(y):
                return y, None, cost_value(y, costs)
        raise AssertionError("no other proper-half-integral vertex found")

    calls = corrupt_first(monkeypatch, "solve_primal", other_vertex)
    exc, lines = aborted_run(name, solver, tmp_path, capsys, calls)
    if solver == "simplex":
        assert str(exc) == drv_mod._NO_EXTREMAL_DUAL
    else:  # the combinatorial route finds the true optimum
        assert str(exc) == "simplex and combinatorial optima differ"
    assert len(lines) == 1


# the bowtie and the telescopes have one perfect matching each
@pytest.mark.parametrize("name", [name for name in MULTI_ROUND if name.startswith("random_")])
def test_cross_check_compares_the_terminal_round(name, tmp_path, capsys, monkeypatch):
    # no extremal program is solved on the terminal round of a cross-check:
    # a procedure that ends on another perfect matching than the simplex's
    # must still stop the run there
    real = drv_mod._solve_primal_combinatorial

    def other_matching(g, costs, fam, state):
        z, stats = real(g, costs, fam, state)
        if integral(z):
            for matching in enumerate_perfect_matchings(g):
                other = [ONE if e in matching else ZERO for e in range(g.m)]
                if other != z:
                    return other, stats
        return z, stats

    monkeypatch.setattr(drv_mod, "_solve_primal_combinatorial", other_matching)
    rounds = int(EXPECTED[name]["cross-check"]["stdout"].split("lp_solves ")[1].split()[0])
    exc, lines = aborted_run(name, "cross-check", tmp_path, capsys)
    assert str(exc) == "simplex and combinatorial optima differ"
    assert exc.witness
    assert len(lines) == rounds  # header plus every round before the terminal one


@pytest.mark.parametrize("solver", ROUTES)
@pytest.mark.parametrize("name", MULTI_ROUND)
def test_corrupted_terminal_basis_dual_raises(name, solver, tmp_path, capsys, monkeypatch):
    real = lp_mod.simplex_solve

    def corrupted(lp, start=None):
        res = real(lp, start)
        if start is not None and integral(res.x):  # solve_primal's terminal solve
            res.duals[0] += 1
        return res

    monkeypatch.setattr(lp_mod, "simplex_solve", corrupted)
    rounds = int(EXPECTED[name][solver]["stdout"].split("lp_solves ")[1].split()[0])
    exc, lines = aborted_run(name, solver, tmp_path, capsys)
    assert str(exc) == "strong duality violated"
    assert len(lines) == rounds  # header plus every round before the terminal one


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_simplex_route_reads_duals_once_on_the_terminal_solve(name, monkeypatch):
    # the mirror of test_lp's test_extremal_dual_never_recovers_duals
    import sys

    reads = []
    recover = lp_mod.SimplexResult.duals.func

    def counted(res):
        reads.append((sys._getframe(1).f_code.co_name, integral(res.x)))
        return recover(res)

    monkeypatch.setattr(lp_mod.SimplexResult, "duals", property(counted))
    g = parse_instance((GOLDEN / f"{name}.txt").read_text())
    if EXPECTED[name]["simplex"]["exit"] != 0:
        with pytest.raises(Exception):
            run(g, solver="simplex")
        assert reads == []
        return
    result = run(g, solver="simplex")
    assert reads == [("solve_primal", True)]
    assert result.records[-1].dual_kind == "basis"
    assert all(rec.dual_kind == "extremal" for rec in result.records[:-1])


@pytest.mark.parametrize("solver", ROUTES)
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_warm_rounds_build_what_a_cold_build_would(name, solver, monkeypatch):
    """Each warm round's program is the previous one with the new cut rows
    appended: its rows, in order, are those of build_primal(g, costs,
    warm.sets + new) built from scratch, and the build reads g.delta once
    per new cut."""
    real_build, real_delta = lp_mod.build_primal, Graph.delta
    deltas = [0]
    warm_builds = []

    def counting_delta(g, nodes):
        deltas[0] += 1
        return real_delta(g, nodes)

    def build(g, costs, sets, base=None, cuts=None):
        before = deltas[0]
        lp, keys = real_build(g, costs, sets, base, cuts)
        if base is not None:
            new = len(sets) - (base.num_rows - g.n)
            assert deltas[0] - before == new
            warm_builds.append((g, costs, list(sets), list(lp.rows), list(lp.objective), keys))
        return lp, keys

    monkeypatch.setattr(Graph, "delta", counting_delta)
    monkeypatch.setattr(lp_mod, "build_primal", build)
    g = parse_instance((GOLDEN / f"{name}.txt").read_text())
    try:
        run(g, solver=solver)
    except Exception:
        assert EXPECTED[name][solver]["exit"] != 0
    monkeypatch.undo()
    for g, costs, sets, rows, objective, keys in warm_builds:
        cold, cold_keys = real_build(g, costs, sets)
        assert rows == cold.rows
        assert objective == cold.objective
        assert keys == cold_keys
    if "lp_solves 1\n" not in EXPECTED[name][solver]["stdout"] and EXPECTED[name][solver]["exit"] == 0:
        assert warm_builds
