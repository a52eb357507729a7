import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

BOWTIE_TEXT = """p edge 6 7
e 1 2 0
e 1 3 0
e 2 3 0
e 4 5 0
e 4 6 0
e 5 6 0
e 3 4 10
"""


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cpmatch", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def bowtie_file(tmp_path):
    path = tmp_path / "bowtie.txt"
    path.write_text(BOWTIE_TEXT)
    return path


class TestSolve:
    def test_bowtie_output(self, bowtie_file):
        proc = cli("solve", str(bowtie_file))
        assert proc.returncode == 0
        out = proc.stdout.splitlines()
        assert out[:3] == ["edge 1 2", "edge 5 6", "edge 3 4"]
        assert "cost 10" in out
        assert "perturbed_cost 1347/128" in out
        assert "lp_solves 2" in out

    def test_deterministic_stdout_and_trace(self, bowtie_file, tmp_path):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        p1 = cli("solve", str(bowtie_file), "--trace", str(t1))
        p2 = cli("solve", str(bowtie_file), "--trace", str(t2))
        assert p1.stdout == p2.stdout
        assert t1.read_bytes() == t2.read_bytes()

    @pytest.mark.parametrize("solver", ["simplex", "combinatorial", "cross-check"])
    def test_solvers_agree(self, bowtie_file, solver):
        proc = cli("solve", str(bowtie_file), "--solver", solver)
        assert proc.returncode == 0
        assert "cost 10" in proc.stdout.splitlines()

    def test_odd_node_count_exits_2(self, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_text("p edge 3 2\ne 1 2 1\ne 2 3 1\n")
        assert cli("solve", str(path)).returncode == 2

    def test_malformed_header_exits_3(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p edge x y\n")
        assert cli("solve", str(path)).returncode == 3

    def test_missing_file_exits_3(self, tmp_path):
        assert cli("solve", str(tmp_path / "nope.txt")).returncode == 3

    def test_verify_flag_prints_checks(self, bowtie_file):
        proc = cli("solve", str(bowtie_file), "--verify")
        assert proc.returncode == 0
        assert "PASS half_integrality" in proc.stdout


class TestUnreadableInput:
    """A file that is not UTF-8 gets one "error: cannot read" line and exit
    3, as a missing one does: exit 1 means that verification failed."""

    @pytest.mark.parametrize("which", ["solve", "verify --instance", "verify --trace"])
    def test_not_utf8_exits_3(self, bowtie_file, tmp_path, which):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        trace = tmp_path / "t.jsonl"
        cli("solve", str(bowtie_file), "--trace", str(trace))
        argv = {
            "solve": ["solve", str(bad)],
            "verify --instance": ["verify", "--instance", str(bad), "--trace", str(trace)],
            "verify --trace": ["verify", "--instance", str(bowtie_file), "--trace", str(bad)],
        }[which]
        proc = cli(*argv)
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"error: cannot read {bad}: ")
        assert proc.stderr.count("\n") == 1


class TestGen:
    def test_gen_writes_instance(self, tmp_path):
        out = tmp_path / "inst.txt"
        proc = cli("gen", "--n", "8", "--density", "0.5", "--seed", "7", "--out", str(out))
        assert proc.returncode == 0
        text = out.read_text()
        assert text.startswith("p edge 8 ")

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli("gen", "--n", "8", "--density", "0.5", "--seed", "7", "--out", str(a))
        cli("gen", "--n", "8", "--density", "0.5", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_odd_n_rejected(self, tmp_path):
        proc = cli("gen", "--n", "7", "--density", "0.5", "--seed", "1",
                   "--out", str(tmp_path / "x.txt"))
        assert proc.returncode == 3

    def test_gen_then_solve_roundtrip(self, tmp_path):
        inst = tmp_path / "inst.txt"
        cli("gen", "--n", "10", "--density", "0.4", "--cost-max", "9", "--seed", "3",
            "--out", str(inst))
        proc = cli("solve", str(inst), "--solver", "cross-check", "--verify")
        assert proc.returncode == 0

    def test_no_feasible_draw_exits_2(self, tmp_path, capsys):
        # density 0 draws no edge, so no draw has a perfect matching
        import cpmatch.cli as cli_mod

        out = tmp_path / "x.txt"
        argv = ["gen", "--n", "6", "--density", "0", "--seed", "1", "--out", str(out)]
        assert cli_mod.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: no feasible instance after 200 attempts (n=6, p=0.0, seed=1)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--density", "1.5", "'1.5' is not in [0, 1]"),
            ("--density", "-0.1", "'-0.1' is not in [0, 1]"),
            ("--density", "nan", "'nan' is not in [0, 1]"),
            ("--density", "abc", "invalid float value: 'abc'"),
            ("--cost-max", "-1", "'-1' is not in [0, inf]"),
        ],
        ids=["density-above-1", "density-negative", "density-nan", "density-text", "cost-max-negative"],
    )
    def test_bad_generator_value_is_a_usage_error(self, tmp_path, capsys, flag, value, message):
        import cpmatch.cli as cli_mod

        argv = ["gen", "--n", "6", "--seed", "1", "--out", str(tmp_path / "x.txt")]
        for name, text in {"--density": "0.8", "--cost-max": "5", flag: value}.items():
            argv += [name, text]
        with pytest.raises(SystemExit) as info:
            cli_mod.main(argv)
        assert info.value.code == 3
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == [f"cpmatch gen: error: argument {flag}: {message}"]

    def test_gen_above_brute_force_limit(self, tmp_path, capsys):
        # above n = 16 the solver decides whether a draw has a perfect
        # matching; the instance then solves and verifies on every route,
        # with the brute-force check skipped
        import cpmatch.cli as cli_mod
        from cpmatch.driver import SOLVER_CHOICES

        inst = tmp_path / "g20.txt"
        argv = ["gen", "--n", "20", "--density", "0.3", "--seed", "1", "--out", str(inst)]
        assert cli_mod.main(argv) == 0
        assert inst.read_text().startswith("p edge 20 ")
        for solver in SOLVER_CHOICES:
            capsys.readouterr()
            assert cli_mod.main(["solve", str(inst), "--solver", solver, "--verify"]) == 0
            out = capsys.readouterr().out.splitlines()
            assert "SKIP final_matching_oracle reason=n>16" in out
            assert not any(line.startswith("FAIL") for line in out)

    def test_gen_structure_violation_exits_4(self, tmp_path, capsys, monkeypatch):
        import cpmatch.cli as cli_mod
        import cpmatch.oracle as oracle_mod
        from cpmatch.errors import StructureViolation

        def broken(g):
            raise StructureViolation("iteration bound 30 exceeded")

        monkeypatch.setattr(oracle_mod, "run", broken)
        out = tmp_path / "g20.txt"
        argv = ["gen", "--n", "20", "--density", "0.3", "--seed", "1", "--out", str(out)]
        assert cli_mod.main(argv) == 4
        assert capsys.readouterr().err == "error: iteration bound 30 exceeded\n"
        assert not out.exists()


class TestAboveBruteForceLimit:
    """gen, solve and verify at n = 20 to 64, where no brute-force oracle
    checks the answer: the simplex and the combinatorial routes must agree
    on every relaxation (the cross-check solver), and every trace must
    verify."""

    @pytest.mark.parametrize("seed", range(1, 7))
    @pytest.mark.parametrize("n", [20, 32, 48, 64])
    def test_cross_check_solves_and_verifies(self, tmp_path, capsys, n, seed):
        import json

        import cpmatch.cli as cli_mod

        inst, trace = tmp_path / "g.txt", tmp_path / "trace.jsonl"
        argv = ["gen", "--n", str(n), "--density", "0.15", "--cost-max", "10",
                "--seed", str(seed), "--out", str(inst)]
        assert cli_mod.main(argv) == 0
        assert inst.read_text().startswith(f"p edge {n} ")
        assert cli_mod.main(["solve", str(inst), "--solver", "cross-check", "--trace", str(trace)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()[1:]]
        assert records and all(rec["cross_checked"] for rec in records)
        # the first relaxation's procedure run, from the greedy start, takes
        # Case II dual steps
        assert records[0]["procedure"]["cases"]["II"] > 0
        capsys.readouterr()
        assert cli_mod.main(["verify", "--instance", str(inst), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "SKIP final_matching_oracle reason=n>16" in out
        assert not any(line.startswith("FAIL") for line in out)


class TestStructureViolationPath:
    def test_exit_4_and_trace_dump_on_divergence(self, bowtie_file, tmp_path, monkeypatch):
        # force a violation mid-run: the CLI must exit 4 and dump the
        # replayable prefix recorded so far
        import json

        import cpmatch.cli as cli_mod
        import cpmatch.driver as drv_mod
        from cpmatch import parse_instance
        from cpmatch.errors import StructureViolation

        finished = drv_mod.run(parse_instance(BOWTIE_TEXT)).trace_lines()
        real_step = drv_mod.step

        def sabotaged(state, g, pc, **kwargs):
            if state.iteration >= 1:
                raise StructureViolation("simplex and combinatorial optima differ")
            return real_step(state, g, pc, **kwargs)

        monkeypatch.setattr(drv_mod, "step", sabotaged)
        trace = tmp_path / "t.jsonl"
        code = cli_mod.main(["solve", str(bowtie_file), "--trace", str(trace)])
        assert code == 4
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        # the header of a finished run, plus the abort reason
        expected = json.loads(finished[0])
        expected["aborted"] = "simplex and combinatorial optima differ"
        assert header == expected
        assert len(lines) == 2  # header plus the one completed iteration
        assert json.loads(lines[1])["iteration"] == 0

    @pytest.mark.parametrize("solver", ["simplex", "combinatorial"])
    def test_pivot_limit_exits_4(self, bowtie_file, monkeypatch, capsys, solver):
        import cpmatch.cli as cli_mod
        import cpmatch.lp as lp_mod

        monkeypatch.setattr(lp_mod, "PIVOT_LIMIT", 1)
        code = cli_mod.main(["solve", str(bowtie_file), "--solver", solver])
        assert code == 4
        err = capsys.readouterr().err
        assert err == "structure violation: simplex pivot limit 1 exceeded\n"


class TestBrokenInvariantPath:
    """A broken internal invariant that surfaces as InvalidConfiguration or
    LaminarityViolation exits 4 like any other structure violation, with
    the replayable prefix dumped, not a traceback (or exit 3 from gen)."""

    def test_invalid_configuration_exits_4_and_dumps(self, tmp_path, capsys, monkeypatch):
        import json

        import cpmatch.cli as cli_mod
        import cpmatch.combinatorial as comb_mod
        from cpmatch.errors import InvalidConfiguration

        real = comb_mod.validate_configuration
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            # calls 1-2 check the first run's input and output, 3 the
            # second run's input and 4 its output
            if len(calls) == 4:
                raise InvalidConfiguration("forced output failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(comb_mod, "validate_configuration", failing)
        trace = tmp_path / "t.jsonl"
        argv = ["solve", str(GOLDEN / "telescope_3_2.txt"), "--solver", "combinatorial",
                "--trace", str(trace)]
        assert cli_mod.main(argv) == 4
        assert capsys.readouterr().err == "structure violation: forced output failure\n"
        lines = trace.read_text().splitlines()
        assert json.loads(lines[0])["aborted"] == "forced output failure"
        assert [json.loads(line)["iteration"] for line in lines[1:]] == [0]

    @pytest.fixture
    def crossing_cut(self, monkeypatch):
        """Every new cut the driver inserts crosses the family."""
        from cpmatch import LaminarFamily
        from cpmatch.errors import LaminarityViolation

        def crossing(self, s, owner):
            raise LaminarityViolation("forced crossing")

        monkeypatch.setattr(LaminarFamily, "_add", crossing)

    def test_laminarity_violation_in_step_exits_4_and_dumps(
        self, bowtie_file, tmp_path, capsys, crossing_cut
    ):
        import json

        import cpmatch.cli as cli_mod

        trace = tmp_path / "t.jsonl"
        assert cli_mod.main(["solve", str(bowtie_file), "--trace", str(trace)]) == 4
        err = capsys.readouterr().err
        assert err == "structure violation: new cut breaks the family: forced crossing\n"
        lines = trace.read_text().splitlines()
        # the first iteration adds the cut, so no record was completed
        assert len(lines) == 1
        assert json.loads(lines[0])["aborted"] == "new cut breaks the family: forced crossing"

    def test_gen_laminarity_violation_exits_4(self, tmp_path, capsys, crossing_cut):
        import cpmatch.cli as cli_mod

        out = tmp_path / "g20.txt"
        # seed 3 draws a graph whose first relaxation has an odd cycle, so
        # the solver that decides it builds a family with a new cut
        argv = ["gen", "--n", "20", "--density", "0.3", "--seed", "3", "--out", str(out)]
        assert cli_mod.main(argv) == 4
        assert capsys.readouterr().err == "error: new cut breaks the family: forced crossing\n"
        assert not out.exists()


class TestUnwritableOutput:
    """A write that fails prints one `error: cannot write <path>: ...` line
    and no traceback: exit 3, or 4 when the trace dump of a structure
    violation fails."""

    def test_solve_trace_exits_3(self, bowtie_file, tmp_path, capsys):
        import cpmatch.cli as cli_mod

        trace = tmp_path / "no" / "t.jsonl"
        assert cli_mod.main(["solve", str(bowtie_file), "--trace", str(trace)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {trace}: ") and err.count("\n") == 1

    def test_gen_out_exits_3(self, tmp_path, capsys):
        import cpmatch.cli as cli_mod

        out = tmp_path / "no" / "x.txt"
        argv = ["gen", "--n", "6", "--density", "0.8", "--seed", "1", "--out", str(out)]
        assert cli_mod.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_structure_violation_dump_keeps_exit_4(
        self, bowtie_file, tmp_path, capsys, monkeypatch
    ):
        import cpmatch.cli as cli_mod
        import cpmatch.driver as drv_mod
        from cpmatch.errors import StructureViolation

        real_step = drv_mod.step

        def sabotaged(state, g, pc, **kwargs):
            if state.iteration >= 1:
                raise StructureViolation("simplex and combinatorial optima differ")
            return real_step(state, g, pc, **kwargs)

        monkeypatch.setattr(drv_mod, "step", sabotaged)
        trace = tmp_path / "no" / "t.jsonl"
        assert cli_mod.main(["solve", str(bowtie_file), "--trace", str(trace)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "structure violation: simplex and combinatorial optima differ"
        assert err[1].startswith(f"error: cannot write {trace}: ") and len(err) == 2


class TestUsageErrors:
    """A command line argparse rejects exits 3, not argparse's 2, which
    here means "no perfect matching"."""

    @pytest.mark.parametrize(
        "argv",
        [["gen", "--n", "abc", "--density", "0.5", "--seed", "1"], ["solve", "--bogus", "x.txt"], []],
        ids=["gen-n-text", "solve-unknown-flag", "no-command"],
    )
    def test_exits_3(self, capsys, argv):
        import cpmatch.cli as cli_mod

        with pytest.raises(SystemExit) as info:
            cli_mod.main(argv)
        assert info.value.code == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("cpmatch")

    def test_exits_3_from_the_command_line(self):
        proc = cli("gen", "--n", "abc", "--density", "0.5", "--seed", "1")
        assert proc.returncode == 3
        assert "error: argument --n: invalid int value: 'abc'" in proc.stderr


class TestVerify:
    def test_verify_good_trace(self, bowtie_file, tmp_path):
        trace = tmp_path / "t.jsonl"
        cli("solve", str(bowtie_file), "--trace", str(trace))
        proc = cli("verify", "--instance", str(bowtie_file), "--trace", str(trace))
        assert proc.returncode == 0
        assert all(line.startswith("PASS") for line in proc.stdout.splitlines())

    def test_verify_corrupted_trace_fails(self, bowtie_file, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        cli("solve", str(bowtie_file), "--trace", str(trace))
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["dual_nodes"]["2"] = "12345"
        lines[1] = json.dumps(rec, sort_keys=True)
        trace.write_text("\n".join(lines) + "\n")
        proc = cli("verify", "--instance", str(bowtie_file), "--trace", str(trace))
        assert proc.returncode == 1
        assert "FAIL complementary_slackness" in proc.stdout

    def test_verify_oversized_family_fails(self, bowtie_file, tmp_path):
        # four cuts on six nodes exceed |F| <= n/2
        import json

        trace = tmp_path / "t.jsonl"
        cli("solve", str(bowtie_file), "--trace", str(trace))
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["cuts_imposed"] = [[1, 2, 3], [4, 5, 6], [1, 2, 4], [3, 5, 6]]
        lines[2] = json.dumps(rec, sort_keys=True)
        trace.write_text("\n".join(lines) + "\n")
        proc = cli("verify", "--instance", str(bowtie_file), "--trace", str(trace))
        assert proc.returncode == 1
        assert "FAIL family_size witness={'iteration': 1, 'size': 4}" in proc.stdout.splitlines()

    @pytest.mark.parametrize("instance", ["two-edges", "telescope-3x4"])
    def test_zero_primal_fails_feasibility(self, tmp_path, capsys, instance):
        # one record whose primal is all zero: it costs 0, meets zero duals
        # with no slack and no gap, and covers no node
        import json

        import cpmatch.cli as cli_mod
        from cpmatch import parse_instance, write_instance
        from cpmatch.driver import trace_header
        from instances import telescope

        if instance == "two-edges":
            g = parse_instance("p edge 4 2\ne 1 2 0\ne 3 4 0\n")
        else:
            g = telescope(stages=3, gadgets=4)
        record = {
            "iteration": 0,
            "cuts_imposed": [],
            "primal": ["0"] * g.m,
            "dual_nodes": {str(u): "0" for u in range(1, g.n + 1)},
            "dual_sets": [],
            "odd_cycle_count": 0,
            "cuts_retained": [],
            "cuts_added": [],
            "objective_scaled": "0",
        }
        instance_file, trace = tmp_path / "g.txt", tmp_path / "t.jsonl"
        instance_file.write_text(write_instance(g))
        trace.write_text(json.dumps(trace_header(g)) + "\n" + json.dumps(record) + "\n")
        code = cli_mod.main(["verify", "--instance", str(instance_file), "--trace", str(trace)])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "FAIL primal_feasibility witness={'iteration': 0, 'node': 1, 'reason': 'degree'}" in out
        assert any(line.startswith("FAIL final_matching_oracle") for line in out)

    def test_costly_perfect_matching_fails_oracle(self, tmp_path):
        # one record whose x is the perfect matching {1-3, 2-4} of cost 10,
        # where {1-2, 3-4} costs 0: the brute-force oracle must say so
        import json

        from cpmatch import parse_instance
        from cpmatch.driver import trace_header
        from cpmatch.graph import cost_value
        from cpmatch.rational import format_rat, parse_rat, perturb

        text = "p edge 4 4\ne 1 2 0\ne 3 4 0\ne 1 3 5\ne 2 4 5\n"
        g = parse_instance(text)
        x = ["0", "0", "1", "1"]
        record = {
            "iteration": 0,
            "cuts_imposed": [],
            "primal": x,
            "dual_nodes": {str(u): "0" for u in range(1, g.n + 1)},
            "dual_sets": [],
            "odd_cycle_count": 0,
            "cuts_retained": [],
            "cuts_added": [],
            "objective_scaled": format_rat(
                cost_value([parse_rat(v) for v in x], perturb([c for _u, _v, c in g.edges]).scaled)
            ),
        }
        instance_file, trace = tmp_path / "g.txt", tmp_path / "t.jsonl"
        instance_file.write_text(text)
        trace.write_text(json.dumps(trace_header(g)) + "\n" + json.dumps(record) + "\n")
        proc = cli("verify", "--instance", str(instance_file), "--trace", str(trace))
        out = proc.stdout.splitlines()
        assert proc.returncode == 1
        assert "PASS primal_feasibility" in out
        assert "FAIL final_matching_oracle witness={'cost': 10, 'optimum': '0'}" in out

    def test_hostile_positive_dual_fails_fast(self, tmp_path):
        # a positive dual on a cut whose tight graph is K_{31,30}: verify
        # must reject it, and at once
        from hostile import write_hostile

        instance_file, trace = tmp_path / "g.txt", tmp_path / "t.jsonl"
        write_hostile(30, instance_file, trace)
        proc = subprocess.run(
            [sys.executable, "-m", "cpmatch", "verify", "--instance", str(instance_file),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert any(line.startswith("FAIL positively_critical ")
                   for line in proc.stdout.splitlines())

    @pytest.mark.parametrize("n", [0, 2])
    def test_edgeless_instance_exits_3(self, tmp_path, capsys, n):
        # run() writes no trace for an instance with no edges, so verify
        # refuses one as a schema mismatch, not with a traceback
        import json

        from cpmatch import cli as cli_mod
        from cpmatch.driver import trace_header
        from cpmatch.graph import make_graph

        instance, trace = tmp_path / "g.txt", tmp_path / "t.jsonl"
        instance.write_text(f"p edge {n} 0\n")
        trace.write_text(json.dumps(trace_header(make_graph(n, [])), sort_keys=True) + "\n")
        assert cli_mod.main(["verify", "--instance", str(instance), "--trace", str(trace)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "schema mismatch: instance has no edges, so no run writes a trace for it\n"

    def test_verify_garbage_trace_exits_3(self, bowtie_file, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("not json\n")
        proc = cli("verify", "--instance", str(bowtie_file), "--trace", str(trace))
        assert proc.returncode == 3

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rec: rec["primal"].__setitem__(0, "1/0"),
             "iteration 0: primal is not a rational: '1/0'"),
            (lambda rec: rec["primal"].__setitem__(0, "abc"),
             "iteration 0: primal is not a rational: 'abc'"),
            (lambda rec: rec["dual_nodes"].__setitem__("abc", "0"),
             "iteration 0: dual_nodes key is not a node: 'abc'"),
            (lambda rec: rec["dual_nodes"].__setitem__("1", "1/0"),
             "iteration 0: dual_nodes is not a rational: '1/0'"),
            (lambda rec: rec["cuts_imposed"].append([1, None, 3]),
             "iteration 0: cuts_imposed has a set that is not a list of nodes: [1, None, 3]"),
            (lambda rec: rec["dual_sets"].append(["1"]),
             "iteration 0: dual_sets entry is not [nodes, value]: ['1']"),
            (lambda rec: rec.__setitem__("dual_nodes", []),
             "record 0: dual_nodes is not of type dict: []"),
            (lambda rec: rec.__setitem__("cuts_imposed", 5),
             "record 0: cuts_imposed is not of type list: 5"),
            (lambda rec: rec.__setitem__("primal", None),
             "record 0: primal is not of type list: None"),
            (lambda rec: rec.__setitem__("dual_sets", {}),
             "record 0: dual_sets is not of type list: {}"),
            (lambda rec: rec.__setitem__("odd_cycle_count", True),
             "record 0: odd_cycle_count is not of type int: True"),
        ],
        ids=["zero-denominator", "not-a-number", "bad-node-key", "bad-dual", "bad-cut",
             "bad-dual-set", "dual-nodes-list", "cuts-imposed-int", "primal-null",
             "dual-sets-dict", "odd-cycle-count-bool"],
    )
    def test_malformed_record_exits_3(self, bowtie_file, tmp_path, capsys, edit, message):
        import json

        from cpmatch import parse_instance, run

        lines = run(parse_instance(BOWTIE_TEXT)).trace_lines()
        rec = json.loads(lines[1])
        edit(rec)
        lines[1] = json.dumps(rec, sort_keys=True)
        self.assert_schema_mismatch(bowtie_file, tmp_path, capsys, lines, message)

    @pytest.mark.parametrize(
        "key, value",
        [("base_costs", [99] * 7), ("scale_log2", 3), ("n", 8), ("edges", [[1, 2]] * 7)],
        ids=["base-costs", "scale-log2", "n", "edges"],
    )
    def test_header_that_disagrees_with_instance_exits_3(
        self, bowtie_file, tmp_path, capsys, key, value
    ):
        import json

        from cpmatch import parse_instance, run

        lines = run(parse_instance(BOWTIE_TEXT)).trace_lines()
        header = json.loads(lines[0])
        header[key] = value
        lines[0] = json.dumps(header, sort_keys=True)
        message = f"trace header {key} does not match instance"
        self.assert_schema_mismatch(bowtie_file, tmp_path, capsys, lines, message)

    @pytest.mark.parametrize(
        "index, text, message",
        [(0, "[]", "header is not an object: []"), (1, "5", "record 0 is not an object: 5")],
        ids=["header", "record"],
    )
    def test_line_that_is_not_an_object_exits_3(
        self, bowtie_file, tmp_path, capsys, index, text, message
    ):
        from cpmatch import parse_instance, run

        lines = run(parse_instance(BOWTIE_TEXT)).trace_lines()
        lines[index] = text
        self.assert_schema_mismatch(bowtie_file, tmp_path, capsys, lines, message)

    @staticmethod
    def assert_schema_mismatch(bowtie_file, tmp_path, capsys, lines, message):
        import cpmatch.cli as cli_mod

        trace = tmp_path / "t.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        code = cli_mod.main(["verify", "--instance", str(bowtie_file), "--trace", str(trace)])
        assert code == 3
        assert capsys.readouterr().err == f"schema mismatch: {message}\n"
