import subprocess
import sys

import pytest

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

    def test_verify_garbage_trace_exits_3(self, bowtie_file, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("not json\n")
        proc = cli("verify", "--instance", str(bowtie_file), "--trace", str(trace))
        assert proc.returncode == 3
