"""Golden gate: `solve` output and trace bytes on a pinned instance set.

Every instance file under fixtures/golden/ is solved in-process through
`cli.main` with each solver, and the trace it writes is replayed by `verify`.
The exit code, stdout, stderr and the SHA-256 of the `--trace` file, and the
exit code and the SHA-256 of the stdout of `verify`, must equal the values in
fixtures/golden/expected.json.  A refactor that keeps these bytes keeps the
solver's and the replay's behaviour.

Regenerate the fixtures only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from cpmatch import cli
from cpmatch.driver import SOLVER_CHOICES

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden"
EXPECTED_PATH = GOLDEN / "expected.json"


def _main(argv) -> tuple:
    """(exit code, stdout, stderr) of `cli.main(argv)`, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def solve_outcome(instance: pathlib.Path, solver: str, trace: pathlib.Path) -> dict:
    code, out, err = _main(["solve", str(instance), "--solver", solver, "--trace", str(trace)])
    outcome = {"exit": code, "stdout": out, "stderr": err, "trace_sha256": None,
               "verify_exit": None, "verify_sha256": None}
    if trace.exists():
        outcome["trace_sha256"] = _sha256(trace.read_bytes())
        code, out, _err = _main(["verify", "--instance", str(instance), "--trace", str(trace)])
        outcome["verify_exit"], outcome["verify_sha256"] = code, _sha256(out.encode())
    return outcome


EXPECTED = json.loads(EXPECTED_PATH.read_text())
CASES = [(name, solver) for name in sorted(EXPECTED) for solver in SOLVER_CHOICES]


def test_fixture_set_complete():
    files = {p.stem for p in GOLDEN.glob("*.txt")}
    assert files == set(EXPECTED)
    assert all(set(EXPECTED[name]) == set(SOLVER_CHOICES) for name in EXPECTED)


@pytest.mark.parametrize("name,solver", CASES)
def test_golden_output(name, solver, tmp_path):
    got = solve_outcome(GOLDEN / f"{name}.txt", solver, tmp_path / "trace.jsonl")
    assert got == EXPECTED[name][solver]


def _golden_instances() -> dict:
    from conftest import BOWTIE_EDGES, SIX_CYCLE_EDGES
    from instances import MULTI_ROUND_RANDOM, four_triangles, telescope

    from cpmatch import make_graph, random_instance

    graphs = {
        "bowtie": make_graph(6, BOWTIE_EDGES),
        "six_cycle": make_graph(6, SIX_CYCLE_EDGES),
        "telescope_3_2": telescope(stages=3, gadgets=2),
        "telescope_2_4": telescope(stages=2, gadgets=4),
    }
    for n, p, hi, seed in MULTI_ROUND_RANDOM[:3]:
        graphs[f"random_n{n}_seed{seed}"] = random_instance(n, p, (0, hi), seed)
    graphs["four_triangles"] = four_triangles()
    return graphs


def _regenerate():
    import tempfile

    from cpmatch import write_instance

    GOLDEN.mkdir(parents=True, exist_ok=True)
    expected = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, g in _golden_instances().items():
            path = GOLDEN / f"{name}.txt"
            path.write_text(write_instance(g))
            expected[name] = {}
            for solver in SOLVER_CHOICES:
                trace = pathlib.Path(tmp) / f"{name}-{solver}.jsonl"
                expected[name][solver] = solve_outcome(path, solver, trace)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
