"""Census of the package code that the product reaches.

    python tests/census.py

It traces, with the stdlib `sys.settrace`, every frame whose code lies in
`src/cpmatch/` while it drives the product the way its users do:

- `driver.run` and `verify_trace` on each benchmark workload's seed-1
  instances (`benchmarks/workloads.py`), on that workload's solver;
- `cli.main` on the CI smokes: `gen` and `solve --verify` at n = 24 and on
  the complete graph at n = 16, the n = 210 telescope on cross-check with
  `--trace` and then `verify` of that trace, `gen` and `solve --verify` at
  n = 128, and `verify` of the hostile trace of `tests/hostile.py`.

Tracing starts before `cpmatch` is imported, so module and class bodies run
under it.  For each module it prints the executable lines inside functions
and class bodies (`co_lines()` of every code object but the module's own)
and how many of them the product reached, with the ranges it did not reach;
then every function or class body it never entered.  Comprehensions count
as lines of the function that holds them and are not listed on their own,
as Python 3.12 inlines most of them.  A function is keyed by its file,
`co_firstlineno` and `co_name`, which every supported Python has.

Exit status 0 when every function never entered is on ALLOWED; 1 when one
is not, when an ALLOWED entry names a function that does not exist or that
the product entered, or when a run the census drives fails.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "cpmatch"
PREFIX = f"{PKG}{os.sep}"

# Functions the product never enters, each with the reason it stays.
ALLOWED = {
    "graph.is_proper_half_integral":
        "wrapped by benchmarks/tracing.py until ROADMAP item 8's benchmark PR",
    "graph.Graph.incident":
        "wrapped by benchmarks/tracing.py until ROADMAP item 8's benchmark PR",
    "laminar.LaminarFamily.__len__":
        "read by benchmarks/tracing.py (laminar.family_max) until ROADMAP item 8's benchmark PR",
    "combinatorial._Workspace.set_dual":
        "reached only on procedure branches no workload takes: a Case II step "
        "bounded by a set dual, and the unshrink",
    "errors.StructureViolation.__init__":
        "entered only on a failing input: every product run here succeeds",
    "cli._Parser.error": "entered only on a failing input: a usage error",
    "oracle._early_basis_dual":
        "entered only on a failing input: a basis dual on a record before the last",
}

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

# (file, co_firstlineno, co_name) of each package code object entered ->
# the lines run in it, its first line counted on entry
_reached = {}
_tracers = {}


def _tracer_for(code):
    lines = _reached.setdefault((code.co_filename, code.co_firstlineno, code.co_name),
                                {code.co_firstlineno})
    add = lines.add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


def _on_call(frame, event, arg):
    code = frame.f_code
    try:
        return _tracers[code]
    except KeyError:
        tracer = _tracers[code] = (
            _tracer_for(code) if code.co_filename.startswith(PREFIX) else None)
        return tracer


def _drive() -> None:
    """Run the product: the workloads through run and verify_trace, then the CI smokes
    through cli.main.  Exits with a message when a run does not end as it should."""
    import cpmatch
    from cpmatch import cli
    from hostile import write_hostile
    from instances import telescope
    from workloads import WORKLOADS

    if not cpmatch.__file__.startswith(PREFIX):
        sys.exit(f"census: imported cpmatch from {cpmatch.__file__}, not {PKG}")
    for w in WORKLOADS.values():
        for inst in w.build(1):
            g = cpmatch.parse_instance(inst.text)
            report = cpmatch.verify_trace(g, cpmatch.run(g, solver=w.solver).trace_lines())
            if not report.all_ok:
                sys.exit(f"census: verify failed on {w.name} {inst.label}")

    with tempfile.TemporaryDirectory() as d:
        Path(d, "t210.txt").write_text(cpmatch.write_instance(telescope(10, 10, bridge=1000)))
        write_hostile(30, Path(d, "hostile.txt"), Path(d, "hostile.trace"))
        smokes = [  # (argv, expected exit code)
            ("gen --n 24 --density 0.25 --seed 1 --out {d}/g24.txt", 0),
            ("solve {d}/g24.txt --solver cross-check --verify", 0),
            ("gen --n 16 --density 1.0 --seed 1 --out {d}/g16.txt", 0),
            ("solve {d}/g16.txt --solver cross-check --verify", 0),
            ("solve {d}/t210.txt --solver cross-check --verify --trace {d}/t210.trace", 0),
            ("verify --instance {d}/t210.txt --trace {d}/t210.trace", 0),
            ("gen --n 128 --density 0.3 --seed 1 --out {d}/g128.txt", 0),
            ("solve {d}/g128.txt --solver simplex --verify", 0),
            ("verify --instance {d}/hostile.txt --trace {d}/hostile.trace", 1),
        ]
        for argv, want in smokes:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv.format(d=d).split())
            if code != want:
                sys.exit(f"census: cpmatch {argv} exited {code}, not {want}")


def _functions(code, qual, top=True):
    """(code object, qualified name) of every code object nested in `code`, a
    module's, but its own comprehensions, which Python 3.12 runs as module code.
    A lambda's name carries its first line."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not (top and const.co_name in COMPREHENSIONS):
            name = f"{qual}.{const.co_name}"
            if const.co_name == "<lambda>":
                name += f":{const.co_firstlineno}"
            yield const, name
            yield from _functions(const, name, top=False)


def _lines(code) -> set:
    return {line for _start, _end, line in code.co_lines() if line}


def _ranges(lines) -> str:
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def census() -> int:
    """Print the per-module table and the functions never entered; the exit status."""
    rows, never = [], []
    names = set()
    for path in sorted(PKG.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        lines, hit = set(), set()
        for code, qual in _functions(module, path.stem):
            own = _lines(code)
            lines |= own
            ran = _reached.get((code.co_filename, code.co_firstlineno, code.co_name))
            if ran is not None:
                hit |= own & ran
            if code.co_name not in COMPREHENSIONS:
                names.add(qual)
                if ran is None:
                    never.append((f"{path.name}:{code.co_firstlineno}", qual))
        rows.append((path.name, len(lines), len(hit), _ranges(lines - hit)))

    print("| module | lines in functions | reached | not reached |")
    print("| --- | ---: | ---: | --- |")
    for name, total, hit, missed in rows:
        print(f"| {name} | {total} | {hit} | {missed} |")
    total, hit = sum(r[1] for r in rows), sum(r[2] for r in rows)
    print(f"| total | {total} | {hit} | |")

    bad = 0
    print(f"\nnever entered: {len(never)}")
    for where, qual in never:
        reason = ALLOWED.get(qual)
        bad += reason is None
        print(f"  {where} {qual}: {reason or 'NOT ALLOWED: reach it or delete it'}")
    for qual in ALLOWED.keys() - {qual for _where, qual in never}:
        bad += 1
        why = "entered by the product" if qual in names else "no such function"
        print(f"  ALLOWED entry {qual}: {why}; remove it")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks")]
    sys.settrace(_on_call)
    try:
        _drive()
    finally:
        sys.settrace(None)
    sys.exit(census())
