"""Command-line entry point: solve, gen, and verify subcommands.

All output is deterministic: exact rationals print as p/q, base costs as
plain integers, never floating point.  Exit codes: 0 success, 1 verification
failure, 2 no perfect matching (for `gen`: no draw had one), 3 parse, usage
or I/O error, 4 structure violation.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    GenerationFailed,
    NoPerfectMatching,
    ParseError,
    SchemaMismatch,
    StructureViolation,
)
from .driver import SOLVER_CHOICES, encode_trace, run, trace_header
from .graph import parse_instance, write_instance
from .oracle import random_instance, verify_trace
from .rational import format_rat

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NO_MATCHING = 2
EXIT_PARSE = 3
EXIT_STRUCTURE = 4


def _read_instance(path):
    try:
        with open(path) as fh:
            return parse_instance(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path, text) -> bool:
    """Write text to path.  On an OSError print one error line on stderr
    and return False."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _write_lines(path, lines) -> bool:
    return _write(path, "\n".join(lines) + "\n")


def cmd_solve(args) -> int:
    try:
        g = _read_instance(args.instance)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        result = run(g, solver=args.solver)
    except NoPerfectMatching as exc:
        print(f"no perfect matching: {exc}", file=sys.stderr)
        return EXIT_NO_MATCHING
    except StructureViolation as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        records = getattr(exc, "trace_records", None)
        if args.trace and records is not None:
            header = dict(trace_header(g), aborted=str(exc))
            _write_lines(args.trace, encode_trace(header, records))
        return EXIT_STRUCTURE

    for e in result.matching:
        u, v, _c = g.edges[e]
        print(f"edge {u} {v}")
    print(f"cost {result.base_cost}")
    print(f"perturbed_cost {format_rat(result.perturbed_cost)}")
    print(f"lp_solves {result.lp_solves}")
    lines = result.trace_lines() if args.trace or args.verify else []
    if args.trace and not _write_lines(args.trace, lines):
        return EXIT_PARSE
    if args.verify:
        report = verify_trace(g, lines)
        for line in report.lines():
            print(line)
        if not report.all_ok:
            return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        g = random_instance(args.n, args.density, (0, args.cost_max), args.seed)
    except (ValueError, GenerationFailed, StructureViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, GenerationFailed):
            return EXIT_NO_MATCHING
        return EXIT_PARSE if isinstance(exc, ValueError) else EXIT_STRUCTURE
    text = write_instance(g)
    if args.out == "-":
        sys.stdout.write(text)
    elif not _write(args.out, text):
        return EXIT_PARSE
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        g = _read_instance(args.instance)
        with open(args.trace) as fh:
            lines = fh.read().splitlines()
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = verify_trace(g, lines)
    except SchemaMismatch as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return EXIT_PARSE
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_ok else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """Exits 3 on a usage error, and so do its subparsers: 2 is "no perfect matching"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _bounded(kind, lo, hi):
    """An argparse type: a `kind` value in [lo, hi]; nan is not in it."""
    def parse(text):
        value = kind(text)  # a ValueError prints "invalid <kind> value"
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{text!r} is not in [{lo}, {hi}]")
        return value
    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cpmatch",
        description="Minimum-cost perfect matching by cutting planes with half-integral intermediate optima.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--solver", choices=SOLVER_CHOICES, default="simplex")
    p_solve.add_argument("--trace", help="write a JSONL trace here")
    p_solve.add_argument("--verify", action="store_true", help="replay the trace through all checks")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random feasible instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--density", type=_bounded(float, 0, 1), required=True)
    p_gen.add_argument("--cost-max", type=_bounded(int, 0, float("inf")), default=100)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="replay a trace against its instance")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--trace", required=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
