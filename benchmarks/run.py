"""Benchmark of the cpmatch solver: end-to-end metrics, or per-layer traces.

Run from the repository root:

    python3 benchmarks/run.py --workload telescope-simplex --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

It imports `cpmatch` from `src/` and fails before printing a result when
that package is absent.  Each workload is a fixed, seeded instance list (see
workloads.py) solved closed-loop, one solve at a time, in this process.  A
solve is one `run()` plus its `trace_lines()` (what `solve --trace` writes),
then `verify_trace` of that trace, VERIFY_REPEATS times; every result is checked by gate.py
outside the timed region.

The list is solved round and round until `--seconds` have gone by, and at
least once.  Each timing is scaled to a fixed reference speed of the host
(see `Meter`), and each instance contributes the median of its scaled
times, so the tail percentile always ranks the same instances.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` the list is solved once untraced and once with tracing.py's
wrappers installed, and the last line reports the per-layer metrics; spans
go to benchmarks/out/spans/.  Counters that do not depend on the machine
and per-instance trace hashes are compared with earlier runs of the same
code and seed (benchmarks/out/determinism/); a mismatch is a behaviour
change and fails the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from gate import solve_errors
from tracing import PER_LAYER, TIME_UNITS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Set-ups timed before the solves; the last one's package is measured.
SETUP_REPEATS = 9
# verify_trace calls per solve: a verify is short and its timing noisy.
VERIFY_REPEATS = 3

# Roughly the seconds one reference_work() call takes on a 2-vCPU Xeon VM
# at 2.0 GHz with CPython 3.11 and the fractions backend.  Timings are
# reported at this speed; only its constancy matters, as it fixes the unit.
REFERENCE_S = 0.02
# Longest stretch of timings between two reference_work() calls.
CALIBRATE_EVERY_S = 0.25

# Per-layer counters that must read zero: the workload bypasses that layer.
IDLE = {
    "telescope-simplex": ("combinatorial.procedure_calls",),
    "telescope-combinatorial": ("lp.primal.calls",),
    "dense-oneshot": ("lp.extremal.calls", "combinatorial.procedure_calls",
                      "laminar.contract_calls"),
    "small-replay": (),
}

def load_package():
    """Import cpmatch from this checkout's src/, or exit without a result."""
    if not (SRC / "cpmatch" / "__init__.py").is_file():
        sys.exit(f"error: no cpmatch package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "cpmatch" or n.startswith("cpmatch.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cpmatch")
    importlib.import_module("cpmatch.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "cpmatch":
        sys.exit(f"error: imported cpmatch from {pkg.__file__}, not {SRC}")
    return pkg


def reference_work():
    """A fixed exact-rational Gauss-Jordan elimination in the standard
    library: the kind of work cpmatch's tableau does, but none of its code,
    so no change to the package moves it."""
    rng = random.Random(7)
    rows, cols = 10, 20
    t = [[Fraction((rng.randint(1, 99) << 20) | rng.getrandbits(8)) for _ in range(cols)]
         for _ in range(rows)]
    for k in range(rows):
        row = [v / t[k][k] for v in t[k]]
        t[k] = row
        for i in range(rows):
            f = t[i][k]
            if i != k and f:
                t[i] = [a - f * b for a, b in zip(t[i], row)]
    return t


class Meter:
    """Wall-clock timings scaled to the reference speed of the host.

    Other tenants of a shared host change its speed by up to ~1.7x, in
    stretches of seconds to minutes, and every timing with it.  The meter
    runs reference_work() before a timing whenever CALIBRATE_EVERY_S has
    passed since the last call, and once after the last timing; a timing is
    scaled by REFERENCE_S over the mean of the two reference times that
    bracket it.  A change to cpmatch moves its timings and not the
    reference, so the scaled figures compare commits.
    """

    def __init__(self):
        self.reference = []  # seconds of each reference_work() call
        self.raw = []  # (seconds, index of the reference call before it)
        self.calibrate()

    def calibrate(self):
        gc.collect()
        start = time.perf_counter()
        reference_work()
        self.last = time.perf_counter()
        self.reference.append(self.last - start)

    def measure(self, fn, *args):
        """(fn(*args), ticket); the ticket's scaled time comes from seconds()."""
        if time.perf_counter() - self.last > CALIBRATE_EVERY_S:
            self.calibrate()
        # Collecting first keeps earlier garbage out of the timing.
        gc.collect()
        start = time.perf_counter()
        result = fn(*args)
        self.raw.append((time.perf_counter() - start, len(self.reference) - 1))
        return result, len(self.raw) - 1

    def seconds(self, ticket) -> float:
        raw, k = self.raw[ticket]
        if k + 1 == len(self.reference):
            self.calibrate()
        return raw * 2 * REFERENCE_S / (self.reference[k] + self.reference[k + 1])

    def slowdown(self) -> float:
        """Median reference time over REFERENCE_S: how slow the host ran."""
        return statistics.median(self.reference) / REFERENCE_S


def setup_once(workload, seed):
    """Import, instance generation and reference preparation."""
    pkg = load_package()
    instances = workload.build(seed)
    graphs = [pkg.parse_instance(inst.text) for inst in instances]
    refs = [
        inst.reference if inst.reference is not None
        else int(pkg.oracle.brute_force_mcpm(g)[1])
        for inst, g in zip(instances, graphs)
    ]
    return pkg, list(zip(instances, graphs, refs))


def timed_setups(workload, seed, meter, tickets):
    """Set up SETUP_REPEATS times, appending each ticket; the last package
    and instance list are the ones measured next."""
    for _ in range(SETUP_REPEATS):
        (pkg, items), ticket = meter.measure(setup_once, workload, seed)
        tickets.append(ticket)
    return pkg, items


def tail(values):
    """(value, percentile) of the highest percentile with ten samples beyond
    it; with fewer than eleven samples, the maximum as p100."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Samples:
    """Solve and verify timings (Meter tickets) per instance."""

    def __init__(self, meter):
        self.meter = meter
        self.solve_s = defaultdict(list)
        self.verify_s = defaultdict(list)
        self.failures = []
        self.attempted = 0
        self.hashes = {}
        self.lp_solves = {}

    def solve(self, pkg, solver, inst, g, ref, tracer=None):
        self.attempted += 1
        if tracer is not None:
            tracer.instance = inst.label

        def solve_once():
            result = pkg.driver.run(g, solver=solver)
            return result, result.trace_lines()

        try:
            (result, lines), solve_s = self.meter.measure(solve_once)
            verify_s = []
            for _ in range(VERIFY_REPEATS if tracer is None else 1):
                report, ticket = self.meter.measure(pkg.oracle.verify_trace, g, lines)
                verify_s.append(ticket)
        except Exception as exc:  # any raise is a failed solve; keep measuring
            self.failures.append((inst.label, f"raised {type(exc).__name__}: {exc}"))
            return
        errors = solve_errors(inst, ref, result, lines, report.lines())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        if self.hashes.setdefault(inst.label, digest) != digest:
            errors.append("trace differs from an earlier solve of the same instance")
        self.lp_solves[inst.label] = result.lp_solves
        if errors:
            self.failures.append((inst.label, "; ".join(errors)))
            return
        self.solve_s[inst.label].append(solve_s)
        self.verify_s[inst.label].extend(verify_s)

    def per_instance(self, times) -> list:
        """Each instance's median scaled time over its timings."""
        return [statistics.median(map(self.meter.seconds, v)) for v in times.values()]


def run_workload(name, seed, seconds, traced):
    workload = WORKLOADS[name]
    meter, setups = Meter(), []
    pkg, items = timed_setups(workload, seed, meter, setups)

    print(f"# workload {name} solver={workload.solver} seed={seed} seconds={seconds} "
          f"trace={int(traced)}")
    print(f"# why: {workload.why}")
    print_environment(pkg)
    for inst, _g, ref in items:
        print(f"manifest {name} {inst.label} n={inst.n} m={inst.m} cost_bits={inst.cost_bits} "
              f"reference={ref} sha256={inst.sha256}")
    manifest = hashlib.sha256("".join(inst.sha256 for inst, _g, _r in items).encode())
    print(f"manifest-digest {name} {manifest.hexdigest()}")

    if not traced:
        run, solves = Samples(meter), 0
        start = time.perf_counter()
        while solves < len(items) or time.perf_counter() - start < seconds:
            inst, g, ref = items[solves % len(items)]
            run.solve(pkg, workload.solver, inst, g, ref)
            solves += 1
        print(f"# host ran at {meter.slowdown():.3f}x the reference time of "
              f"reference_work() (median of {len(meter.reference)} calls)")
        metrics = end_to_end(name, setups, run, solves / len(items))
        counters = {}
        checked, attempted, failures = run, run.attempted, run.failures
    else:
        plain, traced_run, tracer = Samples(meter), Samples(meter), Tracer()
        # Untraced and traced solves alternate, so the overhead compares
        # solves made under the same load on the machine.
        for inst, g, ref in items:
            plain.solve(pkg, workload.solver, inst, g, ref)
            tracer.install(pkg)
            try:
                traced_run.solve(pkg, workload.solver, inst, g, ref, tracer)
            finally:
                tracer.restore()
        if tracer.missing:
            print(f"# untraced (not found): {' '.join(tracer.missing)}")
        for label, digest in plain.hashes.items():
            if traced_run.hashes.get(label, digest) != digest:
                traced_run.failures.append((label, "traced trace differs from untraced"))
        metrics = per_layer(name, pkg, items, plain, traced_run, tracer)
        counters = {k: metrics[k][0] for k, unit in PER_LAYER if unit not in TIME_UNITS}
        OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / "spans" / f"{name}-seed{seed}.jsonl")
        checked = traced_run
        attempted = plain.attempted + traced_run.attempted
        failures = plain.failures + traced_run.failures

    fixed = [(inst.label, inst.lp_solves, checked.lp_solves.get(inst.label))
             for inst, _g, _ref in items if inst.lp_solves is not None]
    off = [f"{label} took {got}, construction gives {want}" for label, want, got in fixed
           if got != want]
    if fixed:
        print(f"# lp_solves as constructed on {len(fixed)} instances: "
              f"{'holds' if not off else 'differs: ' + '; '.join(off)}")
    trace_digest = hashlib.sha256(
        "".join(checked.hashes.get(inst.label, "-") for inst, _g, _r in items).encode())
    print(f"trace-digest {name} {trace_digest.hexdigest()}")

    mismatches = compare_with_earlier(name, seed, checked.hashes, counters)
    for what in mismatches:
        print(f"# BEHAVIOUR CHANGE on identical code: {what}")
    for label, why in failures:
        print(f"# FAILED {label}: {why}")
    for metric, (value, unit, note) in metrics.items():
        print(f"metric {name} {metric} {value:.6g} {unit}{'  ' + note if note else ''}")
    return {
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }


def end_to_end(name, setups, run, passes):
    """The user-visible metrics, each as (value, unit, note); every time is
    scaled to the reference speed (see Meter)."""
    solve_s, verify_s = run.per_instance(run.solve_s), run.per_instance(run.verify_s)
    if not solve_s:
        sys.exit(f"error: no solve of {name} passed the gate")
    n = len(solve_s)
    basis = f"median per instance over {passes:.2f} passes, {n} instances"
    solve_tail, solve_pct = tail(solve_s)
    verify_tail, verify_pct = tail(verify_s)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(map(run.meter.seconds, setups)), "s",
                    f"(median of {len(setups)})"),
        "solves_per_s": (n / sum(solve_s), "1/s", f"({basis})"),
        "solve_s_p50": (statistics.median(solve_s), "s", f"({basis})"),
        "solve_s_tail": (solve_tail, "s", f"(p{solve_pct:.1f}; {basis})"),
        "verify_s_p50": (statistics.median(verify_s), "s", f"({basis})"),
        "verify_s_tail": (verify_tail, "s", f"(p{verify_pct:.1f}; {basis})"),
        "solved_frac": ((run.attempted - len(run.failures)) / run.attempted, "ratio",
                        f"(failed_frac {len(run.failures)}/{run.attempted} solves)"),
        "peak_rss_mib": (rss, "MiB", "(ru_maxrss of this process)"),
    }


def per_layer(name, pkg, items, plain, traced_run, tracer):
    values = tracer.metrics()
    solves = sum(traced_run.lp_solves.values())
    bound = sum(pkg.driver.iteration_bound(g.n) for _inst, g, _ref in items)
    values["driver.lp_solves"] = float(solves)
    values["driver.lp_solves_over_bound"] = solves / bound
    values["trace.overhead_s"] = (sum(traced_run.per_instance(traced_run.solve_s))
                                  - sum(plain.per_instance(plain.solve_s)))
    units = dict(PER_LAYER)
    for metric in IDLE[name]:
        state = "holds" if values[metric] == 0 else f"VIOLATED ({values[metric]:g})"
        print(f"# bypass {name} {metric} = 0: {state}")
    return {k: (values[k], units[k], "") for k, _unit in PER_LAYER}


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "none" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def print_environment(pkg):
    print(f"env backend={pkg.rational.Rat.__module__} python={platform.python_version()} "
          f"nproc={os.cpu_count()} commit={git_commit()} "
          f"source_sha256={source_digest(SRC / 'cpmatch')}")


def compare_with_earlier(name, seed, hashes, counters) -> list:
    """Mismatches against the stored record of the same code and seed; the
    record is then extended with this run's values."""
    fingerprint = source_digest(SRC / "cpmatch") + source_digest(Path(__file__).parent)
    path = OUT / "determinism" / f"{name}-seed{seed}.json"
    record = {"fingerprint": fingerprint, "trace_sha256": {}, "counters": {}}
    try:
        stored = json.loads(path.read_text())
        if stored.get("fingerprint") == fingerprint:
            record = stored
    except (OSError, ValueError):
        pass  # no usable record yet: this run starts one
    mismatches = []
    for kind, values in (("trace_sha256", hashes), ("counters", counters)):
        for key, value in values.items():
            if record[kind].setdefault(key, value) != value:
                mismatches.append(f"{kind} {key}: {record[kind][key]} then {value}")
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".tmp")
    partial.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(partial, path)  # a run killed mid-write leaves the old record
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
