"""Outside-in tracing of one benchmark pass.

`Tracer.install` wraps the public functions of each `cpmatch` module, from
the benchmark's own files, under every name a caller looks them up by: the
driver binds `solve_primal`, `decompose_support` and friends with `from ...
import`, and `lp` reaches `simplex_solve` and `build_primal` through its own
globals, so a wrapper replaces the original in every module dict holding it.
Methods are wrapped on their class.  `restore` puts every original back, so
untraced passes run the unpatched package.

Each span records name, start, end, parent span and instance label; spans
stay in memory until the pass ends.  A span's self time is its duration
minus its children's.  Counters that do not depend on the machine (pivots,
tableau cells, bit lengths, procedure cases, edge scans, trace bytes) are
taken at the same boundaries.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (name, unit) of every per-layer metric, in report order.  Units other
# than "s" and "1/s" mark counters that must repeat exactly on the same code.
PER_LAYER = [
    ("rational.cost_bits", "bits"),
    ("rational.perturb_s", "s"),
    ("graph.decompose_s", "s"),
    ("graph.feasibility_s", "s"),
    ("graph.scan_calls", "count"),
    ("graph.edge_scans", "count"),
    ("laminar.contract_s", "s"),
    ("laminar.contract_calls", "count"),
    ("laminar.family_max", "count"),
    ("lp.primal.calls", "count"),
    ("lp.primal.build_s", "s"),
    ("lp.primal.simplex_s", "s"),
    ("lp.primal.check_s", "s"),
    ("lp.primal.pivots", "count"),
    ("lp.primal.tableau_cells", "count"),
    ("lp.primal.output_bits", "bits"),
    ("lp.extremal.calls", "count"),
    ("lp.extremal.build_s", "s"),
    ("lp.extremal.simplex_s", "s"),
    ("lp.extremal.pivots", "count"),
    ("lp.extremal.tableau_cells", "count"),
    ("lp.extremal.output_bits", "bits"),
    ("lp.extremal.infeasible", "count"),
    ("lp.pivots_per_s", "1/s"),
    ("combinatorial.procedure_s", "s"),
    ("combinatorial.procedure_calls", "count"),
    ("combinatorial.procedure_iterations", "count"),
    ("combinatorial.case.Ia", "count"),
    ("combinatorial.case.Ib", "count"),
    ("combinatorial.case.Ic", "count"),
    ("combinatorial.case.II", "count"),
    ("combinatorial.events", "count"),
    ("combinatorial.unshrinks", "count"),
    ("combinatorial.bipartite_s", "s"),
    ("combinatorial.critical_matching_s", "s"),
    ("combinatorial.critical_matching_calls", "count"),
    ("combinatorial.factor_critical_s", "s"),
    ("combinatorial.factor_critical_calls", "count"),
    ("driver.lp_solves", "count"),
    ("driver.lp_solves_over_bound", "ratio"),
    ("driver.attempts_per_solve", "ratio"),
    ("driver.step_s", "s"),
    ("driver.select_cuts_s", "s"),
    ("driver.trace_s", "s"),
    ("driver.trace_bytes", "bytes"),
    ("oracle.verify_self_s", "s"),
    ("oracle.parse_trace_s", "s"),
    ("oracle.brute_force_s", "s"),
    ("oracle.brute_force_calls", "count"),
    ("trace.overhead_s", "s"),
]

TIME_UNITS = ("s", "1/s")

# Layer self times: metric -> span names whose self time it sums.
SELF_TIMES = {
    "rational.perturb_s": ["rational.perturb"],
    "graph.decompose_s": ["graph.decompose_support", "graph.is_proper_half_integral"],
    "graph.feasibility_s": ["graph.check_degree_and_cut_feasibility"],
    "laminar.contract_s": ["laminar.contract_with_dual"],
    "lp.primal.build_s": ["lp.build_primal"],
    "lp.primal.simplex_s": ["lp.simplex_solve<lp.solve_primal"],
    "lp.primal.check_s": ["lp.solve_primal"],
    "lp.extremal.build_s": ["lp.solve_extremal_dual"],
    "lp.extremal.simplex_s": ["lp.simplex_solve<lp.solve_extremal_dual"],
    "combinatorial.procedure_s": ["combinatorial.run_half_integral_procedure"],
    "combinatorial.bipartite_s": ["combinatorial.solve_bipartite_via_procedure"],
    "combinatorial.critical_matching_s": ["combinatorial.critical_matching"],
    "combinatorial.factor_critical_s": ["combinatorial.is_factor_critical"],
    # step's own work plus the private combinatorial glue it calls
    "driver.step_s": ["driver.step", "driver.solve_primal_combinatorial"],
    "driver.select_cuts_s": ["driver.select_old_cuts", "driver.select_new_cuts"],
    "driver.trace_s": ["driver.trace_lines"],
    "oracle.verify_self_s": ["oracle.verify_trace"],
    "oracle.parse_trace_s": ["oracle.parse_trace"],
    "oracle.brute_force_s": ["oracle.brute_force_mcpm"],
}

CALLS = {
    "laminar.contract_calls": "laminar.contract_with_dual",
    "lp.primal.calls": "lp.solve_primal",
    "lp.extremal.calls": "lp.solve_extremal_dual",
    "combinatorial.procedure_calls": "combinatorial.run_half_integral_procedure",
    "combinatorial.critical_matching_calls": "combinatorial.critical_matching",
    "combinatorial.factor_critical_calls": "combinatorial.is_factor_critical",
    "oracle.brute_force_calls": "oracle.brute_force_mcpm",
}

_HOOK = "tracer.hook"


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


def tableau_cells(lp) -> int:
    """Rows x columns of the tableau `simplex_solve` builds for lp: structural
    columns plus one slack per inequality and one artificial per >= or =
    row, after rows with negative right-hand side are flipped."""
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    slack = artificial = 0
    for _coefs, rel, rhs in lp.rows:
        if rhs < 0:
            rel = flip[rel]
        slack += rel != "="
        artificial += rel != "<="
    return len(lp.rows) * (len(lp.objective) + slack + artificial)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, instance]
        self.counts = Counter()
        self.instance = None
        self.missing = []
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def peak(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def _parent(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, name, fn, after=None, on_error=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.instance]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = time.perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            if after is not None:
                # Hook time is a child span, so it leaves the caller's self time.
                hook = [_HOOK, time.perf_counter(), 0.0, stack[-1] if stack else None, self.instance]
                after(args, kwargs, result)
                hook[2] = time.perf_counter()
                spans.append(hook)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn):
        counts = self.counts

        def counted(g, *args, **kwargs):
            counts["graph.scan_calls"] += 1
            counts["graph.edge_scans"] += g.m
            return fn(g, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def _patch_function(self, modules, module, attr, name, after=None, on_error=None):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        traced = self._wrap(name, original, after, on_error)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, wrapper):
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, wrapper(original))
        self._undo.append((cls, attr, original))

    def install(self, pkg):
        """Wrap every traced boundary of the imported `cpmatch` package
        (with `cpmatch.cli` imported, so its bindings are patched too)."""
        self.missing = []
        modules = [pkg] + [getattr(pkg, name) for name in
                           ("rational", "graph", "laminar", "lp", "combinatorial",
                            "driver", "oracle", "cli")]
        rational, graph, laminar, lp = modules[1:5]
        combinatorial, driver, oracle = modules[5:8]
        patch = lambda *a, **k: self._patch_function(modules, *a, **k)  # noqa: E731

        patch(rational, "perturb", "rational.perturb",
              after=lambda a, k, pc: self.peak("rational.cost_bits",
                                               max(c.bit_length() for c in pc.scaled)))
        for attr in ("decompose_support", "is_proper_half_integral",
                     "check_degree_and_cut_feasibility"):
            patch(graph, attr, f"graph.{attr}")
        for attr in ("delta", "inside", "incident"):
            self._patch_method(graph.Graph, attr, self._counting)
        patch(laminar, "contract_with_dual", "laminar.contract_with_dual")

        def family(a, k):
            fam = k["fam"] if "fam" in k else a[2]
            self.peak("laminar.family_max", len(fam))

        def on_simplex(a, k, res):
            prefix = {"lp.solve_primal": "lp.primal",
                      "lp.solve_extremal_dual": "lp.extremal"}.get(self._parent(), "lp.other")
            self.counts[f"{prefix}.pivots"] += res.pivots
            self.counts[f"{prefix}.tableau_cells"] += tableau_cells(a[0] if a else k["lp"])
            self.peak(f"{prefix}.output_bits", max(_bits(res.x), _bits(res.duals)))

        def on_extremal_error(exc):
            if isinstance(exc, pkg.errors.LPInfeasible):
                self.counts["lp.extremal.infeasible"] += 1

        patch(lp, "solve_primal", "lp.solve_primal")
        patch(lp, "build_primal", "lp.build_primal", after=lambda a, k, r: family(a, k))
        patch(lp, "simplex_solve", "lp.simplex_solve", after=on_simplex)
        patch(lp, "solve_extremal_dual", "lp.solve_extremal_dual",
              after=lambda a, k, r: family(a, k), on_error=on_extremal_error)

        def on_procedure(a, k, result):
            stats = result[1]
            self.counts["combinatorial.procedure_iterations"] += stats.iterations
            for case, count in stats.case_counts.items():
                self.counts[f"combinatorial.case.{case}"] += count
            self.counts["combinatorial.events"] += len(stats.events)
            self.counts["combinatorial.unshrinks"] += stats.unshrinks

        patch(combinatorial, "run_half_integral_procedure",
              "combinatorial.run_half_integral_procedure", after=on_procedure)
        patch(combinatorial, "solve_bipartite_via_procedure",
              "combinatorial.solve_bipartite_via_procedure")
        patch(combinatorial, "is_factor_critical", "combinatorial.is_factor_critical")
        self._patch_method(combinatorial.CriticalMatchingFinder, "critical_matching",
                           lambda fn: self._wrap("combinatorial.critical_matching", fn))

        for attr in ("run", "step", "select_old_cuts", "select_new_cuts"):
            patch(driver, attr, f"driver.{attr}")
        patch(driver, "_solve_primal_combinatorial", "driver.solve_primal_combinatorial")

        def on_trace(a, k, lines):
            self.counts["driver.trace_bytes"] += sum(len(line.encode()) + 1 for line in lines)

        self._patch_method(driver.RunResult, "trace_lines",
                           lambda fn: self._wrap("driver.trace_lines", fn, after=on_trace))

        for attr in ("verify_trace", "parse_trace", "brute_force_mcpm"):
            patch(oracle, attr, f"oracle.{attr}")

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name; simplex spans are keyed by their caller
        as "lp.simplex_solve<caller"."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _inst in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, _inst) in enumerate(self.spans):
            if name == "lp.simplex_solve" and parent is not None:
                name = f"{name}<{self.spans[parent][0]}"
            out[name] += end - start - child[i]
        return out

    def attempts(self) -> tuple:
        """(procedure runs, relaxation solves) of the non-initial combinatorial
        solves: those that do not start from the bipartite procedure."""
        kids = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                kids[span[3]].append(span[0])
        runs = solves = 0
        for i, span in enumerate(self.spans):
            if span[0] == "driver.solve_primal_combinatorial":
                if "combinatorial.solve_bipartite_via_procedure" not in kids[i]:
                    solves += 1
                    runs += kids[i].count("combinatorial.run_half_integral_procedure")
        return runs, solves

    def metrics(self) -> dict:
        """Per-layer values from this tracer's spans and counters.  The
        driver.lp_solves* and trace.overhead_s entries come from the caller."""
        selft = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        out = {name: float(self.counts[name]) for name, _unit in PER_LAYER}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(selft.get(n, 0.0) for n in names)
        for metric, name in CALLS.items():
            out[metric] = float(calls[name])
        pivots = out["lp.primal.pivots"] + out["lp.extremal.pivots"]
        busy = out["lp.primal.simplex_s"] + out["lp.extremal.simplex_s"]
        out["lp.pivots_per_s"] = pivots / busy if busy else 0.0
        runs, solves = self.attempts()
        out["driver.attempts_per_solve"] = runs / solves if solves else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")
