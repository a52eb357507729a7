"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  All comparisons are exact; there are no float tolerances
anywhere.
"""

import pytest

from cpmatch import (
    CriticalMatchingFinder,
    DualSolution,
    GenerationFailed,
    LaminarFamily,
    brute_force_mcpm,
    is_factor_critical,
    iteration_bound,
    random_instance,
    run,
    verify_trace,
)
from cpmatch.rational import Rat, ZERO, parse_rat

from conftest import assert_positively_critical, solve_primal_with_basis_dual, verify_line
from paper_oracles import (
    consistency_delta,
    enumerate_perfect_matchings,
    is_consistent,
    is_positively_critical,
    make_positively_critical,
)

SIZES = (4, 6, 8, 10, 12, 14, 16)
DENSITIES = (0.3, 0.6, 1.0)
SEEDS_PER_CELL = 24

CYCLIC_SIZES = (10, 12, 14, 16)
CYCLIC_DENSITIES = (0.2, 0.25, 0.3)
CYCLIC_SEEDS = 25

CROSSCHECK_CELLS = [
    (n, dens, lo_hi)
    for n in (6, 8, 10, 12)
    for dens, lo_hi in ((0.3, (0, 1)), (0.5, (0, 100)), (0.8, (0, 5)))
]
CROSSCHECK_SEEDS = 9  # 12 cells x 9 seeds = 108 runs


def _solve_and_verify(g, solver="simplex"):
    res = run(g, solver=solver)
    report = verify_trace(g, res.trace_lines())
    return res, report


@pytest.fixture(scope="session")
def sweep():
    """Criterion-1 grid: >= 500 feasible seeded instances."""
    out = []
    for n in SIZES:
        for dens in DENSITIES:
            for k in range(SEEDS_PER_CELL):
                seed = 1000 * n + int(dens * 10) * 100 + k
                try:
                    g = random_instance(n, dens, (0, 100), seed)
                except GenerationFailed:
                    continue
                res, report = _solve_and_verify(g)
                out.append((g, res, report))
    assert len(out) >= 500, f"only {len(out)} feasible instances generated"
    return out


@pytest.fixture(scope="session")
def cyclic_sweep():
    """Sparse 0/1-cost instances: fractional first optima are common here."""
    out = []
    for n in CYCLIC_SIZES:
        for dens in CYCLIC_DENSITIES:
            for k in range(CYCLIC_SEEDS):
                seed = 555_000 + 1000 * n + int(dens * 100) * 10 + k
                try:
                    g = random_instance(n, dens, (0, 1), seed)
                except GenerationFailed:
                    continue
                res, report = _solve_and_verify(g)
                out.append((g, res, report))
    return out


@pytest.fixture(scope="session")
def hard_runs():
    """Pinned multi-round instances: telescopes plus found random seeds."""
    from instances import MULTI_ROUND_RANDOM, telescope

    out = []
    for stages, gadgets in ((3, 2), (4, 2), (3, 4), (5, 2)):
        g = telescope(stages, gadgets)
        out.append((g,) + _solve_and_verify(g))
        out.append((g,) + _solve_and_verify(g, solver="cross-check"))
    for n, dens, hi, seed in MULTI_ROUND_RANDOM:
        g = random_instance(n, dens, (0, hi), seed)
        out.append((g,) + _solve_and_verify(g, solver="cross-check"))
    return out


@pytest.fixture(scope="session")
def all_runs(sweep, cyclic_sweep, hard_runs):
    return sweep + cyclic_sweep + hard_runs


@pytest.fixture(scope="session")
def crosscheck_runs():
    out = []
    for n, dens, (lo, hi) in CROSSCHECK_CELLS:
        for k in range(CROSSCHECK_SEEDS):
            seed = 777_000 + 1000 * n + int(dens * 10) * 100 + k
            try:
                g = random_instance(n, dens, (lo, hi), seed)
            except GenerationFailed:
                continue
            res = run(g, solver="cross-check")
            assert_positively_critical(verify_trace(g, res.trace_lines()), res)
            out.append((g, res))
    return out


@pytest.fixture(scope="session")
def combinatorial_runs():
    """Pure combinatorial-mode runs for the procedure phase-bound criterion."""
    from instances import MULTI_ROUND_RANDOM, telescope

    graphs = [telescope(stages, gadgets) for stages, gadgets in ((3, 2), (4, 2), (5, 2))]
    graphs += [random_instance(n, dens, (0, hi), seed) for n, dens, hi, seed in MULTI_ROUND_RANDOM[:6]]
    graphs += [random_instance(10, 0.4, (0, 3), 444_000 + k) for k in range(20)]
    out = []
    for g in graphs:
        res = run(g, solver="combinatorial")
        assert_positively_critical(verify_trace(g, res.trace_lines()), res)
        out.append((g, res))
    return out


def test_criterion_1_oracle_optimality(sweep):
    checked = 0
    for g, res, _report in sweep:
        _edges, best = brute_force_mcpm(g)
        assert Rat(res.base_cost) == best, f"cost mismatch on n={g.n}"
        checked += 1
    assert checked >= 500
    print(f"PASS criterion-1 oracle optimality: {checked} instances, exact cost match")


def test_criterion_2_half_integrality(all_runs):
    total = 0
    for g, res, report in all_runs:
        assert verify_line(report, "half_integrality") == "PASS half_integrality"
        total += len(res.records)
    print(f"PASS criterion-2 half-integrality: {total} intermediate optima, zero violations")


def test_criterion_3_laminarity_and_size(all_runs):
    for _g, _res, report in all_runs:
        assert verify_line(report, "laminarity") == "PASS laminarity"
        assert verify_line(report, "family_size") == "PASS family_size"
    print(f"PASS criterion-3 laminarity, |F| <= n/2 (so rows <= 3n/2): {len(all_runs)} runs")


def test_criterion_4_cycle_monotonicity(all_runs):
    for _g, _res, report in all_runs:
        assert verify_line(report, "cycle_monotonicity") == "PASS cycle_monotonicity"
    print(f"PASS criterion-4 cycle monotonicity: {len(all_runs)} traces")


def test_criterion_5_cut_persistence(all_runs):
    windows = 0
    for _g, res, report in all_runs:
        assert verify_line(report, "cut_persistence") == "PASS cut_persistence"
        os = [r.odd_cycle_count for r in res.records]
        windows += sum(1 for a, b in zip(os, os[1:]) if a == b and a > 0)
    assert windows >= 10, "suite must exercise nontrivial constant-o windows"
    print(f"PASS criterion-5 cut persistence: {windows} nontrivial constant-o windows checked")


def test_criterion_6_iteration_bound(all_runs):
    worst = {}
    for g, res, report in all_runs:
        bound = iteration_bound(g.n)
        assert res.lp_solves <= bound, f"{res.lp_solves} > {bound} at n={g.n}"
        assert verify_line(report, "iteration_bound") == "PASS iteration_bound"
        worst[g.n] = max(worst.get(g.n, 0), res.lp_solves)
    print(
        "PASS criterion-6 iteration bound: empirical max lp_solves "
        + ", ".join(f"n={n}:{worst[n]}(<= {iteration_bound(n)})" for n in sorted(worst))
    )


def test_criterion_7_cross_solver_equality(crosscheck_runs):
    assert len(crosscheck_runs) >= 100
    iterations = 0
    for _g, res in crosscheck_runs:
        assert all(r.cross_checked for r in res.records)
        iterations += len(res.records)
    print(
        f"PASS criterion-7 cross-solver equality: {len(crosscheck_runs)} runs, "
        f"{iterations} iterations, exact vector equality throughout"
    )


def _reconstruct_gamma(record, g):
    gamma = DualSolution()
    for u_str, val in record.dual_nodes.items():
        gamma[int(u_str)] = parse_rat(val)
    for nodes, val in record.dual_sets:
        gamma[frozenset(nodes)] = parse_rat(val)
    for nodes in record.cuts_added:
        gamma[frozenset(nodes)] = ZERO
    return gamma


def test_criterion_8_positively_critical_duals(all_runs):
    extremal_checked = 0
    transform_checked = 0
    for g, res, report in all_runs:
        assert_positively_critical(report, res)
        extremal_checked += verify_line(report, "positively_critical") == "PASS positively_critical"
        pc = res.perturbed
        for i, rec in enumerate(res.records):
            if i == 0 or not rec.cuts_imposed:
                continue
            fam = LaminarFamily(g.n, [frozenset(s) for s in rec.cuts_imposed])
            gamma = _reconstruct_gamma(res.records[i - 1], g)
            _x, basis_dual, obj = solve_primal_with_basis_dual(g, pc.scaled, fam)
            psi, iters = make_positively_critical(
                g, pc.scaled, fam, gamma, basis_dual, optimal_value=obj
            )
            assert iters <= len(fam)
            assert is_positively_critical(g, pc.scaled, fam, psi)
            transform_checked += 1
    assert extremal_checked
    print(
        f"PASS criterion-8 positively-critical duals: {extremal_checked} traces; "
        f"independent transform on {transform_checked} iterations, always <= |F| steps"
    )


def test_criterion_9_consistency_spot_checks(all_runs):
    triples = 0
    for g, res, _report in all_runs:
        pc = res.perturbed
        for i, rec in enumerate(res.records):
            if i == 0 or not rec.cuts_imposed:
                continue
            fam_sets = [frozenset(s) for s in rec.cuts_imposed]
            gamma = _reconstruct_gamma(res.records[i - 1], g)
            psi = DualSolution()
            for u_str, val in rec.dual_nodes.items():
                psi[int(u_str)] = parse_rat(val)
            for nodes, val in rec.dual_sets:
                psi[frozenset(nodes)] = parse_rat(val)
            x = [parse_rat(s) for s in rec.primal]
            finder = CriticalMatchingFinder(g, LaminarFamily(g.n, fam_sets), gamma.slacks(g, pc.scaled))
            for s in fam_sets:
                tight = sum((x[e] for e in g.delta(s)), ZERO) == 1
                if not tight:
                    continue
                if not is_factor_critical(finder, s):
                    continue
                delta = consistency_delta(gamma, psi, s)
                assert delta >= ZERO, (sorted(s), str(delta))
                assert is_consistent(gamma, psi, s, x, g), sorted(s)
                triples += 1
    assert triples >= 100, f"only {triples} (instance, iteration, set) triples sampled"
    print(f"PASS criterion-9 consistency: {triples} triples, delta >= 0 and consistent")


def test_criterion_10_procedure_phase_bound(crosscheck_runs, combinatorial_runs):
    phases_checked = 0
    for g, res in crosscheck_runs + combinatorial_runs:
        for i, rec in enumerate(res.records):
            stats = rec.procedure
            if stats is None:
                continue
            v = stats["workspace_nodes"]
            fam_size = stats["input_laminar"] + stats["input_pinned"]
            if i == 0:
                # the first relaxation starts from a greedy matching: the
                # nodes it leaves exposed count toward each phase
                per_phase = v + fam_size + stats["initial_exposed"]
            else:
                per_phase = v + fam_size
            for length in stats["phase_lengths"]:
                assert length <= per_phase, (g.n, i, length, per_phase)
                phases_checked += 1
            total_bound = per_phase * (stats["initial_potential"] + 1)
            assert stats["iterations"] <= total_bound, (g.n, i, stats)
    print(f"PASS criterion-10 procedure phase bound: {phases_checked} phases within |V|+|F|")


def test_criterion_11_perturbation_uniqueness(all_runs, crosscheck_runs):
    # cross-solver equality doubles as the uniqueness probe: both routes
    # reproduce the same unique optimum vector at every iteration
    probes = sum(len(res.records) for _g, res in crosscheck_runs)
    strict = 0
    for g, res, _report in all_runs:
        if g.n > 10:
            continue
        pc = res.perturbed
        matchings = enumerate_perfect_matchings(g)
        totals = sorted(pc.perturbed_total(m) for m in matchings)
        assert pc.perturbed_total(tuple(res.matching)) == totals[0]
        if len(totals) > 1:
            assert totals[0] < totals[1], f"perturbed optimum not strict on n={g.n}"
        strict += 1
    print(
        f"PASS criterion-11 uniqueness: {probes} cross-checked LP optima, "
        f"{strict} exhaustive strict-minimum confirmations"
    )
