"""Cutting-plane minimum-cost perfect matching.

Solves minimum-cost perfect matching as a sequence of linear relaxations of
the matching polytope: starting from the bipartite relaxation, each round
keeps the blossom cuts with positive extremal dual value and adds one new
cut per odd cycle in the support of the current optimum.  A deterministic
cost perturbation keeps every intermediate optimum unique and
proper-half-integral, so the loop converges after O(n log n) rounds.
"""

from .errors import (
    GenerationFailed,
    InvalidConfiguration,
    LaminarityViolation,
    LPInfeasible,
    LPUnbounded,
    NoPerfectMatching,
    ParseError,
    SchemaMismatch,
    StalledNoEpsilon,
    StructureViolation,
)
from .graph import (
    Graph,
    SupportDecomposition,
    check_degree_and_cut_feasibility,
    decompose_support,
    is_proper_half_integral,
    make_graph,
    parse_instance,
    write_instance,
)
from .laminar import ContractionMap, LaminarFamily, odd_set
from .lp import (
    DualSolution,
    LinearProgram,
    build_primal,
    simplex_solve,
    solve_extremal_dual,
    solve_primal,
)
from .combinatorial import (
    CriticalMatchingFinder,
    ValidConfiguration,
    is_factor_critical,
    run_half_integral_procedure,
    solve_bipartite_via_procedure,
)
from .driver import (
    DriverState,
    IterationRecord,
    RunResult,
    iteration_bound,
    run,
    select_new_cuts,
    select_old_cuts,
    step,
)
from .oracle import (
    VerifyReport,
    brute_force_mcpm,
    random_instance,
    verify_trace,
)
from .rational import PerturbedCosts, Rat, format_rat, parse_rat, perturb, rat

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
