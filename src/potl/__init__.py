"""Explicit-state model checking of probability-graded obstruction queries
over finite stochastic structures with edge-removal costs."""

from .engine import (
    CheckResult,
    ConvergenceError,
    EngineOptions,
    check,
    path_values,
    prob_bounded_release,
    prob_bounded_until,
    prob_fixed,
    prob_next,
    prob_release,
    prob_until,
    sat,
    synthesize,
)
from .model import (
    ModelError,
    Pots,
    edges_of,
    load_model,
    loads_model,
    prune,
    save_model,
    validate,
)
from .obstruction import (
    MemorylessStrategy,
    best_removal,
    can_cut,
    empty_strategy,
    load_strategy,
    obstruct_pred,
    pre_set,
    save_strategy,
    validate_strategy,
)
from .oracle import (
    EnumerationLimit,
    enumerate_strategies,
    exact_prob,
    oracle_optimum,
    oracle_sat,
    step_optimum,
)
from .syntax import ParseError, parse, parse_path_formula, print_state

__version__ = "0.1.0"
