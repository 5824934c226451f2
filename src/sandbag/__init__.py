"""Optimal failure scheduling against a Beta-Bernoulli monitor.

An informed player schedules successes and failures; the monitor
updates a Beta posterior on the success rate and quits for good once
its mean strictly exceeds a cutoff. This package builds the frontier
family of candidate-optimal schedules, classifies which member wins at
a given discount factor, and cross-checks the answer with brute-force
game-tree oracles and simulation.

The value types are namedtuples. ``Threshold``, ``BeliefState``, ``Strategy``,
``ProblemInstance`` and ``GuesserConfig`` derive from ``belief.checked``: every
way of building one runs its check, and each equals only its own type. Names
from ``oracle`` and ``sim`` resolve on first use, so ``import sandbag`` runs
neither, nor imports ``fractions``. A ``TrajectoryRecord`` holds its posterior
mean as the coprime ints ``mean_num`` and ``mean_den``; its ``posterior_mean``
property builds the ``Fraction`` when read.
"""

import importlib

from .belief import Action, BeliefState, LimitExceededError, Threshold
from .payoff import BreakevenRoot, breakeven_discount, frontier_payoff, payoff
from .solver import (
    OptimalKind,
    OptimalSet,
    OrderingReport,
    ProblemInstance,
    classify,
    verify_ordering,
)
from .strategy import (
    FamilyIndex,
    Strategy,
    StrategyParseError,
    format_strategy,
    frontier_strategy,
    greedy_violations,
    is_feasible,
    parse_strategy,
)

__version__ = "0.1.0"

_SIM_NAMES = {"GuesserConfig", "Trajectory", "TrajectoryRecord", "play_guesser", "play_strategy"}


def __getattr__(name: str):
    """Import ``sim``, or else ``oracle``, on first use of its names in ``__all__`` (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{'sim' if name in _SIM_NAMES else 'oracle'}")
    value = globals()[name] = getattr(module, name)
    return value


__all__ = [
    "Action",
    "BeliefState",
    "Threshold",
    "Strategy",
    "StrategyParseError",
    "FamilyIndex",
    "parse_strategy",
    "format_strategy",
    "is_feasible",
    "greedy_violations",
    "frontier_strategy",
    "payoff",
    "frontier_payoff",
    "breakeven_discount",
    "BreakevenRoot",
    "ProblemInstance",
    "OptimalKind",
    "OptimalSet",
    "OrderingReport",
    "classify",
    "verify_ordering",
    "OracleResult",
    "LimitExceededError",
    "exhaustive_best",
    "dp_value",
    "value_iteration",
    "EXHAUSTIVE_LIMIT",
    "DP_LIMIT",
    "GuesserConfig",
    "Trajectory",
    "TrajectoryRecord",
    "play_strategy",
    "play_guesser",
    "__version__",
]
