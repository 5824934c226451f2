"""Contracts of the value types: repr text, immutability, equality and hashing."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from sandbag import (
    Action,
    BeliefState,
    GuesserConfig,
    OptimalKind,
    OptimalSet,
    OracleResult,
    OrderingReport,
    ProblemInstance,
    Strategy,
    Threshold,
    Trajectory,
    TrajectoryRecord,
    classify,
    decompose,
    parse_strategy,
)

S, F = Action.SUCCESS, Action.FAILURE
_OPTIMAL = OptimalSet(OptimalKind.UNIQUE, (2,), 0.5, 0.75, {2: 1.5})
_RECORD = TrajectoryRecord(1, S, Fraction(2, 5), False)

# one value per type, with its repr as the package has always printed it
SAMPLES = [
    (Threshold(2, 6), "Threshold(num=1, den=3)"),
    (BeliefState(2, 7, 1, 2), "BeliefState(alpha0=2, beta0=7, successes=1, failures=2)"),
    (
        parse_strategy("ssfs(fs)*"),
        "Strategy(prefix_runs=((<Action.SUCCESS: 's'>, 2), (<Action.FAILURE: 'f'>, 1), "
        "(<Action.SUCCESS: 's'>, 1)), cycle_runs=((<Action.FAILURE: 'f'>, 1), "
        "(<Action.SUCCESS: 's'>, 1)))",
    ),
    (decompose(5, 2), "Decomposition(m=2, r=2, k=1)"),
    (ProblemInstance(1, 5, 2, 0.7), "ProblemInstance(alpha0=1, beta0=5, m=2, delta=0.7)"),
    (
        _OPTIMAL,
        "OptimalSet(kind=<OptimalKind.UNIQUE: 'unique'>, members=(2,), z_low=0.5, "
        "z_high=0.75, payoffs={2: 1.5})",
    ),
    (
        OrderingReport((2,), {2: 1.5}, _OPTIMAL, True),
        "OrderingReport(argmax=(2,), payoffs={2: 1.5}, classification=OptimalSet("
        "kind=<OptimalKind.UNIQUE: 'unique'>, members=(2,), z_low=0.5, z_high=0.75, "
        "payoffs={2: 1.5}), agrees=True)",
    ),
    (
        OracleResult(1.75, (S, S, S), 12),
        "OracleResult(value=1.75, best_sequence=(<Action.SUCCESS: 's'>, "
        "<Action.SUCCESS: 's'>, <Action.SUCCESS: 's'>), horizon=12)",
    ),
    (
        _RECORD,
        "TrajectoryRecord(period=1, action=<Action.SUCCESS: 's'>, "
        "posterior_mean=Fraction(2, 5), crossed=False)",
    ),
    (
        Trajectory((_RECORD,), False, None),
        "Trajectory(records=(TrajectoryRecord(period=1, action=<Action.SUCCESS: 's'>, "
        "posterior_mean=Fraction(2, 5), crossed=False),), terminated=False, "
        "discounted_payoff=None)",
    ),
    (GuesserConfig(0.3, 7), "GuesserConfig(p_true=0.3, seed=7)"),
]
IDS = [type(value).__name__ for value, _ in SAMPLES]


@pytest.mark.parametrize("value, text", SAMPLES, ids=IDS)
def test_repr_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", SAMPLES, ids=IDS)
def test_fields_are_read_only(value, text):
    name = text.partition("(")[2].partition("=")[0]  # the first field
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_strategy_keeps_its_cached_expansions():
    x = parse_strategy("ssfs(fs)*")
    assert x.prefix == (S, S, F, S) and x.cycle == (F, S)
    with pytest.raises(AttributeError):
        x.prefix = ()
    assert x.prefix == (S, S, F, S)


@pytest.mark.parametrize("text", ["ssfss", "ssfs(fs)*"])
def test_strategy_survives_pickle_and_copy(text):
    x = parse_strategy(text)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is Strategy and y == x and hash(y) == hash(x)
        assert str(y) == text


def test_optimal_set_ignores_payoffs_in_equality_and_hash():
    res = classify(ProblemInstance(1, 5, 2, 0.7))
    hash(res)
    other = OptimalSet(res.kind, res.members, res.z_low, res.z_high, {2: -1.0})
    assert res == other and not res != other and hash(res) == hash(other)
    moved = OptimalSet(res.kind, res.members, res.z_low, math.nextafter(res.z_high, 1.0), {})
    assert res != moved and not res == moved
    tie = classify(ProblemInstance(1, 3, 1, (5**0.5 - 1) / 2))
    assert tie.kind is OptimalKind.TIE_ALL and len({tie, res, other}) == 2


def test_validated_types_keep_their_messages():
    with pytest.raises(ValueError, match="threshold terms must be integers"):
        Threshold(1.0, 2)
    with pytest.raises(ValueError, match="observation counts must be nonnegative"):
        BeliefState(1, 3, -1)
    with pytest.raises(ValueError, match="beta0 must be an integer >= 1"):
        ProblemInstance(1, True, 1, 0.5)
    with pytest.raises(ValueError, match="delta out of range"):
        ProblemInstance(1, 3, 1, 1.0)
    with pytest.raises(ValueError, match="cycle must contain at least one action"):
        Strategy.from_runs([(S, 1)], [(F, 0)])
    with pytest.raises(ValueError, match=r"p_true must lie in \[0, 1\]"):
        GuesserConfig(1.5, 1)
