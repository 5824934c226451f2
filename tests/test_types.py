"""Contracts of the value types: repr text, immutability, equality and
hashing, and the shared rules for a delta and an integer input."""

import argparse
import copy
import math
import pickle
import re
from fractions import Fraction

import pytest

from sandbag import (
    Action,
    BeliefState,
    GuesserConfig,
    LimitExceededError,
    OptimalKind,
    OptimalSet,
    OracleResult,
    OrderingReport,
    ProblemInstance,
    Strategy,
    Threshold,
    Trajectory,
    TrajectoryRecord,
    breakeven_discount,
    classify,
    dp_value,
    exhaustive_best,
    frontier_payoff,
    frontier_strategy,
    parse_strategy,
    payoff,
    play_guesser,
    play_strategy,
    value_iteration,
    verify_ordering,
)
from sandbag import cli
from sandbag.belief import start_slack

S, F = Action.SUCCESS, Action.FAILURE
_OPTIMAL = OptimalSet(OptimalKind.UNIQUE, (2,), 0.5, 0.75, {2: 1.5})
_RECORD = TrajectoryRecord(1, S, 2, 5, False)

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
    (ProblemInstance(1, 5, 2, 0.7), "ProblemInstance(alpha0=1, beta0=5, m=2, delta=0.7)"),
    (
        _OPTIMAL,
        "OptimalSet(kind=<OptimalKind.UNIQUE: 'unique'>, members=(2,), z_low=0.5, "
        "z_high=0.75, payoffs={2: 1.5})",
    ),
    (
        OrderingReport((2,), True),
        "OrderingReport(argmax=(2,), agrees=True)",
    ),
    (
        OracleResult(1.75, (S, S, S)),
        "OracleResult(value=1.75, best_sequence=(<Action.SUCCESS: 's'>, "
        "<Action.SUCCESS: 's'>, <Action.SUCCESS: 's'>))",
    ),
    (
        _RECORD,
        "TrajectoryRecord(period=1, action=<Action.SUCCESS: 's'>, "
        "mean_num=2, mean_den=5, crossed=False)",
    ),
    (
        Trajectory((_RECORD,), False, None),
        "Trajectory(records=(TrajectoryRecord(period=1, action=<Action.SUCCESS: 's'>, "
        "mean_num=2, mean_den=5, crossed=False),), terminated=False, "
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


def test_strategy_expansions_are_read_only():
    x = parse_strategy("ssfs(fs)*")
    assert x.prefix == (S, S, F, S) and x.cycle == (F, S)
    with pytest.raises(AttributeError):
        x.prefix = ()
    assert x.prefix == (S, S, F, S)


def test_record_mean_is_a_read_only_fraction():
    assert _RECORD.posterior_mean == Fraction(2, 5)
    assert type(_RECORD.posterior_mean) is Fraction
    with pytest.raises(AttributeError):
        _RECORD.posterior_mean = Fraction(1, 2)
    assert _RECORD == (1, S, 2, 5, False)


def test_strategy_pickles_the_same_after_its_expansions_are_read():
    # h^1 of Beta(1, 10^6) at cutoff 1/2 is one run of 10^6 successes
    for x in (parse_strategy("ssfs(fs)*"), frontier_strategy(1, 10**6, Threshold(1, 2), 1)):
        before = pickle.dumps(x)
        assert len(x.prefix) == sum(n for _, n in x.prefix_runs) and x.cycle in ((F, S), None)
        assert pickle.dumps(x) == before and pickle.dumps(copy.deepcopy(x)) == before


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
    with pytest.raises(ValueError, match="^threshold numerator must be an integer$"):
        Threshold(1.0, 2)
    with pytest.raises(ValueError, match="^successes must be an integer >= 0$"):
        BeliefState(1, 3, -1)
    with pytest.raises(ValueError, match="^beta0 must be an integer >= 1$"):
        ProblemInstance(1, True, 1, 0.5)
    with pytest.raises(ValueError, match=r"^delta must lie in \[0, 1\)$"):
        ProblemInstance(1, 3, 1, 1.0)
    with pytest.raises(ValueError, match="cycle must contain at least one action"):
        Strategy([(S, 1)], [(F, 0)])
    with pytest.raises(ValueError, match=r"p_true must lie in \[0, 1\]"):
        GuesserConfig(1.5, 1)


# every entry point that takes delta, with valid other arguments; the sim
# ones take None to mean "no payoff", so None is a bad delta only elsewhere
_HALF = Threshold(1, 2)
DELTA_TAKERS = {
    "ProblemInstance": lambda d: ProblemInstance(1, 3, 1, d),
    "payoff": lambda d: payoff(parse_strategy("ss"), d),
    "frontier_payoff": lambda d: frontier_payoff(1, 3, 1, 1, d),
    "exhaustive_best": lambda d: exhaustive_best(1, 3, _HALF, d, 3),
    "dp_value": lambda d: dp_value(1, 3, _HALF, d, 3),
    "value_iteration": lambda d: value_iteration(1, 3, _HALF, d),
    "play_strategy": lambda d: play_strategy(1, 3, _HALF, parse_strategy("sss"), d),
    "play_guesser": lambda d: play_guesser(1, 3, _HALF, GuesserConfig(0.5, 1), d),
}
BAD_DELTAS = [
    (name, bad)
    for name in DELTA_TAKERS
    for bad in (True, False, "0.5", Fraction(1, 2), *([] if name.startswith("play_") else [None]))
]


@pytest.mark.parametrize("name", DELTA_TAKERS)
def test_every_delta_taker_shares_one_check(name):
    """``check_delta`` is the one rule: each taker refuses the same reals
    with the same message and accepts all of [0, 1), its ends included."""
    take = DELTA_TAKERS[name]
    for bad in (-0.1, 1.0, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^delta must lie in \[0, 1\)$"):
            take(bad)
    for good in (0, 0.0, -0.0, 5e-324, math.nextafter(1.0, 0.0)):
        try:
            take(good)
        except LimitExceededError:
            pass  # a cap on the work (value iteration near 1), checked after delta


@pytest.mark.parametrize("name, bad", BAD_DELTAS, ids=[f"{n}-{b!r}" for n, b in BAD_DELTAS])
def test_non_number_delta_is_a_value_error(name, bad):
    # a str or None used to raise TypeError from a float comparison, and
    # payoff took False as 0.0
    with pytest.raises(ValueError, match="delta"):
        DELTA_TAKERS[name](bad)


# every entry point that takes an integer, keyed by site, as (name in the
# message, least value or None, call with that one input varied)
INT_TAKERS = {
    "Threshold-num": ("threshold numerator", None, lambda v: Threshold(v, 2)),
    "Threshold-den": ("threshold denominator", 1, lambda v: Threshold(1, v)),
    "from_m": ("m", 1, Threshold.from_m),
    "start_slack-alpha0": ("alpha0", 1, lambda v: start_slack(v, 3, _HALF)),
    "start_slack-beta0": ("beta0", 1, lambda v: start_slack(1, v, _HALF)),
    "BeliefState-alpha0": ("alpha0", 1, lambda v: BeliefState(v, 3)),
    "BeliefState-beta0": ("beta0", 1, lambda v: BeliefState(1, v)),
    "BeliefState-successes": ("successes", 0, lambda v: BeliefState(1, 3, v)),
    "BeliefState-failures": ("failures", 0, lambda v: BeliefState(1, 3, 0, v)),
    "breakeven_discount": ("n", 1, breakeven_discount),
    "GuesserConfig": ("seed", None, lambda v: GuesserConfig(0.5, v)),
    "play_strategy": ("max_periods", 1, lambda v: play_strategy(
        1, 3, _HALF, parse_strategy("(fs)*"), max_periods=v)),
    "play_guesser": ("max_periods", 1, lambda v: play_guesser(
        1, 3, _HALF, GuesserConfig(0.5, 1), max_periods=v)),
    "exhaustive_best": ("horizon", 0, lambda v: exhaustive_best(1, 3, _HALF, 0.5, v)),
    "dp_value": ("horizon", 0, lambda v: dp_value(1, 3, _HALF, 0.5, v)),
    "verify_ordering": ("n_max", 2, lambda v: verify_ordering(ProblemInstance(1, 3, 1, 0.5), v)),
    "enumerate": ("--max-index", 1, lambda v: cli._cmd_enumerate(
        argparse.Namespace(alpha=1, beta=3, c_num=1, c_den=2, max_index=v))),
    "thresholds": ("--n-max", 1, lambda v: cli._cmd_thresholds(
        argparse.Namespace(n_max=v, tol=1e-12))),
}


@pytest.mark.parametrize("site", INT_TAKERS)
def test_every_int_taker_shares_one_check(site):
    """``check_int`` is the one rule: each taker accepts its least value
    (1 where there is none) and refuses the value below it, a bool, a float,
    a str, None and a 5000-digit negative int, each with the same message,
    which names the input and not its value."""
    name, least, take = INT_TAKERS[site]
    message = f"{name} must be an integer" + ("" if least is None else f" >= {least}")
    try:
        take(1 if least is None else least)
    except ValueError as exc:  # 0 < num < den is the cutoff's own rule, past the int rule
        assert (site, str(exc)) == ("Threshold-den", "threshold must satisfy 0 < num/den < 1")
    bad = [True, float(1 if least is None else least), "1", None]
    if least is not None:
        bad += [least - 1, -(10**5000)]
    for value in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            take(value)


def test_no_message_echoes_a_value():
    """A refused value is named by its type, never by its repr, so a
    5000-digit int gets the rule's message and not Python's limit on
    converting an int to text."""
    huge = 10**5000
    for call, message in [
        (lambda: start_slack(1, 3, huge), "cutoff must be a Threshold, got int"),
        (lambda: Threshold(1, 2).step(0, huge), "outcome must be an Action, got int"),
        (lambda: BeliefState(1, 3).update(huge), "outcome must be an Action, got int"),
        (lambda: Strategy([(huge, 1)]), "run action must be an Action, got int"),
        (lambda: Strategy([(S, -huge)]), "run count must be an integer >= 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


# one value per checked type, with a field, a value that field cannot take,
# and the message its constructor gives for it
CHECKED = [
    (Threshold(1, 2), "num", 5, "threshold must satisfy 0 < num/den < 1"),
    (BeliefState(1, 3), "alpha0", 0, "alpha0 must be an integer >= 1"),
    (BeliefState(1, 3), "failures", True, "failures must be an integer >= 0"),
    (ProblemInstance(1, 3, 1, 0.5), "delta", 7.0, "delta must lie in [0, 1)"),
    (GuesserConfig(0.3, 7), "seed", True, "seed must be an integer"),
    (parse_strategy("ssfs(fs)*"), "cycle_runs", (), "cycle must contain at least one action"),
    (parse_strategy("ssf"), "prefix_runs", (), "finite strategy must contain at least one action"),
]
CHECKED_IDS = [f"{type(value).__name__}-{field}" for value, field, _, _ in CHECKED]


@pytest.mark.parametrize("value, field, bad, message", CHECKED, ids=CHECKED_IDS)
def test_make_and_replace_run_the_check(value, field, bad, message):
    items = [bad if name == field else item for name, item in zip(value._fields, value)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(value)._make(items)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        value._replace(**{field: bad})
    assert type(value)._make(value) == value and value._replace() == value


def test_make_builds_through_the_constructor():
    x = Threshold._make((2, 4))
    assert x == Threshold(1, 2) and repr(x) == "Threshold(num=1, den=2)"
    assert Strategy._make([[(S, 2), (F, 0), (F, 1)], None]) == parse_strategy("ssf")
    assert Strategy._make([[], [(F, 1), (S, 1)]]) == parse_strategy("(fs)*")
    with pytest.raises(ValueError, match="^run action must be an Action, got str$"):
        Strategy._make([[], [(F, 1), ("s", 1)]])


@pytest.mark.parametrize("value", [v for v, _, _, _ in CHECKED], ids=CHECKED_IDS)
def test_checked_value_never_equals_its_plain_tuple(value):
    plain = tuple(value)
    assert value != plain and plain != value
    assert not value == plain and not plain == value
    assert hash(value) == hash(plain) and len({value, plain}) == 2


@pytest.mark.parametrize("value", [v for v, _, _, _ in CHECKED], ids=CHECKED_IDS)
def test_checked_value_survives_pickle_and_copy(value):
    for y in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(y) is type(value) and y == value and hash(y) == hash(value)
        assert repr(y) == repr(value)
