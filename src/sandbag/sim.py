"""Period-by-period playback of the monitor's belief.

Runs a schedule (or a coin-flipping stand-in for the player) forward,
recording the exact posterior mean each period and stopping the moment
the cutoff is strictly exceeded. The crossing test is the integer slack
of ``belief``, stepped once per period. Each record holds its mean as
two coprime ints, ``mean_num`` and ``mean_den``; its ``posterior_mean``
property builds the equal ``Fraction`` when read, so a replay imports
``fractions`` only if a caller asks for one. Randomness comes from
``random.Random(seed)`` with one ``random()`` draw per period compared
against ``p_true``, so trajectories are reproducible across runs and
platforms for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import TYPE_CHECKING, NamedTuple

from .belief import Action, Threshold, check_cap, check_delta, check_int, checked, is_real
from .belief import start_slack
from .strategy import Strategy

if TYPE_CHECKING:
    from fractions import Fraction

# longest finite schedule play_strategy plays; a replay of this many periods
# took about 1.4 s and 190 MB of records
PLAY_LIMIT = 1_000_000


class TrajectoryRecord(NamedTuple):
    period: int  # 1-based
    action: Action
    mean_num: int  # mean after observing the action, mean_num/mean_den in lowest terms
    mean_den: int
    crossed: bool

    @property
    def posterior_mean(self) -> Fraction:
        """The exact posterior mean, ``mean_num/mean_den``."""
        from fractions import Fraction

        return Fraction(self.mean_num, self.mean_den)


class Trajectory(NamedTuple):
    records: tuple[TrajectoryRecord, ...]
    terminated: bool  # monitor quit (cutoff strictly exceeded)
    discounted_payoff: float | None  # only when a delta was supplied

    @property
    def termination_period(self) -> int | None:
        return self.records[-1].period if self.terminated else None


class GuesserConfig(checked("GuesserConfig", "p_true seed")):
    """Stand-in player succeeding i.i.d. with probability p_true."""

    __slots__ = ()

    def __new__(cls, p_true: float, seed: int):
        if not is_real(p_true):
            raise ValueError("p_true must be a number, not a bool")
        if not 0.0 <= p_true <= 1.0:
            raise ValueError("p_true must lie in [0, 1]")
        check_int(seed, "seed")
        return super().__new__(cls, p_true, seed)


def _run(alpha0: int, beta0: int, c: Threshold, action_source, delta: float | None) -> Trajectory:
    """Play a finite ``action_source`` until it crosses or runs out."""
    if delta is not None:
        check_delta(delta)
    slack = start_slack(alpha0, beta0, c)
    # the slack automaton of Threshold.step, inlined, plus the posterior
    # counts: a = alpha0 + successes and n = alpha0 + beta0 + periods
    gain, short = c.num, c.den - c.num
    a, n = alpha0, alpha0 + beta0
    # tuple.__new__ builds each record without the namedtuple's Python-level
    # __new__; the five fields are written in order below
    gcd, new, success = math.gcd, tuple.__new__, Action.SUCCESS
    records: list[TrajectoryRecord] = []
    terminated = False
    for period, action in enumerate(action_source, start=1):
        n += 1
        if action is success:
            a += 1
            slack -= short
        else:
            slack += gain
        crossed = slack < 0
        g = gcd(a, n)
        records.append(new(TrajectoryRecord, (period, action, a // g, n // g, crossed)))
        if crossed:
            terminated = True
            break
    pay = None
    if delta is not None:
        pay = float(sum(delta ** (r.period - 1) for r in records if r.action is success))
    return Trajectory(tuple(records), terminated, pay)


def play_strategy(
    alpha0: int,
    beta0: int,
    c: Threshold,
    x: Strategy,
    delta: float | None = None,
    max_periods: int = 10_000,
) -> Trajectory:
    """Run a schedule forward until it crosses, runs out, or hits the cap.

    ``max_periods``, an int >= 1 for every schedule and checked first,
    caps an infinite schedule, which then stops with ``terminated`` False.
    A finite schedule plays to its own length, even past ``max_periods``,
    and must end on a crossing success; if it is exhausted with the monitor
    still in the game, the schedule is incomplete and a ValueError is raised.
    A finite schedule longer than PLAY_LIMIT raises LimitExceededError
    before any period is played.
    """
    check_int(max_periods, "max_periods", 1)
    if x.is_finite:
        check_cap(x.length, "schedule length", PLAY_LIMIT)
    schedule = itertools.islice(x.actions(), None if x.is_finite else max_periods)
    traj = _run(alpha0, beta0, c, schedule, delta)
    if x.is_finite and not traj.terminated:
        raise ValueError("incomplete strategy: schedule ends before crossing the cutoff")
    return traj


def play_guesser(
    alpha0: int,
    beta0: int,
    c: Threshold,
    guesser: GuesserConfig,
    delta: float | None = None,
    max_periods: int = 10_000,
) -> Trajectory:
    """Run an i.i.d. success/failure source until crossing or the cap."""
    check_int(max_periods, "max_periods", 1)
    # one draw per period, SUCCESS when draw < p_true, with no Python frame
    # per period; operator.lt, as p_true may be the int 0 or 1
    draws = iter(random.Random(guesser.seed).random, None)
    hits = map(operator.lt, draws, itertools.repeat(guesser.p_true))
    actions = map((Action.FAILURE, Action.SUCCESS).__getitem__, hits)
    return _run(alpha0, beta0, c, itertools.islice(actions, max_periods), delta)
