"""Period-by-period playback of the monitor's belief.

Runs a schedule (or a coin-flipping stand-in for the player) forward,
recording the exact posterior mean each period and stopping the moment
the cutoff is strictly exceeded. The crossing test is the integer slack
of ``belief``, stepped once per period. Randomness comes from
``random.Random(seed)`` with one ``random()`` draw per period compared
against ``p_true``, so trajectories are reproducible across runs and
platforms for a fixed seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from .belief import Action, Threshold, check_delta, check_int, checked, is_real, start_slack
from .strategy import Strategy


class TrajectoryRecord(NamedTuple):
    period: int  # 1-based
    action: Action
    posterior_mean: Fraction  # mean after observing the action
    crossed: bool


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
    # the slack automaton of Threshold.step, inlined, plus the posterior counts
    gain, short = c.num, c.den - c.num
    a, b = alpha0, beta0
    records: list[TrajectoryRecord] = []
    terminated = False
    for period, action in enumerate(action_source, start=1):
        if action is Action.SUCCESS:
            a += 1
            slack -= short
        else:
            b += 1
            slack += gain
        crossed = slack < 0
        records.append(TrajectoryRecord(period, action, Fraction(a, a + b), crossed))
        if crossed:
            terminated = True
            break
    pay = None
    if delta is not None:
        pay = float(
            sum(delta ** (r.period - 1) for r in records if r.action is Action.SUCCESS)
        )
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
    """
    check_int(max_periods, "max_periods", 1)
    traj = _run(alpha0, beta0, c, x.actions(None if x.is_finite else max_periods), delta)
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
    rng = random.Random(guesser.seed)

    def draws():
        while True:
            yield Action.SUCCESS if rng.random() < guesser.p_true else Action.FAILURE

    return _run(alpha0, beta0, c, itertools.islice(draws(), max_periods), delta)
