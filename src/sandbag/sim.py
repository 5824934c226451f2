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

import random
from fractions import Fraction
from typing import NamedTuple

from .belief import Action, Threshold, check_delta, start_slack
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


class _Guesser(NamedTuple):
    p_true: float
    seed: int


class GuesserConfig(_Guesser):
    """Stand-in player succeeding i.i.d. with probability p_true."""

    __slots__ = ()

    def __new__(cls, p_true: float, seed: int):
        if isinstance(p_true, bool) or not isinstance(p_true, (int, float)):
            raise ValueError("p_true must be a number, not a bool")
        if not 0.0 <= p_true <= 1.0:
            raise ValueError("p_true must lie in [0, 1]")
        if type(seed) is not int:
            raise ValueError("seed must be an integer")  # bools too
        return super().__new__(cls, p_true, seed)


def _check_max_periods(max_periods: int) -> None:
    if type(max_periods) is not int:
        raise ValueError("max_periods must be an integer")  # bools too
    if max_periods < 1:
        raise ValueError("max_periods must be at least 1")


def _run(
    alpha0: int,
    beta0: int,
    c: Threshold,
    action_source,
    delta: float | None,
    max_periods: int,
) -> Trajectory:
    if delta is not None:
        check_delta(delta)
    slack = start_slack(alpha0, beta0, c.num, c.den)
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
        if period >= max_periods:
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

    A finite schedule must end on a crossing success; if it is exhausted
    with the monitor still in the game, the schedule is incomplete and a
    ValueError is raised. ``max_periods`` caps infinite schedules only,
    which then stop with ``terminated`` False.
    """
    _check_max_periods(max_periods)
    cap = x.length if x.is_finite else max_periods
    traj = _run(alpha0, beta0, c, x.actions(limit=cap), delta, cap)
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
    _check_max_periods(max_periods)
    rng = random.Random(guesser.seed)

    def draws():
        while True:
            yield Action.SUCCESS if rng.random() < guesser.p_true else Action.FAILURE

    return _run(alpha0, beta0, c, draws(), delta, max_periods)
