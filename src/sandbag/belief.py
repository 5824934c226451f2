"""Beta-Bernoulli belief tracking against a suspicion cutoff.

The monitor starts from a Beta(alpha0, beta0) prior over the player's
per-period success probability and updates it after every observed
outcome. She walks away for good the first time the posterior mean
strictly exceeds a cutoff ``c``; a mean exactly equal to ``c`` keeps the
game alive. All comparisons here are done in exact integer arithmetic
so boundary cases never depend on floating point.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction


class LimitExceededError(RuntimeError):
    """An input is beyond a hard size cap."""


class Action(str, Enum):
    """One period's observable outcome."""

    SUCCESS = "s"
    FAILURE = "f"

    def __str__(self) -> str:  # keep "".join(...) and f-strings terse
        return self.value


class _Ratio(NamedTuple):
    num: int
    den: int


class Threshold(_Ratio):
    """Rational suspicion cutoff ``c = num / den`` with 0 < c < 1.

    Stored in lowest terms; construction reduces the ratio.
    """

    __slots__ = ()

    def __new__(cls, num: int, den: int):
        if type(num) is not int or type(den) is not int:
            raise ValueError("threshold terms must be integers")
        if den <= 0:
            raise ValueError("threshold denominator must be positive")
        if not 0 < num < den:
            raise ValueError("threshold must satisfy 0 < num/den < 1")
        g = math.gcd(num, den)
        return super().__new__(cls, num // g, den // g)

    @classmethod
    def from_m(cls, m: int) -> "Threshold":
        """Cutoff of the form 1/(m+1) for integer m >= 1."""
        check_m(m)
        return cls(1, m + 1)

    @property
    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num, self.den)

    def step(self, slack: int, outcome: Action, count: int = 1) -> int:
        """Slack (see ``BeliefState.slack``) after ``count`` more of one
        outcome: a success uses up ``den - num``, a failure adds ``num``."""
        if outcome is Action.SUCCESS:
            return slack - count * (self.den - self.num)
        return slack + count * self.num

    def padding(self, slack: int) -> int:
        """Fewest failures after which one more success keeps the slack
        nonnegative: ceil((den - num - slack) / num), or 0 when a success
        is already affordable."""
        need = self.den - self.num - slack
        return -(-need // self.num) if need > 0 else 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def check_delta(delta: float) -> None:
    """Require 0 <= delta < 1: at delta = 1 an infinite schedule has no
    finite value, and finite ones are kept under the same contract."""
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")


def _check_prior(alpha0: int, beta0: int) -> None:
    if type(alpha0) is not int or type(beta0) is not int or alpha0 < 1 or beta0 < 1:
        raise ValueError("prior pseudo-counts must be integers >= 1")  # bools too


def start_slack(alpha0: int, beta0: int, num: int, den: int) -> int:
    """``BeliefState.slack`` of the prior Beta(alpha0, beta0) at cutoff num/den,
    and the one check that the prior starts within it (ValueError if not).
    For cutoff 1/(m+1) it is m*q + k, q being the free successes that open play."""
    _check_prior(alpha0, beta0)
    if not 0 < num < den:
        raise ValueError("threshold must satisfy 0 < num/den < 1")
    slack = num * beta0 - (den - num) * alpha0
    if slack < 0:
        raise ValueError("prior mean exceeds threshold")
    return slack


def check_m(m: int) -> None:
    """Require the cutoff period m of 1/(m+1) to be an int >= 1 (no bool, no 2.0)."""
    if type(m) is not int or m < 1:
        raise ValueError("m must be an integer >= 1")


def split_slack(alpha0: int, beta0: int, m: int) -> tuple[int, int]:
    """(q, k) with ``start_slack`` at cutoff 1/(m+1) equal to m*q + k, 0 <= k < m."""
    check_m(m)
    return divmod(start_slack(alpha0, beta0, 1, m + 1), m)


class _Counts(NamedTuple):
    alpha0: int
    beta0: int
    successes: int = 0
    failures: int = 0


class BeliefState(_Counts):
    """Monitor's posterior: Beta(alpha0 + successes, beta0 + failures)."""

    __slots__ = ()

    def __new__(cls, alpha0: int, beta0: int, successes: int = 0, failures: int = 0):
        _check_prior(alpha0, beta0)
        if successes < 0 or failures < 0:
            raise ValueError("observation counts must be nonnegative")
        return super().__new__(cls, alpha0, beta0, successes, failures)

    @property
    def posterior_mean(self) -> Fraction:
        """Exact posterior mean of the success probability."""
        from fractions import Fraction

        a = self.alpha0 + self.successes
        b = self.beta0 + self.failures
        return Fraction(a, a + b)

    def update(self, outcome: Action) -> "BeliefState":
        """New state after observing one outcome."""
        if outcome is Action.SUCCESS or outcome == Action.SUCCESS.value:
            return BeliefState(self.alpha0, self.beta0, self.successes + 1, self.failures)
        if outcome is Action.FAILURE or outcome == Action.FAILURE.value:
            return BeliefState(self.alpha0, self.beta0, self.successes, self.failures + 1)
        raise ValueError(f"unknown outcome: {outcome!r}")

    def within_threshold(self, c: Threshold) -> bool:
        """True while the monitor keeps playing: posterior mean <= c.

        Equality sits on the boundary and counts as within; the monitor
        only quits on a strict crossing.
        """
        return self.slack(c) >= 0

    def slack(self, c: Threshold) -> int:
        """Integer margin to the cutoff; nonnegative iff within threshold.

        Defined as num*(beta0+failures) - (den-num)*(alpha0+successes),
        which has the sign of c - posterior_mean. ``Threshold.step``
        advances it by one outcome.
        """
        a = self.alpha0 + self.successes
        b = self.beta0 + self.failures
        return c.num * b - (c.den - c.num) * a

    def min_failures_for_next_success(self, c: Threshold) -> int:
        """Fewest failures to log before one more success keeps the mean within c.

        Returns 0 when a success is already affordable from this state.
        """
        return c.padding(self.slack(c))
