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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class Action(str, Enum):
    """One period's observable outcome."""

    SUCCESS = "s"
    FAILURE = "f"

    def __str__(self) -> str:  # keep "".join(...) and f-strings terse
        return self.value


@dataclass(frozen=True)
class Threshold:
    """Rational suspicion cutoff ``c = num / den`` with 0 < c < 1.

    Stored in lowest terms; construction reduces the ratio.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("threshold denominator must be positive")
        if not 0 < self.num < self.den:
            raise ValueError("threshold must satisfy 0 < num/den < 1")
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def from_m(cls, m: int) -> "Threshold":
        """Cutoff of the form 1/(m+1) for integer m >= 1."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        return cls(1, m + 1)

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def step(self, slack: int, outcome: Action) -> int:
        """Slack (see ``BeliefState.slack``) after one more outcome: a
        success uses up ``den - num``, a failure adds ``num``."""
        if outcome is Action.SUCCESS:
            return slack - (self.den - self.num)
        return slack + self.num

    def padding(self, slack: int) -> int:
        """Fewest failures after which one more success keeps the slack
        nonnegative: ceil((den - num - slack) / num), or 0 when a success
        is already affordable."""
        need = self.den - self.num - slack
        return -(-need // self.num) if need > 0 else 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class BeliefState:
    """Monitor's posterior: Beta(alpha0 + successes, beta0 + failures)."""

    alpha0: int
    beta0: int
    successes: int = 0
    failures: int = 0

    def __post_init__(self) -> None:
        if self.alpha0 < 1 or self.beta0 < 1:
            raise ValueError("prior pseudo-counts must be integers >= 1")
        if self.successes < 0 or self.failures < 0:
            raise ValueError("observation counts must be nonnegative")

    @property
    def posterior_mean(self) -> Fraction:
        """Exact posterior mean of the success probability."""
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
