"""Beta-Bernoulli belief tracking against a suspicion cutoff.

The monitor starts from a Beta(alpha0, beta0) prior over the player's
per-period success probability and updates it after every observed
outcome. She walks away for good the first time the posterior mean
strictly exceeds a cutoff ``c``; a mean exactly equal to ``c`` keeps the
game alive. All comparisons here are done in exact integer arithmetic
so boundary cases never depend on floating point.
"""

from __future__ import annotations

import collections
import math
import sys
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


# Most q, m, n, schedule length or member crossing period the closed forms
# price. With q and m capped, the largest int that h^1..h^3 and h^inf turn
# into a float is h^3's crossing period, at most q + 2m + 2 <= 3*10**307 + 2,
# below float max (about 1.8e308); ``frontier_payoff`` caps a later
# member's crossing period itself, so no conversion overflows.
PRICE_LIMIT = 10**307


class LimitExceededError(RuntimeError):
    """An input is beyond a hard size cap."""


def check_cap(need: int, name: str, limit: int) -> None:
    """Refuse work of size ``need`` over ``limit``: the one rule for a hard
    size cap and the only code that raises ``LimitExceededError``. The
    message names the cap and never formats ``need``, which may be past
    float range or past the digits an int may print."""
    if need > limit:
        raise LimitExceededError(f"{name} must be at most {limit}")


class Action(str, Enum):
    """One period's observable outcome."""

    SUCCESS = "s"
    FAILURE = "f"

    def __str__(self) -> str:  # keep "".join(...) and f-strings terse
        return self.value


def checked(typename: str, fields: str) -> type:
    """Namedtuple base for a value type that checks its fields in ``__new__``:
    ``_make`` and ``_replace`` build through that constructor, and a value
    equals only values of its own type (the hash stays the tuple hash)."""

    class Checked(collections.namedtuple(typename, fields)):
        __slots__ = ()

        @classmethod
        def _make(cls, iterable):
            return cls(*iterable)

        def __eq__(self, other):
            return type(other) is type(self) and tuple.__eq__(self, other)

        def __ne__(self, other):
            return type(other) is not type(self) or tuple.__ne__(self, other)

        __hash__ = tuple.__hash__

    return Checked


class Threshold(checked("Threshold", "num den")):
    """Rational suspicion cutoff ``c = num / den`` with 0 < c < 1.

    Stored in lowest terms; construction reduces the ratio.
    """

    __slots__ = ()

    def __new__(cls, num: int, den: int):
        check_int(num, "threshold numerator")
        check_int(den, "threshold denominator", 1)
        if not 0 < num < den:
            raise ValueError("threshold must satisfy 0 < num/den < 1")
        g = math.gcd(num, den)
        return super().__new__(cls, num // g, den // g)

    @classmethod
    def from_m(cls, m: int) -> "Threshold":
        """Cutoff 1/(m+1), and the one check that the cutoff period m is an
        int >= 1 (no bool, no 2.0)."""
        check_int(m, "m", 1)
        return cls(1, m + 1)

    def step(self, slack: int, outcome: Action, count: int = 1) -> int:
        """Slack (see ``start_slack``) after ``count`` more of one outcome:
        a success uses up ``den - num``, a failure adds ``num``. Any
        outcome but an ``Action`` is refused, the text "s" too."""
        if outcome is Action.SUCCESS:
            return slack - count * (self.den - self.num)
        if outcome is Action.FAILURE:
            return slack + count * self.num
        raise ValueError(f"outcome must be an Action, got {type(outcome).__name__}")

    def padding(self, slack: int) -> int:
        """Fewest failures after which one more success keeps the slack
        nonnegative: ceil((den - num - slack) / num), or 0 when a success
        is already affordable."""
        need = self.den - self.num - slack
        return -(-need // self.num) if need > 0 else 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def check_delta(delta: float, name: str = "delta") -> None:
    """Require a real 0 <= delta < 1, the one rule for a discount factor
    (``name`` names it in the message): at delta = 1 an infinite schedule
    has no finite value, and finite ones are kept under the same contract."""
    if not (is_real(delta) and 0.0 <= delta < 1.0):
        raise ValueError(f"{name} must lie in [0, 1)")


def check_int(value: int, name: str, least: int | None = None) -> None:
    """Require a plain int (no bool, float or int subclass), >= ``least``
    when given: the one rule for a count, index, horizon or size. The
    message names the input and never echoes its value."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}")


def start_slack(alpha0: int, beta0: int, c: Threshold) -> int:
    """The slack num*(beta0+F) - (den-num)*(alpha0+S) of Beta(alpha0, beta0)
    at cutoff ``c = num/den`` after S successes and F failures has the sign
    of c - posterior mean; this is its start, at S = F = 0, and the one door
    from a prior to a walk's slack: ValueError for a prior beyond the cutoff
    or a ``c`` that is not a ``Threshold``. For cutoff 1/(m+1) it is
    m*q + k, q being the free successes that open play."""
    check_int(alpha0, "alpha0", 1)
    check_int(beta0, "beta0", 1)
    if type(c) is not Threshold:
        raise ValueError(f"cutoff must be a Threshold, got {type(c).__name__}")
    slack = c.num * beta0 - (c.den - c.num) * alpha0
    if slack < 0:
        raise ValueError("prior mean exceeds threshold")
    return slack


def is_real(x) -> bool:
    """Whether ``x`` may stand for a real input: an int or float, not a bool
    (so no str, None or Fraction reaches a float comparison). A plain float
    is decided first, as it is the usual case on the pricing paths."""
    return type(x) is float or (type(x) is not bool and isinstance(x, (int, float)))


def check_tol(tol: float, name: str, positive: bool = False) -> None:
    """Require a real tolerance a float can hold, > 0 if ``positive`` else
    >= 0; an int beyond float range is refused here, not left to overflow."""
    if not (is_real(tol) and (tol > 0 if positive else tol >= 0) and tol <= sys.float_info.max):
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'} and finite")


def split_slack(alpha0: int, beta0: int, m: int) -> tuple[int, int]:
    """(q, k) with ``start_slack`` at cutoff ``Threshold.from_m(m)`` equal to
    m*q + k, 0 <= k < m; m and the prior are checked there, and m and q
    are then capped at ``PRICE_LIMIT``."""
    q, k = divmod(start_slack(alpha0, beta0, Threshold.from_m(m)), m)
    check_cap(m, "m", PRICE_LIMIT)
    check_cap(q, "free successes q", PRICE_LIMIT)
    return q, k


class BeliefState(checked("BeliefState", "alpha0 beta0 successes failures")):
    """Monitor's posterior: Beta(alpha0 + successes, beta0 + failures)."""

    __slots__ = ()

    def __new__(cls, alpha0: int, beta0: int, successes: int = 0, failures: int = 0):
        check_int(alpha0, "alpha0", 1)
        check_int(beta0, "beta0", 1)
        check_int(successes, "successes", 0)
        check_int(failures, "failures", 0)
        return super().__new__(cls, alpha0, beta0, successes, failures)

    @property
    def posterior_mean(self) -> Fraction:
        """Exact posterior mean of the success probability."""
        from fractions import Fraction

        a = self.alpha0 + self.successes
        b = self.beta0 + self.failures
        return Fraction(a, a + b)

    def update(self, outcome: Action) -> "BeliefState":
        """New state after observing one outcome. Any outcome but an
        ``Action`` is refused, the text "s" too, as in ``Threshold.step``."""
        if outcome is Action.SUCCESS:
            return BeliefState(self.alpha0, self.beta0, self.successes + 1, self.failures)
        if outcome is Action.FAILURE:
            return BeliefState(self.alpha0, self.beta0, self.successes, self.failures + 1)
        raise ValueError(f"outcome must be an Action, got {type(outcome).__name__}")

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
