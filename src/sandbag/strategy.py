"""Outcome schedules and the frontier family of candidate optima.

A strategy is a predetermined outcome sequence: either a finite word
over {s, f} whose last action is the success that finally crosses the
cutoff, or an eventually periodic infinite word (prefix plus repeating
cycle) that never crosses. The text form is ``"ssfss"`` for finite
words and ``"ssfs(fs)*"`` for infinite ones.

The frontier family h^1, h^2, ..., h^inf enumerates the schedules that
hug the suspicion boundary: succeed whenever the posterior stays within
the cutoff afterwards, pad with the fewest failures otherwise, and cash
in the crossing success at the index-th opportunity (never, for the
infinite member).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Union

from .belief import Action, BeliefState, Threshold

FamilyIndex = Union[int, float]  # 1, 2, ... or math.inf


class StrategyParseError(ValueError):
    """Raised on malformed strategy text; carries a 1-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Strategy:
    """Finite or eventually periodic outcome schedule.

    ``cycle is None`` marks a finite strategy; otherwise the schedule is
    ``prefix`` followed by ``cycle`` repeated forever.
    """

    prefix: tuple[Action, ...]
    cycle: tuple[Action, ...] | None = None

    def __post_init__(self) -> None:
        if self.cycle is None:
            if not self.prefix:
                raise ValueError("finite strategy must contain at least one action")
        elif not self.cycle:
            raise ValueError("cycle must contain at least one action")

    @property
    def is_finite(self) -> bool:
        return self.cycle is None

    @property
    def length(self) -> int | None:
        """Number of periods for finite strategies, None for infinite ones."""
        return len(self.prefix) if self.cycle is None else None

    def actions(self, limit: int | None = None) -> Iterator[Action]:
        """Yield the schedule in order; ``limit`` bounds infinite ones."""
        if self.cycle is None:
            seq: Iterator[Action] = iter(self.prefix)
        else:
            seq = itertools.chain(self.prefix, itertools.cycle(self.cycle))
        return seq if limit is None else itertools.islice(seq, limit)

    def __str__(self) -> str:
        return format_strategy(self)


def parse_strategy(text: str) -> Strategy:
    """Parse ``"ssfss"`` or ``"ssfs(fs)*"`` into a Strategy.

    Rejects empty input, stray characters, and malformed cycle syntax,
    reporting the 1-based offending position.
    """
    if not text:
        raise StrategyParseError("empty strategy text", 1)
    by_char = {a.value: a for a in Action}
    prefix: list[Action] = []
    i = 0
    while i < len(text) and text[i] in by_char:
        prefix.append(by_char[text[i]])
        i += 1
    if i == len(text):
        return Strategy(tuple(prefix))
    if text[i] != "(":
        raise StrategyParseError(f"unexpected character {text[i]!r}", i + 1)
    i += 1
    cycle: list[Action] = []
    while i < len(text) and text[i] in by_char:
        cycle.append(by_char[text[i]])
        i += 1
    if i == len(text) or text[i] != ")":
        pos = i + 1
        if i < len(text):
            raise StrategyParseError(f"unexpected character {text[i]!r} in cycle", pos)
        raise StrategyParseError("unterminated cycle", pos)
    if not cycle:
        raise StrategyParseError("empty cycle", i + 1)
    i += 1
    if i == len(text) or text[i] != "*":
        raise StrategyParseError("cycle must be followed by '*'", i + 1)
    if i + 1 != len(text):
        raise StrategyParseError("trailing characters after cycle", i + 2)
    return Strategy(tuple(prefix), tuple(cycle))


def format_strategy(x: Strategy) -> str:
    """Inverse of parse_strategy."""
    head = "".join(a.value for a in x.prefix)
    if x.cycle is None:
        return head
    return f"{head}({''.join(a.value for a in x.cycle)})*"


def is_feasible(x: Strategy, alpha0: int, beta0: int, c: Threshold) -> bool:
    """Whether the monitor stays through every period the schedule needs.

    Finite schedules may (and for validity must) cross on their final
    action; every earlier point, including the start, has to stay within
    the cutoff. Infinite schedules must stay within forever, which is
    decided exactly from the per-cycle slack drift.
    """
    slack = BeliefState(alpha0, beta0).slack(c)
    if slack < 0:
        return False
    if x.cycle is None:
        for action in x.prefix[:-1]:
            slack = c.step(slack, action)
            if slack < 0:
                return False
        return True
    for action in x.prefix:
        slack = c.step(slack, action)
        if slack < 0:
            return False
    # one full cycle must stay within, and the net drift per cycle must be
    # nonnegative, else some later repetition dips below zero
    cycle_slack = slack
    for action in x.cycle:
        cycle_slack = c.step(cycle_slack, action)
        if cycle_slack < 0:
            return False
    return cycle_slack >= slack


def greedy_violations(x: Strategy, alpha0: int, beta0: int, c: Threshold) -> list[int]:
    """1-based failure positions where flipping that failure to a success
    would still leave the posterior within the cutoff.

    An empty list means the schedule is greedy: it only fails when a
    success would cross. The check is mechanical and does not assume the
    schedule is feasible. For infinite schedules the scan covers the
    prefix and first cycle; when the slack drifts upward and that scan
    was clean, the earliest violating position in a later cycle is
    appended, so the result is empty iff no violation exists anywhere.
    """
    bar = c.den  # flip test: slack after the failure >= den
    out: list[int] = []
    slack = BeliefState(alpha0, beta0).slack(c)
    pos = 0
    for action in x.prefix:
        pos += 1
        slack = c.step(slack, action)
        if action is Action.FAILURE and slack >= bar:
            out.append(pos)
    if x.cycle is None:
        return out
    cycle_start = slack
    offsets: list[tuple[int, int]] = []  # (offset within cycle, slack after)
    for off, action in enumerate(x.cycle):
        pos += 1
        slack = c.step(slack, action)
        if action is Action.FAILURE:
            offsets.append((off, slack))
            if slack >= bar:
                out.append(pos)
    drift = slack - cycle_start
    if not out and drift > 0 and offsets:
        first = None
        for off, s_after in offsets:
            # smallest rep j >= 1 with s_after + j*drift >= bar
            j = max(1, -((s_after - bar) // drift))
            candidate = len(x.prefix) + j * len(x.cycle) + off + 1
            if first is None or candidate < first:
                first = candidate
        if first is not None:
            out.append(first)
    return out


@dataclass(frozen=True)
class Decomposition:
    """Division of the prior failure weight by the cutoff period.

    For c = 1/(m+1), writes beta0 = m*r + k with 0 <= k < m, r >= 1.
    """

    m: int
    r: int
    k: int


def decompose(beta0: int, m: int) -> Decomposition:
    if m < 1:
        raise ValueError("m must be a positive integer")
    if beta0 < 1:
        raise ValueError("beta0 must be a positive integer")
    r, k = divmod(beta0, m)
    if r < 1:
        raise ValueError("beta0 must be at least m")
    return Decomposition(m, r, k)


def second_frontier_closed_form(alpha0: int, beta0: int, m: int) -> Strategy:
    """Closed-form h^2 for cutoff 1/(m+1): (r-alpha0) successes, (m-k)
    failures, then two successes, the last of which crosses."""
    dec = decompose(beta0, m)
    if dec.r < alpha0:
        raise ValueError("initial prior already exceeds threshold")
    word = (
        [Action.SUCCESS] * (dec.r - alpha0)
        + [Action.FAILURE] * (dec.m - dec.k)
        + [Action.SUCCESS, Action.SUCCESS]
    )
    return Strategy(tuple(word))


def frontier_strategy(alpha0: int, beta0: int, c: Threshold, index: FamilyIndex) -> Strategy:
    """Member h^index of the frontier family.

    Succeeds whenever the resulting posterior stays within the cutoff,
    otherwise pads with the fewest failures that make the next success
    affordable. The finite member h^i spends the crossing success at the
    i-th such opportunity; h^inf declines them all and is returned as a
    prefix through the first success after the first failure, plus the
    shortest cycle.
    """
    if index != math.inf and (not isinstance(index, int) or index < 1):
        raise ValueError("index must be a positive integer or math.inf")
    slack = BeliefState(alpha0, beta0).slack(c)
    if slack < 0:
        raise ValueError("initial prior already exceeds threshold")
    short = c.den - c.num
    word: list[Action] = []
    seen: dict[int, int] = {}  # h^inf: slack at each opportunity -> len(word) there
    opportunities = 0
    # one block per pass: the free successes, then an opportunity (slack < short)
    while True:
        free, slack = divmod(slack, short)
        word += [Action.SUCCESS] * free
        opportunities += 1
        if opportunities == index:
            word.append(Action.SUCCESS)  # the crossing success
            return Strategy(tuple(word))
        if index == math.inf:
            if slack in seen:
                break
            seen[slack] = len(word)
        pad = c.padding(slack)
        word += [Action.FAILURE] * pad
        slack += pad * c.num

    # From the first opportunity on, slack stays in [0, den), where the step
    # is a bijection, so the word is periodic from there with the period just
    # found; the cycle is that period read from the end of the head. The
    # first failure starts the padding at the first opportunity.
    period = word[seen[slack] :]
    head = word.index(Action.SUCCESS, min(seen.values())) + 1
    turn = (head - seen[slack]) % len(period)
    return Strategy(tuple(word[:head]), tuple(period[turn:] + period[:turn]))
