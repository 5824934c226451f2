"""Outcome schedules and the frontier family of candidate optima.

A strategy is a predetermined outcome sequence: either a finite word
over {s, f} whose last action is the success that finally crosses the
cutoff, or an eventually periodic infinite word (prefix plus repeating
cycle) that never crosses. The text form is ``"ssfss"`` for finite
words and ``"ssfs(fs)*"`` for infinite ones.

A schedule is stored as runs, ``((action, count), ...)`` for the prefix
and for the cycle, so a block of 10^5 free successes costs one entry.
The feasibility and greedy checks here, and pricing in ``payoff``, work
run by run; the per-action tuples ``prefix`` and ``cycle`` are expanded
only when read.

The frontier family h^1, h^2, ..., h^inf enumerates the schedules that
hug the suspicion boundary: succeed whenever the posterior stays within
the cutoff afterwards, pad with the fewest failures otherwise, and cash
in the crossing success at the index-th opportunity (never, for the
infinite member).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterable, Iterator, NamedTuple, Union

from .belief import Action, BeliefState, Threshold, check_m, split_slack, start_slack

FamilyIndex = Union[int, float]  # 1, 2, ... or math.inf
Run = tuple[Action, int]  # an action repeated count >= 1 times
_WORD = re.compile("[sf]*")


class StrategyParseError(ValueError):
    """Raised on malformed strategy text; carries a 1-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


def _merge(runs: Iterable[tuple[Action, int]]) -> tuple[Run, ...]:
    """Canonical runs: zero counts dropped, neighbours with equal actions
    joined, so each word has exactly one run form."""
    out: list[list] = []
    for action, count in runs:
        if type(count) is not int or count < 0:
            raise ValueError(f"run count must be a nonnegative integer, got {count!r}")
        if count:
            if type(action) is not Action:
                action = Action(action)
            if out and out[-1][0] is action:
                out[-1][1] += count
            else:
                out.append([action, count])
    return tuple(map(tuple, out))


def _grouped(actions: Iterable[Action]) -> Iterator[tuple[Action, int]]:
    return ((a, len(list(group))) for a, group in itertools.groupby(actions))


def _expand(runs: tuple[Run, ...]) -> Iterator[Action]:
    return itertools.chain.from_iterable(itertools.repeat(a, n) for a, n in runs)


def _slice(runs: Iterable[Run], start: int, stop: int) -> list[Run]:
    """Runs covering positions [start, stop) of the word."""
    out = []
    pos = 0
    for action, count in runs:
        end = pos + count
        if start < end and pos < stop:
            out.append((action, min(stop, end) - max(start, pos)))
        pos = end
    return out


class _Runs(NamedTuple):
    prefix_runs: tuple[Run, ...]
    cycle_runs: tuple[Run, ...] | None


class Strategy(_Runs):
    """Finite or eventually periodic outcome schedule.

    ``Strategy(prefix, cycle)`` takes per-action tuples and
    ``Strategy.from_runs`` takes runs; both store canonical runs, so
    equality and hashing do not depend on the constructor. ``cycle is
    None`` marks a finite strategy; otherwise the schedule is ``prefix``
    followed by ``cycle`` repeated forever. ``prefix`` and ``cycle`` are
    expanded from the runs on first read and then cached.
    """

    def __new__(cls, prefix: Iterable[Action], cycle: Iterable[Action] | None = None):
        return cls.from_runs(_grouped(prefix), None if cycle is None else _grouped(cycle))

    @classmethod
    def from_runs(
        cls,
        prefix_runs: Iterable[tuple[Action, int]],
        cycle_runs: Iterable[tuple[Action, int]] | None = None,
    ) -> "Strategy":
        """Build from ``(action, count)`` runs; zero counts are allowed
        and dropped, and equal neighbours are joined."""
        prefix_runs = _merge(prefix_runs)
        cycle_runs = None if cycle_runs is None else _merge(cycle_runs)
        if cycle_runs is None:
            if not prefix_runs:
                raise ValueError("finite strategy must contain at least one action")
        elif not cycle_runs:
            raise ValueError("cycle must contain at least one action")
        return super().__new__(cls, prefix_runs, cycle_runs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return Strategy.from_runs, tuple(self)

    @functools.cached_property
    def prefix(self) -> tuple[Action, ...]:
        return tuple(_expand(self.prefix_runs))

    @functools.cached_property
    def cycle(self) -> tuple[Action, ...] | None:
        return None if self.cycle_runs is None else tuple(_expand(self.cycle_runs))

    @property
    def is_finite(self) -> bool:
        return self.cycle_runs is None

    @property
    def length(self) -> int | None:
        """Number of periods for finite strategies, None for infinite ones."""
        return sum(n for _, n in self.prefix_runs) if self.cycle_runs is None else None

    def actions(self, limit: int | None = None) -> Iterator[Action]:
        """Yield the schedule in order; ``limit`` bounds infinite ones."""
        seq = _expand(self.prefix_runs)
        if self.cycle_runs is not None:
            seq = itertools.chain(seq, itertools.cycle(_expand(self.cycle_runs)))
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
    i = _WORD.match(text).end()
    prefix = text[:i]
    if i == len(text):
        return Strategy.from_runs(_grouped(prefix))
    if text[i] != "(":
        raise StrategyParseError(f"unexpected character {text[i]!r}", i + 1)
    j = _WORD.match(text, i + 1).end()
    cycle = text[i + 1 : j]
    i = j
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
    return Strategy.from_runs(_grouped(prefix), _grouped(cycle))


def format_strategy(x: Strategy) -> str:
    """Inverse of parse_strategy."""
    head = "".join(a.value * n for a, n in x.prefix_runs)
    if x.cycle_runs is None:
        return head
    return f"{head}({''.join(a.value * n for a, n in x.cycle_runs)})*"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _walk(slack: int, runs: Iterable[Run], c: Threshold) -> int | None:
    """Slack after ``runs``, or None if it goes negative on the way. A run
    moves the slack one way only, so a success run is lowest at its end."""
    for action, n in runs:
        slack = c.step(slack, action, n)
        if slack < 0:
            return None
    return slack


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
    if x.cycle_runs is None:
        *head, (last, n) = x.prefix_runs
        return _walk(slack, [*head, (last, n - 1)], c) is not None
    slack = _walk(slack, x.prefix_runs, c)
    if slack is None:
        return False
    # one full cycle must stay within, and the net drift per cycle must be
    # nonnegative, else some later repetition dips below zero
    cycle_slack = _walk(slack, x.cycle_runs, c)
    return cycle_slack is not None and cycle_slack >= slack


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
    cycle_start = cycle_pos = 0
    fails: list[tuple[int, int, int]] = []  # cycle failure runs: (offset, slack before, length)
    for in_cycle, runs in ((False, x.prefix_runs), (True, x.cycle_runs or ())):
        if in_cycle:
            cycle_start, cycle_pos = slack, pos
        for action, n in runs:
            if action is Action.FAILURE:
                # the j-th failure of the run leaves slack + j*num
                first = max(1, _ceil_div(bar - slack, c.num))
                out.extend(range(pos + first, pos + n + 1))
                if in_cycle:
                    fails.append((pos - cycle_pos, slack, n))
            slack = c.step(slack, action, n)
            pos += n
    drift = slack - cycle_start
    if x.cycle_runs is None or out or drift <= 0:
        return out
    period = pos - cycle_pos
    candidates = []
    for off, before, n in fails:
        # each later cycle adds drift to every slack. The run's last failure
        # needs the fewest repetitions j, and one repetition less saves a
        # whole period, more than any shift within the run; so take that j
        # and the earliest failure i of the run that reaches the bar in it
        j = max(1, _ceil_div(bar - before - n * c.num, drift))
        i = max(1, _ceil_div(bar - before - j * drift, c.num))
        candidates.append(cycle_pos + j * period + off + i)
    out.append(min(candidates))
    return out


class Decomposition(NamedTuple):
    """Division of the prior failure weight by the cutoff period.

    For c = 1/(m+1), writes beta0 = m*r + k with 0 <= k < m, r >= 1.
    """

    m: int
    r: int
    k: int


def decompose(beta0: int, m: int) -> Decomposition:
    check_m(m)
    if type(beta0) is not int or beta0 < 1:
        raise ValueError("beta0 must be an integer >= 1")
    r, k = divmod(beta0, m)
    if r < 1:
        raise ValueError("beta0 must be at least m")
    return Decomposition(m, r, k)


def second_frontier_closed_form(alpha0: int, beta0: int, m: int) -> Strategy:
    """Closed-form h^2 for cutoff 1/(m+1) and prior slack m*q + k: q
    successes, (m-k) failures, then two successes, the last crossing."""
    q, k = split_slack(alpha0, beta0, m)
    return Strategy.from_runs([(Action.SUCCESS, q), (Action.FAILURE, m - k), (Action.SUCCESS, 2)])


def check_index(index: FamilyIndex) -> None:
    """Reject anything but an int >= 1 or math.inf (so no bool or 1.0)."""
    if index != math.inf and (type(index) is not int or index < 1):
        raise ValueError("index must be a positive integer or math.inf")


def frontier_strategy(alpha0: int, beta0: int, c: Threshold, index: FamilyIndex) -> Strategy:
    """Member h^index of the frontier family.

    Succeeds whenever the resulting posterior stays within the cutoff,
    otherwise pads with the fewest failures that make the next success
    affordable. The finite member h^i spends the crossing success at the
    i-th such opportunity; h^inf declines them all and is returned as a
    prefix through the first success after the first failure, plus the
    shortest cycle. The walk emits one run per block, so its cost is the
    number of blocks, not the word length.
    """
    check_index(index)
    slack = start_slack(alpha0, beta0, c.num, c.den)
    short = c.den - c.num
    runs: list[Run] = []
    pos = 0  # word length so far
    seen: dict[int, int] = {}  # h^inf: slack at each opportunity -> pos there
    opportunities = 0
    # one block per pass: the free successes, then an opportunity (slack < short)
    while True:
        free, slack = divmod(slack, short)
        runs.append((Action.SUCCESS, free))
        pos += free
        opportunities += 1
        if opportunities == index:
            runs.append((Action.SUCCESS, 1))  # the crossing success
            return Strategy.from_runs(runs)
        if index == math.inf:
            if slack in seen:
                break
            seen[slack] = pos
        pad = c.padding(slack)
        if opportunities == 1:
            # h^inf's head ends at the free success after this padding (at
            # least one failure, as slack < short here)
            head = pos + pad + 1
        runs.append((Action.FAILURE, pad))
        pos += pad
        slack += pad * c.num

    # From the first opportunity on, slack stays in [0, den), where the step
    # is a bijection, so the word is periodic from there with the period just
    # found; the cycle is that period read from the end of the head.
    start = seen[slack]
    turn = start + (head - start) % (pos - start)
    cycle = _slice(runs, turn, pos) + _slice(runs, start, turn)
    return Strategy.from_runs(_slice(runs, 0, head), cycle)
