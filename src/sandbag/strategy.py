"""Outcome schedules and the frontier family of candidate optima.

A strategy is a predetermined outcome sequence: either a finite word
over {s, f} whose last action is the success that finally crosses the
cutoff, or an eventually periodic infinite word (prefix plus repeating
cycle) that never crosses. The text form is ``"ssfss"`` for finite
words and ``"ssfs(fs)*"`` for infinite ones.

A schedule is stored as runs, ``((action, count), ...)`` for the prefix
and for the cycle, so a block of 10^5 free successes costs one entry.
``Strategy(prefix_runs, cycle_runs)`` is the only constructor, and
``_runs`` turns a word's text into runs for ``parse_strategy``. The
feasibility and greedy checks here, and pricing in ``payoff``, work run
by run; the per-action tuples ``prefix`` and ``cycle`` are expanded on
each read and never stored.

The frontier family h^1, h^2, ..., h^inf enumerates the schedules that
hug the suspicion boundary: succeed whenever the posterior stays within
the cutoff afterwards, pad with the fewest failures otherwise, and cash
in the crossing success at the index-th opportunity (never, for the
infinite member). The generator ``_opportunities`` is the family's only
walk: ``frontier_strategy`` reads it for each member, and the
``enumerate`` command reads it once for the whole table. h^inf is a head
and then exactly den actions repeated; ``_infinite_parts`` alone reads
that off the walk, as the head's counts and the cycle's run lengths,
which ``frontier_strategy`` pairs with their actions and ``enumerate``
prints.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterable, Iterator, Union

from .belief import Action, Threshold, check_cap, checked, start_slack

FamilyIndex = Union[int, float]  # 1, 2, ... or math.inf
Run = tuple[Action, int]  # an action repeated count >= 1 times
_WORD = re.compile("[sf]*")
_RUN = re.compile("s+|f+")
_ACTION = {a.value: a for a in Action}
# most blocks of the walk one frontier_strategy reads; h^(10**6) of Beta(1, 3)
# at cutoff 1/2 reads this many and took about 3 s and 320 MB
WALK_LIMIT = 1_000_000


class StrategyParseError(ValueError):
    """Raised on malformed strategy text; carries a 1-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


def _merge(runs: Iterable[Run]) -> tuple[Run, ...]:
    """Canonical runs: zero counts dropped, neighbours with equal actions
    joined, so each word has exactly one run form."""
    out: list[Run] = []
    for action, count in runs:
        # check_int's rule and text, inlined: this runs once per run of every word
        if type(count) is not int or count < 0:
            raise ValueError("run count must be an integer >= 0")
        if type(action) is not Action:
            raise ValueError(f"run action must be an Action, got {type(action).__name__}")
        if count:
            if out and out[-1][0] is action:
                out[-1] = (action, out[-1][1] + count)
            else:
                out.append((action, count))
    return tuple(out)


def _runs(text: str) -> list[Run]:
    """The runs of a word over {s, f}."""
    return [(_ACTION[run[0]], len(run)) for run in _RUN.findall(text)]


def _expand(runs: tuple[Run, ...]) -> Iterator[Action]:
    return itertools.chain.from_iterable(itertools.repeat(a, n) for a, n in runs)


class Strategy(checked("Strategy", "prefix_runs cycle_runs")):
    """Finite or eventually periodic outcome schedule.

    ``Strategy(prefix_runs, cycle_runs)`` takes ``(action, count)`` runs,
    drops zero counts and joins equal neighbours, so equality and hashing
    see one canonical form. ``cycle_runs is None`` marks a finite
    strategy; otherwise the schedule is the prefix followed by the cycle
    repeated forever. ``prefix`` and ``cycle`` are the per-action tuples,
    expanded from the runs on each read and never stored.
    """

    __slots__ = ()

    def __new__(cls, prefix_runs: Iterable[Run], cycle_runs: Iterable[Run] | None = None):
        prefix_runs = _merge(prefix_runs)
        cycle_runs = None if cycle_runs is None else _merge(cycle_runs)
        if cycle_runs is None:
            if not prefix_runs:
                raise ValueError("finite strategy must contain at least one action")
        elif not cycle_runs:
            raise ValueError("cycle must contain at least one action")
        return super().__new__(cls, prefix_runs, cycle_runs)

    @property
    def prefix(self) -> tuple[Action, ...]:
        return tuple(_expand(self.prefix_runs))

    @property
    def cycle(self) -> tuple[Action, ...] | None:
        return None if self.cycle_runs is None else tuple(_expand(self.cycle_runs))

    @property
    def is_finite(self) -> bool:
        return self.cycle_runs is None

    @property
    def length(self) -> int | None:
        """Number of periods for finite strategies, None for infinite ones."""
        return sum(n for _, n in self.prefix_runs) if self.cycle_runs is None else None

    def actions(self) -> Iterator[Action]:
        """Yield the schedule in order, without end for an infinite one."""
        seq = _expand(self.prefix_runs)
        if self.cycle_runs is not None:
            seq = itertools.chain(seq, itertools.cycle(_expand(self.cycle_runs)))
        return seq

    def __str__(self) -> str:
        return format_strategy(self)


def parse_strategy(text: str) -> Strategy:
    """Parse ``"ssfss"`` or ``"ssfs(fs)*"`` into a Strategy.

    Rejects a non-str, empty input, stray characters, and malformed cycle
    syntax, reporting the 1-based offending position.
    """
    if not isinstance(text, str):
        raise StrategyParseError(f"strategy text must be a str, not {type(text).__name__}", 1)
    if not text:
        raise StrategyParseError("empty strategy text", 1)
    i = _WORD.match(text).end()
    prefix = text[:i]
    if i == len(text):
        return Strategy(_runs(prefix))
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
    return Strategy(_runs(prefix), _runs(cycle))


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
    action; every earlier point has to stay within the cutoff. Infinite
    schedules must stay within forever, which is decided exactly from the
    per-cycle slack drift. The start slack comes from ``start_slack``, so a
    prior beyond the cutoff gets its ValueError, as everywhere else.
    """
    slack = start_slack(alpha0, beta0, c)
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
    schedule is feasible, but the prior must start within the cutoff, as
    ``start_slack`` requires. For infinite schedules the scan covers the
    prefix and first cycle; when the slack drifts upward and that scan
    was clean, the earliest violating position in a later cycle is
    appended, so the result is empty iff no violation exists anywhere.
    """
    slack = start_slack(alpha0, beta0, c)
    bar = c.den  # flip test: slack after the failure >= den
    out: list[int] = []
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


def check_index(index: FamilyIndex) -> None:
    """Reject anything but an int >= 1 or math.inf (so no bool or 1.0)."""
    if index != math.inf and (type(index) is not int or index < 1):
        raise ValueError("index must be a positive integer or math.inf")


def _opportunities(alpha0: int, beta0: int, c: Threshold) -> Iterator[tuple[int, int, int]]:
    """The frontier family's only walk, one block per opportunity (a point
    where one more success would cross), forever. Yields (pos, free, pad):
    the word length before the block, its free successes, and the fewest
    failures after the opportunity that make the next success affordable.
    The prior is checked when the first block is read."""
    slack = start_slack(alpha0, beta0, c)
    short = c.den - c.num
    pos = 0
    while True:
        free, slack = divmod(slack, short)
        pad = c.padding(slack)
        yield pos, free, pad
        pos += free + pad
        slack += pad * c.num


def _infinite_parts(blocks: Iterator[tuple[int, int, int]], c: Threshold) -> tuple[int, int, list]:
    """h^inf from the walk's blocks, read from the first, as (free, pad,
    counts): its head is the first block's free successes and padding (at
    least one failure, as slack < short at an opportunity) and then the
    next block's first success; its cycle is the den actions after that,
    as run lengths alternating successes and failures, successes first
    (the first may be 0). From the first opportunity on, the slack stays
    in [0, den) and each period adds num mod den; num and den are coprime,
    so the word repeats after exactly den periods, num of them successes,
    and the cycle ends as the head does, on a success."""
    _, free, pad = next(blocks)
    counts: list[int] = []
    length = -1  # the next block's first success ends the head
    for _, s, f in blocks:
        counts += (s, f)
        length += s + f
        if length >= c.den:
            break
    # past den: the last block's padding and some of its free successes
    counts[-2:] = [counts[-2] + counts[-1] - (length - c.den)]
    counts[0] -= 1
    return free, pad, counts


def frontier_strategy(alpha0: int, beta0: int, c: Threshold, index: FamilyIndex) -> Strategy:
    """Member h^index of the frontier family.

    Succeeds whenever the resulting posterior stays within the cutoff,
    otherwise pads with the fewest failures that make the next success
    affordable. The finite member h^i spends the crossing success at the
    i-th such opportunity; h^inf declines them all and is returned as a
    prefix plus a cycle of exactly den actions with num successes, so its
    long-run success rate is the cutoff itself. Both read ``_opportunities``,
    so the cost is the number of blocks: index for h^index, and at most
    min(num, den - num) + 2 for h^inf, as each block after the first holds
    a success and a failure and the cycle has num and den - num of them.
    Raises LimitExceededError when that count is above WALK_LIMIT.
    """
    check_index(index)
    walk = _opportunities(alpha0, beta0, c)
    blocks = itertools.chain([next(walk)], walk)  # reading the first block checks the prior
    need = min(c.num, c.den - c.num) + 2 if index == math.inf else index
    check_cap(need, "frontier walk blocks", WALK_LIMIT)
    if index == math.inf:
        free, pad, counts = _infinite_parts(blocks, c)
        head = [(Action.SUCCESS, free), (Action.FAILURE, pad), (Action.SUCCESS, 1)]
        return Strategy(head, zip(itertools.cycle((Action.SUCCESS, Action.FAILURE)), counts))
    runs: list[Run] = []
    for _, free, pad in itertools.islice(blocks, index - 1):
        runs += [(Action.SUCCESS, free), (Action.FAILURE, pad)]
    _, free, _ = next(blocks)
    return Strategy([*runs, (Action.SUCCESS, free + 1)])
