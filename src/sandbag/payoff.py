"""Discounted payoffs and breakeven discount factors.

The player earns 1 per success and 0 per failure, discounted by
delta**(t-1) in period t (the first period is undiscounted). Pricing
works on a schedule's runs: a run of n successes that starts after t
periods is worth delta**t * (1 - delta**n) / (1 - delta), and the cycle
of an eventually periodic schedule adds its one-cycle value times the
geometric factor 1 / (1 - delta**period). The frontier family's payoffs
have the same sums in closed form. Each 1 - delta**n is taken as
-expm1(n * log(delta)), which keeps full relative precision as delta
approaches 1.

The breakeven discount for waiting n periods is the unique root in
(0, 1) of x**n + x**(n+1) = 1. Below it, postponing a success by n
extra periods in exchange for one more success later is a bad trade;
above it, a good one. The roots depend on n and the tolerance alone, so
each is bisected once per process and memoised per (n, tol) in a
bounded cache.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

from .belief import PRICE_LIMIT, Action, check_cap, check_delta, check_int, check_tol
from .belief import split_slack
from .strategy import FamilyIndex, Run, Strategy, check_index

_ULP_FLOOR = 1e-15  # bisection stops shrinking brackets below float spacing
ROOT_TOL = 1e-12  # default tolerance of a breakeven root, its bracket and its residual


class BreakevenRoot(NamedTuple):
    n: int
    z: float
    residual: float  # z**n + z**(n+1) - 1 at the returned z


def _log(delta: float) -> float:
    return math.log(delta) if delta > 0.0 else -math.inf


def _geometric(log_ratio: float, n: int) -> float:
    """1 + r + ... + r**(n-1) for r = exp(log_ratio) in [0, 1)."""
    return math.expm1(n * log_ratio) / math.expm1(log_ratio) if n else 0.0


def _geometrics(log_ratios: list[float], n: int) -> list[float]:
    """``_geometric(r, n)`` for each r of a column."""
    return [math.expm1(n * r) / math.expm1(r) if n else 0.0 for r in log_ratios]


def _price_runs(runs: tuple[Run, ...], delta: float, log_delta: float) -> tuple[float, int]:
    """Discounted success count of ``runs`` played from period 1, and their length."""
    value = 0.0
    t = 0
    for action, n in runs:
        if action is Action.SUCCESS:
            value += delta**t * _geometric(log_delta, n)
        t += n
    return value, t


def payoff(x: Strategy, delta: float) -> float:
    """Expected discounted success count of a schedule; 0 <= delta < 1.
    Its length, prefix plus one cycle, is capped at ``PRICE_LIMIT``."""
    check_delta(delta)
    runs = x.prefix_runs + (x.cycle_runs or ())
    check_cap(sum(n for _, n in runs), "strategy length", PRICE_LIMIT)
    log_delta = _log(delta)
    head, t = _price_runs(x.prefix_runs, delta, log_delta)
    if x.cycle_runs is None:
        return head
    cycle_value, period = _price_runs(x.cycle_runs, delta, log_delta)
    return head + delta**t * cycle_value / -math.expm1(period * log_delta)


def breakeven_discount(n: int, tol: float = ROOT_TOL) -> BreakevenRoot:
    """Root of x**n + x**(n+1) - 1 in (0, 1) by bisection.

    Iterates until both the bracket width and the residual at the
    midpoint are at most ``tol`` (or the bracket hits float spacing).
    """
    # True == 1, 2.0 == 2 and an IntEnum of 2 hash alike, so only a plain int may reach the cache
    check_int(n, "n", 1)
    check_tol(tol, "tol", positive=True)
    check_cap(n, "n", PRICE_LIMIT)
    return _bisect(n, tol)


@functools.lru_cache(maxsize=1024)  # bounded, so a long thresholds table cannot grow it
def _bisect(n: int, tol: float) -> BreakevenRoot:
    def f(x: float) -> float:
        return x**n + x ** (n + 1) - 1.0

    lo, hi = 0.0, 1.0  # f(0) = -1 < 0 < 1 = f(1)
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        r = f(mid)
        if hi - lo <= max(tol, _ULP_FLOOR) and abs(r) <= tol:
            break
        if hi - lo <= _ULP_FLOOR:
            break
        if r < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return BreakevenRoot(n, mid, f(mid))


def frontier_payoff(
    alpha0: int, beta0: int, m: int, index: FamilyIndex, delta: float
) -> float:
    """Closed-form payoff of frontier member h^index at cutoff 1/(m+1).

    With the prior's slack beta0 - m*alpha0 = m*q + k (0 <= k < m), the
    member h^i (i >= 2) earns its successes at periods 1..q, then at
    P + (m+1)*j for j = 0..i-2 with P = q + (m-k) + 1, then crosses one
    period after the last of those. h^1 stops at period q + 1; h^inf
    keeps the periodic earnings forever. The checks are here, h^i's
    crossing period capped at ``PRICE_LIMIT``; the sum is
    ``frontier_value``'s, which a caller that has (q, k) can price with.
    """
    check_index(index)
    check_delta(delta)
    q, k = split_slack(alpha0, beta0, m)
    if 2 <= index < math.inf:  # h^1 crosses at q + 1, within q's cap
        check_cap(q + (m - k) + 1 + (m + 1) * (index - 2), "crossing period", PRICE_LIMIT)
    return frontier_value(q, k, m, index, (delta,))[0]


def frontier_value(
    q: int, k: int, m: int, index: FamilyIndex, deltas: Sequence[float]
) -> list[float]:
    """``frontier_payoff``'s closed form from ``split_slack``'s (q, k),
    unchecked, at each delta of a column. Each delta goes through the
    scalar float operations in the scalar order, so an entry equals the
    one-element call at its delta bit for bit."""
    logs = [math.log(d) if d > 0.0 else -math.inf for d in deltas]  # _log without a call per delta
    if index == 1:
        return _geometrics(logs, q + 1)
    head = _geometrics(logs, q)
    period_first = q + (m - k) + 1  # period of the first boundary success
    if index == math.inf:
        return [
            h + d ** (period_first - 1) / -math.expm1((m + 1) * lg)
            for h, d, lg in zip(head, deltas, logs)
        ]
    body = _geometrics([(m + 1) * lg for lg in logs], index - 1)
    crossing = period_first + (m + 1) * (index - 2)
    return [h + d ** (period_first - 1) * b + d**crossing for h, d, b in zip(head, deltas, body)]
