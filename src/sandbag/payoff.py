"""Discounted payoffs and breakeven discount factors.

The player earns 1 per success and 0 per failure, discounted by
delta**(t-1) in period t (the first period is undiscounted). Finite
schedules are summed directly; eventually periodic ones get the exact
geometric closed form for the tail.

The breakeven discount for waiting n periods is the unique root in
(0, 1) of x**n + x**(n+1) = 1. Below it, postponing a success by n
extra periods in exchange for one more success later is a bad trade;
above it, a good one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .belief import Action
from .strategy import FamilyIndex, Strategy, decompose

_ULP_FLOOR = 1e-15  # bisection stops shrinking brackets below float spacing


class BreakevenRoot(NamedTuple):
    n: int
    z: float
    residual: float  # z**n + z**(n+1) - 1 at the returned z


def payoff(x: Strategy, delta: float) -> float:
    """Expected discounted success count of a schedule.

    Requires 0 <= delta < 1; an infinite schedule has no finite value at
    delta = 1 and finite ones are kept under the same contract.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    head = sum(delta**t for t, a in enumerate(x.prefix) if a is Action.SUCCESS)
    if x.cycle is None:
        return float(head)
    cycle_value = sum(delta**t for t, a in enumerate(x.cycle) if a is Action.SUCCESS)
    tail = delta ** len(x.prefix) * cycle_value / (1.0 - delta ** len(x.cycle))
    return float(head + tail)


def breakeven_discount(n: int, tol: float = 1e-12) -> BreakevenRoot:
    """Root of x**n + x**(n+1) - 1 in (0, 1) by bisection.

    Iterates until both the bracket width and the residual at the
    midpoint are at most ``tol`` (or the bracket hits float spacing).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")

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

    With beta0 = m*r + k and q = r - alpha0 free successes, the member
    h^i (i >= 2) earns its successes at periods 1..q, then at
    P + (m+1)*j for j = 0..i-2 with P = q + (m-k) + 1, then crosses one
    period after the last of those. h^1 stops at period q + 1; h^inf
    keeps the periodic earnings forever.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    dec = decompose(beta0, m)
    if dec.r < alpha0:
        raise ValueError("initial prior already exceeds threshold")
    q = dec.r - alpha0
    if index == 1:
        return float(sum(delta**t for t in range(q + 1)))
    head = sum(delta**t for t in range(q))
    period_first = q + (dec.m - dec.k) + 1  # period of the first boundary success
    if index == math.inf:
        return float(head + delta ** (period_first - 1) / (1.0 - delta ** (m + 1)))
    if not isinstance(index, int) or index < 1:
        raise ValueError("index must be a positive integer or math.inf")
    body = sum(delta ** (period_first - 1 + (m + 1) * j) for j in range(index - 1))
    crossing = delta ** (period_first + (m + 1) * (index - 2))
    return float(head + body + crossing)
