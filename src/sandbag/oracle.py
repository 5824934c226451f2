"""Brute-force and dynamic-programming checks on the full game tree.

These routes know nothing about the frontier family. They optimize over
every outcome sequence directly, so agreement with the solver is
evidence, not circularity.

``exhaustive_best`` walks the whole depth-``horizon`` tree recursively;
each node returns its sequence as an (action, rest) pair that shares the
chosen child's pairs, flattened once at the root.
``dp_value`` computes the same backward recursion bottom-up over belief
states; both evaluate the identical floating point expressions, so
their values match exactly, not just closely.
``value_iteration`` works on the infinite horizon directly, iterating
the Bellman operator over the finitely many reachable slack states. It
reads each state's (success child, failure child) from one table, where
a crossing success points at an extra slot that always holds 0.0.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .belief import Action, Threshold, check_cap, check_delta, check_int, check_tol, start_slack

EXHAUSTIVE_LIMIT = 25
EXHAUSTIVE_WORK_LIMIT = 6_000_000  # most tree nodes one exhaustive_best may visit
DP_LIMIT = 500
VI_WORK_LIMIT = 5_000_000  # most estimated state updates, states x sweeps, of one value_iteration


class OracleResult(NamedTuple):
    value: float
    best_sequence: tuple[Action, ...]


def exhaustive_best(
    alpha0: int, beta0: int, c: Threshold, delta: float, horizon: int
) -> OracleResult:
    """Best value and sequence over all schedules of at most ``horizon``
    periods, by full tree enumeration (no memoization).

    Ties break toward the success branch, which makes the returned
    sequence the lexicographically smallest maximizer under s < f.
    Guarded at horizon <= 25 since the tree is exponential, and by the
    tree's node count, which must be at most EXHAUSTIVE_WORK_LIMIT.
    """
    check_int(horizon, "horizon", 0)
    check_delta(delta)
    slack0 = start_slack(alpha0, beta0, c)
    check_cap(horizon, "exhaustive horizon", EXHAUSTIVE_LIMIT)
    check_cap(_tree_nodes(slack0, c, horizon), "exhaustive tree nodes", EXHAUSTIVE_WORK_LIMIT)
    value, seq = _walk(slack0, c, delta, horizon)
    return OracleResult(value, seq)


def _tree_nodes(slack0: int, c: Threshold, horizon: int) -> int:
    """Calls the tree walk makes from ``slack0``, counted per (slack, periods_left)."""
    gain, short = c.num, c.den - c.num
    layer = {slack0: 1}  # slack -> walk calls at this depth
    total = 1
    for _ in range(horizon):
        below: dict[int, int] = {}
        for slack, calls in layer.items():
            for child in (slack - short, slack + gain):
                if child >= 0:  # a crossing success ends the game: no call
                    below[child] = below.get(child, 0) + calls
        total += sum(below.values())
        layer = below
    return total


def _walk(
    slack0: int, c: Threshold, delta: float, horizon: int
) -> tuple[float, tuple[Action, ...]]:
    """Best value and sequence from ``slack0`` by full tree recursion.

    Each call returns its sequence as nested (action, rest) pairs, ``None``
    for the empty one, so a node adds one pair instead of copying its
    child's sequence; the root's pairs are flattened once.
    """
    gain, short = c.num, c.den - c.num  # Threshold.step, inlined in the tree walk
    success, failure = Action.SUCCESS, Action.FAILURE

    def best(slack: int, periods_left: int) -> tuple[float, tuple | None]:
        if periods_left == 0:
            return 0.0, None
        s_slack = slack - short
        if s_slack >= 0:
            sub_value, s_rest = best(s_slack, periods_left - 1)
            s_value = 1.0 + delta * sub_value
        else:
            s_value, s_rest = 1.0, None  # crossing success ends the game
        f_sub_value, f_rest = best(slack + gain, periods_left - 1)
        f_value = delta * f_sub_value
        if s_value >= f_value:
            return s_value, (success, s_rest)
        return f_value, (failure, f_rest)

    value, node = best(slack0, horizon)
    seq = []
    while node is not None:
        action, node = node
        seq.append(action)
    return value, tuple(seq)


def dp_value(alpha0: int, beta0: int, c: Threshold, delta: float, horizon: int) -> float:
    """Value of the horizon-bounded game by backward induction.

    Layers are indexed by periods used; within a layer the state is the
    success count. Matches exhaustive_best bit for bit on overlapping
    horizons: each state takes 1.0 + delta*v or delta*v' as the tree walk
    does, and ``s if s >= f else f`` is the float ``max(s, f)`` gives, as
    no value is NaN. Guarded at horizon <= 500.
    """
    check_int(horizon, "horizon", 0)
    check_delta(delta)
    slack0 = start_slack(alpha0, beta0, c)
    check_cap(horizon, "dp horizon", DP_LIMIT)
    short = c.den - c.num
    values = [0.0] * (horizon + 1)  # layer `horizon`, indexed by successes
    for used in range(horizon - 1, -1, -1):
        # one more success from (ns, used - ns) leaves slack
        # slack0 + num*(used - ns) - short*(ns + 1), within iff ns <= last
        last = (slack0 + c.num * used - short) // c.den
        cut = min(max(last + 1, 0), used + 1)  # states below cut keep playing on a success
        dv = [delta * v for v in values]
        values = [s if (s := 1.0 + dv[ns + 1]) >= (f := dv[ns]) else f for ns in range(cut)]
        values += [1.0 if 1.0 >= f else f for f in dv[cut : used + 1]]
    return values[0]


def value_iteration(
    alpha0: int, beta0: int, c: Threshold, delta: float, tol: float = 1e-10
) -> float:
    """Infinite-horizon value by iterating the Bellman operator.

    The state is the integer slack to the cutoff. Slacks above the
    failure-padding band never help, so the space is capped just past
    max(initial slack, band top); optimal play never leaves the cap.
    Stops when the sup-norm step is at most tol*(1-delta), which bounds
    the distance to the fixed point by tol times the discounted tail.
    A sweep reads each state's (success child, failure child) from one
    table built before the first sweep; a crossing success reads the
    extra slot at cap + 1, which always holds 0.0, so it scores exactly
    1.0. Raises LimitExceededError when the state count times the estimated
    sweep count is above VI_WORK_LIMIT.
    """
    check_delta(delta)
    check_tol(tol, "tol", positive=True)
    slack0 = start_slack(alpha0, beta0, c)
    short = c.den - c.num
    cap = max(slack0, short + c.num - 1) + c.num
    # the first step is 1 and each later one at most delta times the last,
    # so about log(stop)/log(delta) sweeps reach `stop`; an estimate, not a
    # bound, so the loop keeps its own cap
    sweeps = 1
    if delta > 0.0:
        sweeps = max(1, math.ceil((math.log(tol) + math.log1p(-delta)) / math.log(delta)))
    check_cap((cap + 1) * sweeps, "value iteration state updates", VI_WORK_LIMIT)
    # a success from slack below `short` crosses and ends the game
    children = [(s - short if s >= short else cap + 1, min(s + c.num, cap)) for s in range(cap + 1)]
    w = [0.0] * (cap + 2)
    stop = tol * (1.0 - delta)
    for _ in range(10_000_000):
        # `s if s >= f else f` is the float max(s, f) gives, as no value is NaN
        w_next = [s if (s := 1.0 + delta * w[i]) >= (f := delta * w[j]) else f for i, j in children]
        w_next.append(0.0)
        if max(map(abs, map(operator.sub, w_next, w))) <= stop:
            return w_next[slack0]
        w = w_next
    raise RuntimeError("value iteration failed to converge")
