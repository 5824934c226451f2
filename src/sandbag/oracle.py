"""Brute-force and dynamic-programming checks on the full game tree.

These routes know nothing about the frontier family. They optimize over
every outcome sequence directly, so agreement with the solver is
evidence, not circularity.

``exhaustive_best`` walks the whole depth-``horizon`` tree recursively.
``dp_value`` computes the same backward recursion bottom-up over belief
states; both evaluate the identical floating point expressions, so
their values match exactly, not just closely.
``value_iteration`` works on the infinite horizon directly, iterating
the Bellman operator over the finitely many reachable slack states.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .belief import Action, LimitExceededError, Threshold, check_delta, start_slack

EXHAUSTIVE_LIMIT = 25
EXHAUSTIVE_WORK_LIMIT = 6_000_000  # most tree nodes one exhaustive_best may visit
DP_LIMIT = 500
VI_WORK_LIMIT = 5_000_000  # most estimated state updates, states x sweeps, of one value_iteration


class OracleResult(NamedTuple):
    value: float
    best_sequence: tuple[Action, ...]
    horizon: int


def _check_horizon(horizon: int) -> None:
    if type(horizon) is not int:
        raise ValueError("horizon must be an integer")  # bools too
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")


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
    _check_horizon(horizon)
    if horizon > EXHAUSTIVE_LIMIT:
        raise LimitExceededError(
            f"exhaustive search is limited to horizon <= {EXHAUSTIVE_LIMIT}"
        )
    check_delta(delta)
    slack0 = start_slack(alpha0, beta0, c.num, c.den)
    nodes = _tree_nodes(slack0, c, horizon)
    if nodes > EXHAUSTIVE_WORK_LIMIT:
        raise LimitExceededError(
            f"exhaustive search would visit {nodes} tree nodes, limit is {EXHAUSTIVE_WORK_LIMIT}"
        )
    value, seq = _walk(slack0, c, delta, horizon)
    return OracleResult(value, seq, horizon)


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
    """Best value and sequence from ``slack0`` by full tree recursion."""
    gain, short = c.num, c.den - c.num  # Threshold.step, inlined in the tree walk

    def best(slack: int, periods_left: int) -> tuple[float, tuple[Action, ...]]:
        if periods_left == 0:
            return 0.0, ()
        s_slack = slack - short
        if s_slack >= 0:
            sub_value, sub_seq = best(s_slack, periods_left - 1)
            s_value = 1.0 + delta * sub_value
            s_seq = (Action.SUCCESS, *sub_seq)
        else:
            s_value = 1.0  # crossing success ends the game
            s_seq = (Action.SUCCESS,)
        f_sub_value, f_sub_seq = best(slack + gain, periods_left - 1)
        f_value = delta * f_sub_value
        if s_value >= f_value:
            return s_value, s_seq
        return f_value, (Action.FAILURE, *f_sub_seq)

    return best(slack0, horizon)


def dp_value(alpha0: int, beta0: int, c: Threshold, delta: float, horizon: int) -> float:
    """Value of the horizon-bounded game by backward induction.

    Layers are indexed by periods used; within a layer the state is the
    success count. Matches exhaustive_best bit for bit on overlapping
    horizons. Guarded at horizon <= 500.
    """
    _check_horizon(horizon)
    if horizon > DP_LIMIT:
        raise LimitExceededError(f"dp oracle is limited to horizon <= {DP_LIMIT}")
    check_delta(delta)
    slack0 = start_slack(alpha0, beta0, c.num, c.den)
    short = c.den - c.num
    values = [0.0] * (horizon + 1)  # layer `horizon`, indexed by successes
    for used in range(horizon - 1, -1, -1):
        # one more success from (ns, used - ns) leaves slack
        # slack0 + num*(used - ns) - short*(ns + 1), within iff ns <= last
        last = (slack0 + c.num * used - short) // c.den
        values = [
            max(1.0 + delta * values[ns + 1] if ns <= last else 1.0, delta * values[ns])
            for ns in range(used + 1)
        ]
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
    Raises LimitExceededError when the state count times the estimated
    sweep count is above VI_WORK_LIMIT.
    """
    check_delta(delta)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    slack0 = start_slack(alpha0, beta0, c.num, c.den)
    short = c.den - c.num
    cap = max(slack0, short + c.num - 1) + c.num
    # the first step is 1 and each later one at most delta times the last,
    # so about log(stop)/log(delta) sweeps reach `stop`; an estimate, not a
    # bound, so the loop keeps its own cap
    sweeps = 1
    if delta > 0.0:
        sweeps = max(1, math.ceil((math.log(tol) + math.log1p(-delta)) / math.log(delta)))
    work = (cap + 1) * sweeps
    if work > VI_WORK_LIMIT:
        raise LimitExceededError(
            f"value iteration needs about {work:.3g} state updates, limit is {VI_WORK_LIMIT}"
        )
    f_child = [min(s + c.num, cap) for s in range(cap + 1)]
    w = [0.0] * (cap + 1)
    stop = tol * (1.0 - delta)
    for _ in range(10_000_000):
        # a success from slack below `short` crosses and ends the game
        w_next = [
            max(1.0 + delta * w[s - short] if s >= short else 1.0, delta * w[f])
            for s, f in enumerate(f_child)
        ]
        if max(abs(a - b) for a, b in zip(w_next, w)) <= stop:
            return w_next[slack0]
        w = w_next
    raise RuntimeError("value iteration failed to converge")
