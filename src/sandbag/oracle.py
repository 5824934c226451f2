"""Brute-force and dynamic-programming checks on the full game tree.

These routes know nothing about the frontier family. They optimize over
every outcome sequence directly, so agreement with the solver is
evidence, not circularity.

``exhaustive_best`` searches the depth-``horizon`` tree. A node's best
play depends only on its (slack, periods left), so each such state is
solved once. Each solved state is one (value, action, child) tuple that
shares the chosen child, flattened once at the root.
``dp_value`` computes the same backward recursion bottom-up over belief
states; both evaluate the identical floating point expressions, so
their values match exactly, not just closely.
``value_iteration`` works on the infinite horizon directly, iterating
the Bellman operator over the finitely many reachable slack states. It
reads each state's (success child, failure child) from one table, where
a crossing success points at an extra slot that always holds 0.0, and
runs the full sup-norm stop test only on sweeps whose change in the sum
of the values is small enough for it to pass.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

from .belief import Action, Threshold, check_cap, check_delta, check_int, check_tol, start_slack

EXHAUSTIVE_LIMIT = 25
DP_LIMIT = 500
VI_WORK_LIMIT = 5_000_000  # most estimated state updates, states x sweeps, of one value_iteration


class OracleResult(NamedTuple):
    value: float
    best_sequence: tuple[Action, ...]


def exhaustive_best(
    alpha0: int, beta0: int, c: Threshold, delta: float, horizon: int
) -> OracleResult:
    """Best value and sequence over all schedules of at most ``horizon``
    periods, by a full search of the game tree.

    Ties break toward the success branch, which makes the returned
    sequence the lexicographically smallest maximizer under s < f.
    Guarded at horizon <= 25 (EXHAUSTIVE_LIMIT).
    """
    check_int(horizon, "horizon", 0)
    check_delta(delta)
    slack0 = start_slack(alpha0, beta0, c)
    check_cap(horizon, "exhaustive horizon", EXHAUSTIVE_LIMIT)
    value, seq = _walk(slack0, c, delta, horizon)
    return OracleResult(value, seq)


def _walk(
    slack0: int, c: Threshold, delta: float, horizon: int
) -> tuple[float, tuple[Action, ...]]:
    """Best value and sequence from ``slack0``, solving each (slack,
    periods_left) state once: at most (horizon + 1)(horizon + 2)/2 states.

    With one period left, success scores 1.0 + delta*0.0 == 1.0 against
    delta*0.0, so ``best(slack, 1)`` is one node built once per walk. Each
    node is one (value, action, child) tuple that shares its chosen child;
    the root's chain is flattened once.
    """
    success, failure = Action.SUCCESS, Action.FAILURE
    one = (1.0, success, None)

    @functools.cache
    def best(slack: int, periods_left: int) -> tuple:
        if periods_left == 1:
            return one
        s_slack = c.step(slack, success)
        if s_slack >= 0:
            s_node = best(s_slack, periods_left - 1)
            s_value = 1.0 + delta * s_node[0]
        else:
            s_value, s_node = 1.0, None  # crossing success ends the game
        f_node = best(c.step(slack, failure), periods_left - 1)
        f_value = delta * f_node[0]
        if s_value >= f_value:
            return s_value, success, s_node
        return f_value, failure, f_node

    if horizon == 0:
        return 0.0, ()
    node = best(slack0, horizon)
    value = node[0]
    seq = []
    while node is not None:
        seq.append(node[1])
        node = node[2]
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
    the distance to the fixed point by tol times the discounted tail; a
    sweep runs that test only when the change in the sum of the values
    allows it to pass.
    A sweep reads each state's (success child, failure child) from one
    table built before the first sweep; a crossing success reads the
    extra slot at cap + 1, which always holds 0.0, so it scores exactly
    1.0. Raises LimitExceededError when the state count times the estimated
    sweep count is above VI_WORK_LIMIT; the estimate counts a stop below
    2**-53 as 2**-53, as any such stop ends at the float fixed point.
    """
    check_delta(delta)
    check_tol(tol, "tol", positive=True)
    slack0 = start_slack(alpha0, beta0, c)
    short = c.den - c.num
    cap = max(slack0, short + c.num - 1) + c.num
    # the first step is 1 and each later one at most delta times the last,
    # so about log(stop)/log(delta) sweeps reach `stop`; an estimate, not a
    # bound, so the loop keeps its own cap. After the first sweep every value
    # is at least 1.0, so a step that is not 0 is at least 2**-52: any stop
    # below that ends the loop at the same sweep, where w stops changing, and
    # the estimate floors log(stop) at 2**-53
    sweeps = 1
    if delta > 0.0:
        log_stop = max(math.log(tol) + math.log1p(-delta), -53 * math.log(2))
        sweeps = max(1, math.ceil(log_stop / math.log(delta)))
    check_cap((cap + 1) * sweeps, "value iteration state updates", VI_WORK_LIMIT)
    # a success from slack below `short` crosses and ends the game
    children = [(s - short if s >= short else cap + 1, min(s + c.num, cap)) for s in range(cap + 1)]
    w = [0.0] * (cap + 2)
    total = 0.0  # sum(w), kept from the previous sweep
    stop = tol * (1.0 - delta)
    # From w = 0 the float Bellman operator is monotone for delta >= 0, so w
    # only grows: every step w_next[i] - w[i] is >= 0 and needs no abs. With
    # n = len(w) and u = 2**-53: if every step is at most `stop`, the exact
    # sums of w_next and w differ by at most n*stop/(1 - u), and each float
    # sum is within (n - 1)*u times its exact sum (the plain sum of Python
    # <= 3.11 and the compensated one of 3.12+ alike). So the float gap is at
    # most 2*n*stop + n*2**-50*(new_total + total), twice and eight times
    # those worst cases; a larger gap proves some step exceeds `stop`. The
    # full test would then fail, so it is skipped, and the sweeps and the
    # result stay the same.
    n = len(w)
    abs_room, rel_room = 2 * n * stop, n * 2.0**-50
    for _ in range(10_000_000):
        # `s if s >= f else f` is the float max(s, f) gives, as no value is NaN
        w_next = [s if (s := 1.0 + delta * w[i]) >= (f := delta * w[j]) else f for i, j in children]
        w_next.append(0.0)
        new_total = sum(w_next)
        if new_total - total <= abs_room + rel_room * (new_total + total):
            if max(map(operator.sub, w_next, w)) <= stop:
                return w_next[slack0]
        w, total = w_next, new_total
    raise RuntimeError("value iteration failed to converge")
