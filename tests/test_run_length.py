"""Run-length schedules against per-action reference loops.

The reference functions below walk a schedule one action at a time, the
way feasibility, greediness and pricing were first written. The package
works run by run; these tests require the same answers from both.
"""

import math
import random

import pytest

from sandbag import (
    Action,
    BeliefState,
    Strategy,
    Threshold,
    format_strategy,
    frontier_payoff,
    frontier_strategy,
    greedy_violations,
    is_feasible,
    parse_strategy,
    payoff,
)

S, F = Action.SUCCESS, Action.FAILURE


def ref_is_feasible(x, alpha0, beta0, c):
    slack = BeliefState(alpha0, beta0).slack(c)  # >= 0: a prior beyond c is refused
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
    cycle_slack = slack
    for action in x.cycle:
        cycle_slack = c.step(cycle_slack, action)
        if cycle_slack < 0:
            return False
    return cycle_slack >= slack


def ref_greedy_violations(x, alpha0, beta0, c):
    bar = c.den
    out = []
    slack = BeliefState(alpha0, beta0).slack(c)
    pos = 0
    for action in x.prefix:
        pos += 1
        slack = c.step(slack, action)
        if action is F and slack >= bar:
            out.append(pos)
    if x.cycle is None:
        return out
    cycle_start = slack
    offsets = []
    for off, action in enumerate(x.cycle):
        pos += 1
        slack = c.step(slack, action)
        if action is F:
            offsets.append((off, slack))
            if slack >= bar:
                out.append(pos)
    drift = slack - cycle_start
    if not out and drift > 0 and offsets:
        first = None
        for off, s_after in offsets:
            j = max(1, -((s_after - bar) // drift))
            candidate = len(x.prefix) + j * len(x.cycle) + off + 1
            if first is None or candidate < first:
                first = candidate
        out.append(first)
    return out


def ref_payoff(x, delta):
    head = sum(delta**t for t, a in enumerate(x.prefix) if a is S)
    if x.cycle is None:
        return float(head)
    cycle_value = sum(delta**t for t, a in enumerate(x.cycle) if a is S)
    return float(head + delta ** len(x.prefix) * cycle_value / (1.0 - delta ** len(x.cycle)))


def random_cutoff(rng):
    while True:
        den = rng.randint(2, 12)
        num = rng.randint(1, den - 1)
        if math.gcd(num, den) == 1:
            return Threshold(num, den)


def random_runs(rng, c, n_runs):
    """Alternating runs, mostly a few periods long, now and then up to 10^4."""
    action = rng.choice((S, F))
    runs = []
    for _ in range(n_runs):
        if rng.random() < 0.04:
            count = int(10 ** rng.uniform(2, 4))
        else:
            count = rng.randint(1, 2 * c.den)
        runs.append((action, count))
        action = F if action is S else S
    return runs


def random_word(rng, c, alpha0, beta0):
    """A random run word, or a frontier member with a few actions flipped."""
    if rng.random() < 0.3:
        index = math.inf if rng.random() < 0.5 else rng.randint(1, 6)
        try:
            h = frontier_strategy(alpha0, beta0, c, index)
        except ValueError:  # prior above the cutoff
            h = Strategy([(S, 1)], [(F, 1), (S, 1)])
        prefix = list(h.prefix)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(prefix) + 1)
            if i < len(prefix):
                prefix[i] = F if prefix[i] is S else S
        return Strategy([(a, 1) for a in prefix or [S]], h.cycle_runs)
    prefix = random_runs(rng, c, rng.randint(0, 6))
    if rng.random() < 0.4:
        return Strategy(prefix or [(S, 1)])
    if rng.random() < 0.5:
        # only successes first, sinking the slack, so that an upward-drifting
        # cycle reaches a violation only in some later repetition
        prefix = [(S, rng.randint(1, 200))]
    return Strategy(prefix, random_runs(rng, c, rng.randint(1, 4)))


def test_matches_per_action_reference():
    rng = random.Random(20241214)
    words = 6000
    beyond = infeasible = violating = later_cycle = 0
    for _ in range(words):
        c = random_cutoff(rng)
        alpha0, beta0 = rng.randint(1, 8), rng.randint(1, 60)
        x = random_word(rng, c, alpha0, beta0)
        if BeliefState(alpha0, beta0).slack(c) < 0:
            # a prior beyond the cutoff gets start_slack's one answer
            for check in (is_feasible, greedy_violations):
                with pytest.raises(ValueError, match="prior mean exceeds threshold"):
                    check(x, alpha0, beta0, c)
            beyond += 1
        else:
            feasible = is_feasible(x, alpha0, beta0, c)
            assert feasible == ref_is_feasible(x, alpha0, beta0, c), (x, alpha0, beta0, c)
            found = greedy_violations(x, alpha0, beta0, c)
            assert found == ref_greedy_violations(x, alpha0, beta0, c), (x, alpha0, beta0, c)
            infeasible += not feasible
            violating += bool(found)
            word_end = len(x.prefix) + (0 if x.cycle is None else len(x.cycle))
            later_cycle += bool(found) and found[-1] > word_end
        delta = 0.0 if rng.random() < 0.02 else rng.uniform(0.0, 0.999)
        got, want = payoff(x, delta), ref_payoff(x, delta)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300), (x, delta, got, want)
    # the generator must reach every branch, not only the easy ones
    assert beyond > 0
    assert 1000 < infeasible < words - 1000
    assert 1000 < violating < words - 1000
    assert later_cycle >= 300


BETA_LARGE = 10**6
Q_LARGE = 10**5


@pytest.mark.parametrize("m", [1, 3, 8])
def test_large_prior_family_structure(m):
    alpha0 = BETA_LARGE // m - Q_LARGE  # leaves q = r - alpha0 = 10^5 free successes
    c = Threshold.from_m(m)
    members = {i: frontier_strategy(alpha0, BETA_LARGE, c, i) for i in (1, 2, 3, 6, math.inf)}
    for i, h in members.items():
        if i == math.inf:
            assert len(h.prefix_runs) == 3 and len(h.cycle_runs) == 2
            assert h.prefix_runs[0] == (S, Q_LARGE)
        else:
            assert len(h.prefix_runs) == 2 * i - 1 and h.cycle_runs is None
        assert is_feasible(h, alpha0, BETA_LARGE, c)
        assert greedy_violations(h, alpha0, BETA_LARGE, c) == []
        for theta in (0.1, 1.0, 10.0):
            delta = math.exp(-theta / (Q_LARGE + 1))
            closed = frontier_payoff(alpha0, BETA_LARGE, m, i, delta)
            assert math.isclose(payoff(h, delta), closed, rel_tol=1e-12)
        assert parse_strategy(format_strategy(h)) == h
        per_action = Strategy([(a, 1) for a in h.prefix], h.cycle and [(a, 1) for a in h.cycle])
        assert per_action == h and hash(per_action) == hash(h)


class TestRunForm:
    def test_constructors_agree(self):
        # per-action runs, zero counts and split runs all merge to the parsed form
        x = Strategy([(a, 1) for a in (S, S, F, S)], [(F, 1), (S, 1)])
        y = Strategy([(S, 1), (S, 1), (F, 0), (F, 1), (S, 1)], [(F, 1), (S, 1)])
        assert x == y == parse_strategy("ssfs(fs)*") and hash(x) == hash(y)
        assert x.prefix_runs == ((S, 2), (F, 1), (S, 1))
        assert y.prefix == (S, S, F, S) and y.cycle == (F, S)
        assert format_strategy(y) == "ssfs(fs)*"

    def test_text_actions_are_refused(self):
        for prefix in ([("s", 1)], [(S, 1), ("f", 2)], [("s", 0)]):
            with pytest.raises(ValueError, match="^run action must be an Action, got str$"):
                Strategy(prefix)

    @pytest.mark.parametrize(
        "prefix, cycle",
        [
            ([(S, -1)], None),
            ([(S, True)], None),
            ([(S, 1.0)], None),
            ([("x", 1)], None),
            ([(S, 0)], None),
            ([(S, 1)], [(F, 0)]),
        ],
    )
    def test_from_runs_rejects(self, prefix, cycle):
        with pytest.raises(ValueError):
            Strategy(prefix, cycle)

    def test_actions_stream_without_expanding(self, monkeypatch):
        def fail(self):
            raise AssertionError("per-action tuple built")

        for name in ("prefix", "cycle"):
            monkeypatch.setattr(Strategy, name, property(fail))
        x = Strategy([(S, 10**9)], [(F, 1), (S, 1)])
        assert "".join(a.value for a in x.actions(limit=3)) == "sss"
        assert "".join(a.value for a in Strategy([(F, 2)], [(S, 1)]).actions(limit=4)) == "ffss"
