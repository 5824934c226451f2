"""Acceptance gate: the eight top-level checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Tolerances are part of the contract and are asserted exactly as stated;
grids are enumerated in full, not sampled.
"""

import itertools
import math
import time
from fractions import Fraction

from sandbag import (
    BeliefState,
    GuesserConfig,
    OptimalKind,
    ProblemInstance,
    Threshold,
    breakeven_discount,
    classify,
    dp_value,
    exhaustive_best,
    format_strategy,
    frontier_payoff,
    frontier_strategy,
    greedy_violations,
    is_feasible,
    parse_strategy,
    payoff,
    play_guesser,
    play_strategy,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def grid_instances():
    """(alpha0, beta0, m) with prior mean within the cutoff 1/(m+1)."""
    return [
        (a, b, m)
        for a in range(1, 5)
        for b in range(1, 5)
        for m in range(1, 4)
        if a * m <= b
    ]


def grid_deltas(m: int, k: int):
    """0.02..0.98 step 0.02, at distance > 0.01 from both governing roots."""
    z_high = breakeven_discount(m).z
    z_low = breakeven_discount(m - k).z if k >= 1 else z_high
    return [
        d
        for j in range(1, 50)
        if abs((d := 0.02 * j) - z_low) > 0.01 and abs(d - z_high) > 0.01
    ]


def report(n: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}{suffix}")
    assert ok, f"criterion {n}: {label}{suffix}"


def test_criterion_1_solver_matches_oracle():
    t0 = time.monotonic()
    checked = 0
    failures = []
    for a, b, m in grid_instances():
        k = b % m
        c = Threshold.from_m(m)
        for delta in grid_deltas(m, k):
            res = classify(ProblemInstance(a, b, m, delta))
            if res.kind is not OptimalKind.UNIQUE:
                failures.append((a, b, m, delta, "not unique"))
                continue
            (idx,) = res.members
            closed = res.payoffs[idx]
            dp = dp_value(a, b, c, delta, 200)
            if abs(closed - dp) > delta**200 / (1.0 - delta) + 1e-9:
                failures.append((a, b, m, delta, "value mismatch"))
            if idx != math.inf:
                member = frontier_strategy(a, b, c, idx)
                found = exhaustive_best(a, b, c, delta, member.length + 1)
                if tuple(found.best_sequence) != member.prefix:
                    failures.append((a, b, m, delta, "sequence mismatch"))
            checked += 1
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    report(
        1,
        "classify agrees with the DP/tree oracles on the full grid",
        ok,
        f"{checked} instances in {elapsed:.1f}s" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_2_breakeven_roots():
    z1 = breakeven_discount(1)
    ok = abs(z1.z - GOLDEN) <= 1e-10
    zs = [breakeven_discount(n) for n in range(1, 51)]
    ok = ok and all(abs(r.residual) <= 1e-12 for r in zs)
    ok = ok and all(lo.z < hi.z for lo, hi in zip(zs, zs[1:]))
    report(
        2,
        "roots: z(1) is the golden ratio conjugate, residuals <= 1e-12, z(1..50) strictly increasing",
        ok,
        f"z(1) off by {abs(z1.z - GOLDEN):.2e}",
    )


def test_criterion_3_second_member_structure():
    bad = []
    for a, b, m in grid_instances():
        c = Threshold.from_m(m)
        walked = frontier_strategy(a, b, c, 2)
        q, k = divmod(b - m * a, m)  # the prior's slack at 1/(m+1) is m*q + k
        closed = parse_strategy("s" * q + "f" * (m - k) + "ss")
        if walked != closed:
            bad.append((a, b, m, "construction mismatch"))
            continue
        state = BeliefState(a, b)
        for action in walked.prefix[:-1]:
            state = state.update(action)
        if state.posterior_mean != Fraction(c.num, c.den):
            bad.append((a, b, m, "pre-terminal state off the boundary"))
    report(
        3,
        "h2 closed form matches the frontier walk and sits exactly on the boundary",
        not bad,
        f"{len(grid_instances())} instances" + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_4_family_is_greedy_and_lengths_grow():
    bad = []
    for a, b, m in grid_instances():
        c = Threshold.from_m(m)
        lengths = []
        for i in range(1, 21):
            h = frontier_strategy(a, b, c, i)
            lengths.append(h.length)
            if not is_feasible(h, a, b, c):
                bad.append((a, b, m, i, "infeasible"))
            if greedy_violations(h, a, b, c) != []:
                bad.append((a, b, m, i, "greedy violation"))
        if not all(x < y for x, y in zip(lengths, lengths[1:])):
            bad.append((a, b, m, "lengths not strictly increasing"))
    green = greedy_violations(parse_strategy("fssfssfsss"), 1, 3, Threshold(1, 2))
    if not green or 1 not in green:
        bad.append(("green path", green))
    report(
        4,
        "family members are feasible and greedy with strictly growing lengths; "
        "the non-greedy reference path is flagged at its first failure",
        not bad,
        f"violations list for the reference path: {green}" + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_5_closed_forms_match_direct_payoffs():
    bad = []
    deltas = [0.05 * j for j in range(1, 20)]
    for a, b, m in grid_instances():
        c = Threshold.from_m(m)
        for i in [1, 2, 3, 4, math.inf]:
            h = frontier_strategy(a, b, c, i)
            for delta in deltas:
                direct = payoff(h, delta)
                closed = frontier_payoff(a, b, m, i, delta)
                if abs(direct - closed) > 1e-12:
                    bad.append((a, b, m, i, delta, "closed form drift"))
        # independent truncation for the infinite member
        h_inf = frontier_strategy(a, b, c, math.inf)
        for delta in (0.25, 0.55, 0.85):
            horizon = math.ceil(math.log(1e-13 * (1.0 - delta)) / math.log(delta))
            truncated = sum(
                delta**t
                for t, x in enumerate(itertools.islice(h_inf.actions(), horizon))
                if x.value == "s"
            )
            if abs(truncated - frontier_payoff(a, b, m, math.inf, delta)) > 1e-12 + 1e-13:
                bad.append((a, b, m, delta, "truncated tail drift"))
        # tie equalities at the computed roots
        k = b % m
        z_high = breakeven_discount(m).z
        pays_high = [frontier_payoff(a, b, m, i, z_high) for i in [*range(2, 11), math.inf]]
        if max(pays_high) - min(pays_high) > 1e-9:
            bad.append((a, b, m, "tie at z_m broken"))
        if k >= 1:
            z_low = breakeven_discount(m - k).z
            if abs(
                frontier_payoff(a, b, m, 1, z_low) - frontier_payoff(a, b, m, 2, z_low)
            ) > 1e-9:
                bad.append((a, b, m, "tie at z_(m-k) broken"))
        else:
            pays_all = [frontier_payoff(a, b, m, i, z_high) for i in (1, 2)]
            if abs(pays_all[0] - pays_all[1]) > 1e-9:
                bad.append((a, b, m, "k=0 full tie broken"))
    report(
        5,
        "closed-form payoffs equal direct evaluation to 1e-12 and tie at the roots to 1e-9",
        not bad,
        f"first failure {bad[0]}" if bad else "",
    )


def test_criterion_6_oracles_agree_with_each_other_and_the_classifier():
    bad = []
    for m in (1, 2, 3):
        c = Threshold.from_m(m)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a * m > b:
                    continue
                for delta in [0.1 * j for j in range(1, 10)]:
                    for horizon in (6, 10, 14):
                        tree = exhaustive_best(a, b, c, delta, horizon).value
                        dp = dp_value(a, b, c, delta, horizon)
                        if tree != dp:
                            bad.append((a, b, m, delta, horizon, "tree vs dp"))
    from sandbag import value_iteration

    for a, b, m in grid_instances():
        c = Threshold.from_m(m)
        k = b % m
        for delta in grid_deltas(m, k):
            res = classify(ProblemInstance(a, b, m, delta))
            (idx,) = res.members
            vi = value_iteration(a, b, c, delta)
            if abs(vi - res.payoffs[idx]) > 1e-8:
                bad.append((a, b, m, delta, "vi vs closed form"))
    report(
        6,
        "tree search equals DP exactly; value iteration matches the classified optimum to 1e-8",
        not bad,
        f"first failure {bad[0]}" if bad else "",
    )


def test_criterion_7_simulation_contracts():
    bad = []
    for a, b, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3)]:
        c = Threshold.from_m(m)
        for i in (1, 2, 3, 6):
            h = frontier_strategy(a, b, c, i)
            traj = play_strategy(a, b, c, h)
            if not traj.terminated or traj.termination_period != h.length:
                bad.append((a, b, m, i, "finite member termination"))
            if traj.records[-1].posterior_mean <= Fraction(c.num, c.den):
                bad.append((a, b, m, i, "final mean not above cutoff"))
        h_inf = frontier_strategy(a, b, c, math.inf)
        traj = play_strategy(a, b, c, h_inf, max_periods=10_000)
        if traj.terminated or len(traj.records) != 10_000:
            bad.append((a, b, m, "infinite member terminated"))
        if any(r.posterior_mean > Fraction(c.num, c.den) for r in traj.records):
            bad.append((a, b, m, "infinite member crossed the cutoff"))
    cfg = GuesserConfig(0.5, 20260815)
    first = play_guesser(1, 3, Threshold(1, 2), cfg, max_periods=2000)
    second = play_guesser(1, 3, Threshold(1, 2), cfg, max_periods=2000)
    if first != second:
        bad.append(("guesser determinism",))
    report(
        7,
        "finite members terminate on schedule, the infinite member survives 10000 periods, "
        "seeded guessers replay identically",
        not bad,
        f"first failure {bad[0]}" if bad else "",
    )


def test_criterion_8_worked_instance():
    bad = []
    c = Threshold(1, 2)
    texts = {
        i: format_strategy(frontier_strategy(1, 3, c, i)) for i in (1, 2, math.inf)
    }
    if texts != {1: "sss", 2: "ssfss", math.inf: "ssfs(fs)*"}:
        bad.append(("family texts", texts))
    pays = {i: frontier_payoff(1, 3, 1, i, 0.5) for i in (1, 2, math.inf)}
    # h^inf at delta 0.5 is 1 + 0.5 + 0.125/0.75 = 5/3
    for i, want in [(1, 1.75), (2, 1.6875), (math.inf, 1.0 + 0.5 + 0.125 / 0.75)]:
        if abs(pays[i] - want) > 1e-12:
            bad.append((i, pays[i], want))
    if abs(pays[math.inf] - 5.0 / 3.0) > 1e-12:
        bad.append(("h_inf exact value", pays[math.inf]))
    low = classify(ProblemInstance(1, 3, 1, 0.5))
    high = classify(ProblemInstance(1, 3, 1, 0.7))
    if not (low.kind is OptimalKind.UNIQUE and low.members == (1,)):
        bad.append(("classify 0.5", low.kind, low.members))
    if not (high.kind is OptimalKind.UNIQUE and high.members == (math.inf,)):
        bad.append(("classify 0.7", high.kind, high.members))
    # the regime flip sits between the 0.60 and 0.65 sweep points
    at_60 = classify(ProblemInstance(1, 3, 1, 0.60)).members
    at_65 = classify(ProblemInstance(1, 3, 1, 0.65)).members
    if not (at_60 == (1,) and at_65 == (math.inf,)):
        bad.append(("transition bracket", at_60, at_65))
    report(
        8,
        'worked instance: "sss" / "ssfss" / "ssfs(fs)*" with payoffs 1.75 / 1.6875 / 5/3 '
        "and the h1-to-hinf flip inside (0.60, 0.65)",
        not bad,
        f"first failure {bad[0]}" if bad else "",
    )
