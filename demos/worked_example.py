"""Walk through the reference instance: Beta(1, 3) prior, cutoff 1/2.

The player knows the answers; the monitor quits the moment her posterior
mean of the hit rate goes strictly above 1/2. We build the candidate
schedules, price them, and let the solver pick.
"""

import math
from fractions import Fraction

from sandbag import (
    ProblemInstance,
    Threshold,
    classify,
    format_strategy,
    frontier_strategy,
    payoff,
    play_strategy,
    verify_ordering,
)

ALPHA, BETA, M = 1, 3, 1
c = Threshold.from_m(M)

print(f"prior Beta({ALPHA}, {BETA}), cutoff c = {c}")
print(f"prior mean = {Fraction(ALPHA, ALPHA + BETA)}\n")

print("The frontier family (succeed while affordable, pad with forced failures,")
print("cash in the crossing success at the chosen opportunity):")
for i in [1, 2, 3, math.inf]:
    h = frontier_strategy(ALPHA, BETA, c, i)
    label = "hinf" if i == math.inf else f"h{i}"
    print(f"  {label:>4} = {format_strategy(h)}")

print("\nDiscounted payoffs (first period undiscounted):")
for delta in (0.3, 0.5, 0.618, 0.7, 0.9):
    row = {
        f"h{i}" if i != math.inf else "hinf": payoff(
            frontier_strategy(ALPHA, BETA, c, i), delta
        )
        for i in [1, 2, math.inf]
    }
    cells = ", ".join(f"{k} = {v:.6f}" for k, v in row.items())
    print(f"  delta = {delta:<5} -> {cells}")

print("\nSolver verdicts:")
for delta in (0.5, 0.7):
    res = classify(ProblemInstance(ALPHA, BETA, M, delta))
    names = ["hinf" if i == math.inf else f"h{i}" for i in res.members]
    print(
        f"  delta = {delta}: {res.kind.value} -> {names}"
        f" (switch points z_low = {res.z_low:.6f}, z_high = {res.z_high:.6f})"
    )

rep = verify_ordering(ProblemInstance(ALPHA, BETA, M, 0.5), n_max=20)
print(f"\nDirect ordering check over h1..h20 and hinf agrees: {rep.agrees}")

print("\nPeriod-by-period replay of h2 ('ssfss'):")
traj = play_strategy(ALPHA, BETA, c, frontier_strategy(ALPHA, BETA, c, 2), delta=0.5)
for r in traj.records:
    flag = "  <- monitor quits" if r.crossed else ""
    print(f"  period {r.period}: {r.action.value}  mean = {r.posterior_mean}{flag}")
print(f"discounted payoff at delta = 0.5: {traj.discounted_payoff}")
