"""Map how the optimal schedule changes with patience.

For a fixed prior and cutoff, sweep the discount factor and record which
family member wins. The switch points are the breakeven roots z_n, so the
picture is: impatient -> quit at the first chance (h1), a middle band ->
delay once (h2), patient -> string the monitor along forever (hinf).
"""

import math

from sandbag import (
    OptimalKind,
    ProblemInstance,
    breakeven_discount,
    classify,
)
from sandbag.belief import split_slack
from sandbag.solver import root_pair


def label(members):
    if math.inf in members and len(members) == 1:
        return "hinf"
    return "+".join("hinf" if i == math.inf else f"h{i}" for i in members)


for alpha, beta, m in [(1, 3, 1), (1, 5, 1), (1, 5, 2), (2, 7, 1)]:
    q, k = split_slack(alpha, beta, m)  # beta = m*r + k with r = q + alpha
    z_lo, z_hi = root_pair(m, k)
    print(f"prior Beta({alpha}, {beta}), cutoff 1/{m + 1}"
          f"  (m = {m}, r = {q + alpha}, k = {k})")
    print(f"  z_low = {z_lo:.6f}, z_high = {z_hi:.6f}")

    current = None
    start = None
    bands = []
    grid = [j / 1000 for j in range(1, 1000)]
    for delta in grid:
        res = classify(ProblemInstance(alpha, beta, m, delta))
        tag = label(res.members) if res.kind == OptimalKind.UNIQUE else "tie"
        if tag != current:
            if current is not None:
                bands.append((start, prev, current))
            current, start = tag, delta
        prev = delta
    bands.append((start, prev, current))

    for lo, hi, tag in bands:
        print(f"  delta in [{lo:.3f}, {hi:.3f}] -> {tag}")
    print()

print("Breakeven roots themselves (x**n + x**(n+1) = 1):")
for n in (1, 2, 3, 5, 10, 25, 50):
    root = breakeven_discount(n)
    print(f"  z_{n:<3} = {root.z:.12f}  residual = {root.residual:+.2e}")
print("z_1 is the reciprocal golden ratio; the sequence climbs toward 1.")
