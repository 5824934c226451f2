"""Optimal schedule selection for cutoffs of the form 1/(m+1).

The candidates are the frontier family h^1, h^2, ..., h^inf. Which one
wins depends only on where the discount factor sits relative to two
breakeven roots: z(m-k) (the cost of the first deliberate slump, which
needs m-k failures) and z(m) (the cost of every later one, which needs
m). Payoff differences between neighbours in the family have the sign
of delta**n + delta**(n+1) - 1 for the relevant n, so the optimum is

    delta < z(m-k)          -> h^1
    z(m-k) < delta < z(m)   -> h^2
    delta > z(m)            -> h^inf

with ties exactly at the roots. When k = 0 the two roots coincide and
the whole family ties there at once.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .belief import Threshold, split_slack, start_slack
from .payoff import breakeven_discount, frontier_payoff, payoff
from .strategy import FamilyIndex, frontier_strategy


class OptimalKind(str, Enum):
    UNIQUE = "unique"
    TIE_LOW = "tie_low"  # h^1 and h^2 tie at delta = z(m-k), k >= 1
    TIE_HIGH = "tie_high"  # h^2, h^3, ..., h^inf tie at delta = z(m), k >= 1
    TIE_ALL = "tie_all"  # the whole family ties at delta = z(m), k = 0


class _Instance(NamedTuple):
    alpha0: int
    beta0: int
    m: int
    delta: float


class ProblemInstance(_Instance):
    """Prior Beta(alpha0, beta0), cutoff 1/(m+1), discount delta."""

    __slots__ = ()

    def __new__(cls, alpha0: int, beta0: int, m: int, delta: float):
        for name, v in (("alpha0", alpha0), ("beta0", beta0), ("m", m)):
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        start_slack(alpha0, beta0, 1, m + 1)
        if not 0.0 < delta < 1.0:
            raise ValueError("delta out of range")
        return super().__new__(cls, alpha0, beta0, m, delta)

    @property
    def threshold(self) -> Threshold:
        return Threshold.from_m(self.m)


class OptimalSet(NamedTuple):
    """Solver output: which family members are optimal at this delta.

    ``members`` lists representative indices; for TIE_HIGH and TIE_ALL
    the true optimal set is infinite (every h^i from some point on plus
    h^inf) and ``contains`` answers membership for arbitrary indices.
    ``payoffs`` maps each representative to its discounted value.
    """

    kind: OptimalKind
    members: tuple[FamilyIndex, ...]
    z_low: float
    z_high: float
    payoffs: dict[FamilyIndex, float]  # not compared or hashed

    def __eq__(self, other):
        return self[:4] == other[:4] if type(other) is OptimalSet else NotImplemented

    def __ne__(self, other):
        return self[:4] != other[:4] if type(other) is OptimalSet else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:4])

    def contains(self, index: FamilyIndex) -> bool:
        if index != math.inf and type(index) is not int:
            return False  # no bool, 1.0 or None, as in check_index
        if self.kind is OptimalKind.UNIQUE or self.kind is OptimalKind.TIE_LOW:
            return index in self.members
        lowest = 2 if self.kind is OptimalKind.TIE_HIGH else 1
        return index == math.inf or index >= lowest


def classify(inst: ProblemInstance, tie_tol: float = 1e-9) -> OptimalSet:
    """Place delta against the breakeven roots and return the optimal set.

    ``tie_tol`` is the half-width of the band around each root treated
    as an exact tie; the roots themselves are computed to 1e-12.
    """
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError("tie_tol must be nonnegative and finite")
    _, k = split_slack(inst.alpha0, inst.beta0, inst.m)
    z_high = breakeven_discount(inst.m).z
    z_low = breakeven_discount(inst.m - k).z if k >= 1 else z_high

    def build(kind: OptimalKind, members: tuple[FamilyIndex, ...]) -> OptimalSet:
        pay = {
            i: frontier_payoff(inst.alpha0, inst.beta0, inst.m, i, inst.delta)
            for i in members
        }
        return OptimalSet(kind, members, z_low, z_high, pay)

    if abs(inst.delta - z_low) <= tie_tol:
        if k == 0:
            return build(OptimalKind.TIE_ALL, (1, 2, math.inf))
        return build(OptimalKind.TIE_LOW, (1, 2))
    if abs(inst.delta - z_high) <= tie_tol:
        return build(OptimalKind.TIE_HIGH, (2, 3, math.inf))
    if inst.delta < z_low:
        return build(OptimalKind.UNIQUE, (1,))
    if inst.delta < z_high:
        return build(OptimalKind.UNIQUE, (2,))
    return build(OptimalKind.UNIQUE, (math.inf,))


class OrderingReport(NamedTuple):
    """Cross-check of classify against directly evaluated schedules."""

    argmax: tuple[FamilyIndex, ...]
    payoffs: dict[FamilyIndex, float]
    classification: OptimalSet
    agrees: bool


def verify_ordering(inst: ProblemInstance, n_max: int, atol: float = 1e-10) -> OrderingReport:
    """Evaluate h^1..h^n_max and h^inf from their schedules and check that
    the best of them matches the classification.

    This route builds each schedule with ``frontier_strategy`` and prices
    its runs with ``payoff``, independently of the closed forms that
    ``classify`` uses. The argmax compares the members for the prior
    Beta(alpha0 + q, beta0), which drop the q free successes all members
    open with: at large q those hide the differences below float resolution.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    c = inst.threshold
    q = start_slack(inst.alpha0, inst.beta0, c.num, c.den) // (c.den - c.num)
    indices: list[FamilyIndex] = [*range(1, n_max + 1), math.inf]
    values, tails = (
        {i: payoff(frontier_strategy(a, inst.beta0, c, i), inst.delta) for i in indices}
        for a in (inst.alpha0, inst.alpha0 + q)
    )
    top = max(tails.values())
    argmax = tuple(i for i in indices if tails[i] >= top - atol)
    cls = classify(inst)
    agrees = set(argmax) == {i for i in indices if cls.contains(i)}
    return OrderingReport(argmax, values, cls, agrees)
