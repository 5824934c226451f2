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
the whole family ties there at once. A delta of 0 lies below every
root, so it gets h^1.

The rule has one home: ``root_pair`` gives (z_low, z_high) for (m, k) and
``regime`` places delta against them, and ``classify`` and the CLI's
``sweep`` both call these two; each member is priced by
``payoff.frontier_value``, the closed form behind ``frontier_payoff``,
which prices a column of deltas in one call. A sweep therefore finds
(q, k) and the roots once per grid, with the default tie band
``TIE_TOL``, groups its grid into runs of one ``regime`` answer, and
prices each run with one ``frontier_value`` call per member; every
delta is checked by ``check_delta``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .belief import Threshold, check_cap, check_delta, check_int, check_tol, checked, split_slack
from .payoff import breakeven_discount, frontier_value, payoff
from .strategy import FamilyIndex, frontier_strategy

TIE_TOL = 1e-9  # default half-width of the band around a root that counts as a tie
ORDERING_TOL = 1e-10  # verify_ordering: members this close to the best tie for it
ORDERING_LIMIT = 1_500  # most n_max one verify_ordering takes; its cost grows as n_max**2


class OptimalKind(str, Enum):
    UNIQUE = "unique"
    TIE_LOW = "tie_low"  # h^1 and h^2 tie at delta = z(m-k), k >= 1
    TIE_HIGH = "tie_high"  # h^2, h^3, ..., h^inf tie at delta = z(m), k >= 1
    TIE_ALL = "tie_all"  # the whole family ties at delta = z(m), k = 0


class ProblemInstance(checked("ProblemInstance", "alpha0 beta0 m delta")):
    """Prior Beta(alpha0, beta0), cutoff 1/(m+1), discount delta in [0, 1)
    as ``check_delta`` admits it."""

    __slots__ = ()

    def __new__(cls, alpha0: int, beta0: int, m: int, delta: float):
        split_slack(alpha0, beta0, m)
        check_delta(delta)
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


def root_pair(m: int, k: int) -> tuple[float, float]:
    """(z_low, z_high) = (z(m-k), z(m)) for ``split_slack``'s k; equal when k = 0."""
    z_high = breakeven_discount(m).z
    return (breakeven_discount(m - k).z if k >= 1 else z_high), z_high


def regime(
    delta: float, z_low: float, z_high: float, k: int, tie_tol: float
) -> tuple[OptimalKind, tuple[FamilyIndex, ...]]:
    """The optimal kind and representative members at ``delta``, given the
    roots and k; a delta within ``tie_tol`` of a root (inclusive) ties."""
    if abs(delta - z_low) <= tie_tol:
        if k == 0:
            return OptimalKind.TIE_ALL, (1, 2, math.inf)
        return OptimalKind.TIE_LOW, (1, 2)
    if abs(delta - z_high) <= tie_tol:
        return OptimalKind.TIE_HIGH, (2, 3, math.inf)
    if delta < z_low:
        return OptimalKind.UNIQUE, (1,)
    if delta < z_high:
        return OptimalKind.UNIQUE, (2,)
    return OptimalKind.UNIQUE, (math.inf,)


def classify(inst: ProblemInstance, tie_tol: float = TIE_TOL) -> OptimalSet:
    """Place delta against the breakeven roots and return the optimal set.

    ``tie_tol`` is the half-width of the band around each root treated
    as an exact tie; the roots themselves are computed to
    ``payoff.ROOT_TOL``. Any delta in [0, 1) is placed; 0 gets h^1.
    """
    check_tol(tie_tol, "tie_tol")
    q, k = split_slack(inst.alpha0, inst.beta0, inst.m)
    z_low, z_high = root_pair(inst.m, k)
    kind, members = regime(inst.delta, z_low, z_high, k, tie_tol)
    pay = {i: frontier_value(q, k, inst.m, i, (inst.delta,))[0] for i in members}
    return OptimalSet(kind, members, z_low, z_high, pay)


class OrderingReport(NamedTuple):
    """Cross-check of classify against directly evaluated schedules."""

    argmax: tuple[FamilyIndex, ...]
    agrees: bool


def verify_ordering(inst: ProblemInstance, n_max: int) -> OrderingReport:
    """Evaluate h^1..h^n_max and h^inf from their schedules and check that
    the best of them matches the classification.

    This route builds each schedule with ``frontier_strategy`` and prices
    its runs with ``payoff``, independently of the closed forms that
    ``classify`` uses. Each member is priced once, for the prior
    Beta(alpha0 + q, beta0), which drops the q free successes all members
    open with: at large q those hide the differences below float
    resolution. Members within ``ORDERING_TOL`` of the best are the argmax.
    Raises LimitExceededError when n_max is above ORDERING_LIMIT.
    """
    check_int(n_max, "n_max", 2)
    check_cap(n_max, "n_max", ORDERING_LIMIT)
    q, _ = split_slack(inst.alpha0, inst.beta0, inst.m)
    c = inst.threshold
    indices: list[FamilyIndex] = [*range(1, n_max + 1), math.inf]
    alpha = inst.alpha0 + q
    values = [payoff(frontier_strategy(alpha, inst.beta0, c, i), inst.delta) for i in indices]
    top = max(values)
    argmax = tuple(i for i, v in zip(indices, values) if v >= top - ORDERING_TOL)
    cls = classify(inst)
    return OrderingReport(argmax, set(argmax) == {i for i in indices if cls.contains(i)})
