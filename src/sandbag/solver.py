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
from dataclasses import dataclass, field
from enum import Enum

from .belief import Threshold
from .payoff import breakeven_discount, frontier_payoff, payoff
from .strategy import FamilyIndex, decompose, frontier_strategy


class OptimalKind(str, Enum):
    UNIQUE = "unique"
    TIE_LOW = "tie_low"  # h^1 and h^2 tie at delta = z(m-k), k >= 1
    TIE_HIGH = "tie_high"  # h^2, h^3, ..., h^inf tie at delta = z(m), k >= 1
    TIE_ALL = "tie_all"  # the whole family ties at delta = z(m), k = 0


@dataclass(frozen=True)
class ProblemInstance:
    """Prior Beta(alpha0, beta0), cutoff 1/(m+1), discount delta."""

    alpha0: int
    beta0: int
    m: int
    delta: float

    def __post_init__(self) -> None:
        for name in ("alpha0", "beta0", "m"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        # prior mean <= 1/(m+1) iff alpha0*m <= beta0, exact in integers
        if self.alpha0 * self.m > self.beta0:
            raise ValueError("prior mean exceeds threshold")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta out of range")

    @property
    def threshold(self) -> Threshold:
        return Threshold.from_m(self.m)


@dataclass(frozen=True)
class OptimalSet:
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
    payoffs: dict[FamilyIndex, float] = field(compare=False)

    def contains(self, index: FamilyIndex) -> bool:
        if self.kind is OptimalKind.UNIQUE or self.kind is OptimalKind.TIE_LOW:
            return index in self.members
        if self.kind is OptimalKind.TIE_HIGH:
            return index == math.inf or (isinstance(index, int) and index >= 2)
        return index == math.inf or (isinstance(index, int) and index >= 1)


def classify(inst: ProblemInstance, tie_tol: float = 1e-9) -> OptimalSet:
    """Place delta against the breakeven roots and return the optimal set.

    ``tie_tol`` is the half-width of the band around each root treated
    as an exact tie; the roots themselves are computed to 1e-12.
    """
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError("tie_tol must be nonnegative and finite")
    dec = decompose(inst.beta0, inst.m)
    if dec.r < inst.alpha0:
        raise ValueError("prior mean exceeds threshold")
    z_high = breakeven_discount(inst.m).z
    z_low = breakeven_discount(inst.m - dec.k).z if dec.k >= 1 else z_high

    def build(kind: OptimalKind, members: tuple[FamilyIndex, ...]) -> OptimalSet:
        pay = {
            i: frontier_payoff(inst.alpha0, inst.beta0, inst.m, i, inst.delta)
            for i in members
        }
        return OptimalSet(kind, members, z_low, z_high, pay)

    if abs(inst.delta - z_low) <= tie_tol:
        if dec.k == 0:
            return build(OptimalKind.TIE_ALL, (1, 2, math.inf))
        return build(OptimalKind.TIE_LOW, (1, 2))
    if abs(inst.delta - z_high) <= tie_tol:
        return build(OptimalKind.TIE_HIGH, (2, 3, math.inf))
    if inst.delta < z_low:
        return build(OptimalKind.UNIQUE, (1,))
    if inst.delta < z_high:
        return build(OptimalKind.UNIQUE, (2,))
    return build(OptimalKind.UNIQUE, (math.inf,))


@dataclass(frozen=True)
class OrderingReport:
    """Cross-check of classify against directly evaluated schedules."""

    argmax: tuple[FamilyIndex, ...]
    payoffs: dict[FamilyIndex, float]
    classification: OptimalSet
    agrees: bool


def verify_ordering(inst: ProblemInstance, n_max: int, atol: float = 1e-10) -> OrderingReport:
    """Evaluate h^1..h^n_max and h^inf by direct summation and check that
    the best of them matches the classification.

    This route builds each schedule explicitly and prices it with
    ``payoff``, independently of the closed forms used by ``classify``.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    c = inst.threshold
    indices: list[FamilyIndex] = [*range(1, n_max + 1), math.inf]
    values = {
        i: payoff(frontier_strategy(inst.alpha0, inst.beta0, c, i), inst.delta)
        for i in indices
    }
    top = max(values.values())
    argmax = tuple(i for i in indices if values[i] >= top - atol)
    cls = classify(inst)
    agrees = set(argmax) == {i for i in indices if cls.contains(i)}
    return OrderingReport(argmax, values, cls, agrees)
