"""Regime classification against the breakeven roots, and its cross-check."""

import math

import pytest

from sandbag import (
    OptimalKind,
    ProblemInstance,
    breakeven_discount,
    classify,
    frontier_payoff,
    verify_ordering,
)

Z1 = breakeven_discount(1).z
Z2 = breakeven_discount(2).z


class TestProblemInstance:
    def test_accepts_boundary_prior(self):
        ProblemInstance(1, 3, 3, 0.5)  # mean 1/4 = c exactly

    def test_rejects_prior_above_cutoff(self):
        with pytest.raises(ValueError, match="prior mean exceeds threshold"):
            ProblemInstance(3, 1, 1, 0.5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_delta_out_of_range(self, delta):
        with pytest.raises(ValueError, match="delta out of range"):
            ProblemInstance(1, 3, 1, delta)

    @pytest.mark.parametrize("field", ["alpha0", "beta0", "m"])
    def test_rejects_nonpositive_ints(self, field):
        for bad in (0, True):
            kwargs = dict(alpha0=1, beta0=3, m=1, delta=0.5)
            kwargs[field] = bad
            with pytest.raises(ValueError):
                ProblemInstance(**kwargs)

    def test_threshold_property(self):
        from fractions import Fraction

        assert ProblemInstance(1, 3, 3, 0.5).threshold.as_fraction == Fraction(1, 4)


class TestClassify:
    def test_patient_enough_for_nothing(self):
        res = classify(ProblemInstance(1, 3, 1, 0.5))
        assert res.kind is OptimalKind.UNIQUE
        assert res.members == (1,)
        assert res.payoffs[1] == pytest.approx(1.75, abs=1e-12)

    def test_patient_forever(self):
        res = classify(ProblemInstance(1, 3, 1, 0.7))
        assert res.kind is OptimalKind.UNIQUE
        assert res.members == (math.inf,)
        assert res.payoffs[math.inf] == pytest.approx(121.0 / 51.0, abs=1e-12)

    def test_middle_regime_needs_k_positive(self):
        res = classify(ProblemInstance(1, 5, 2, 0.7))
        assert res.kind is OptimalKind.UNIQUE
        assert res.members == (2,)
        assert res.payoffs[2] == pytest.approx(1.0 + 0.49 + 0.343, abs=1e-12)
        assert res.z_low == pytest.approx(Z1, abs=1e-12)
        assert res.z_high == pytest.approx(Z2, abs=1e-12)

    def test_tie_all_when_k_zero(self):
        res = classify(ProblemInstance(1, 3, 1, Z1))
        assert res.kind is OptimalKind.TIE_ALL
        assert set(res.members) == {1, 2, math.inf}
        vals = list(res.payoffs.values())
        assert max(vals) - min(vals) <= 1e-10

    def test_tie_low_when_k_positive(self):
        res = classify(ProblemInstance(1, 5, 2, Z1))
        assert res.kind is OptimalKind.TIE_LOW
        assert set(res.members) == {1, 2}
        assert abs(res.payoffs[1] - res.payoffs[2]) <= 1e-9

    def test_tie_high_when_k_positive(self):
        res = classify(ProblemInstance(1, 5, 2, Z2))
        assert res.kind is OptimalKind.TIE_HIGH
        assert set(res.members) == {2, 3, math.inf}
        vals = list(res.payoffs.values())
        assert max(vals) - min(vals) <= 1e-9

    def test_roots_ordered(self):
        for alpha0, beta0, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3), (1, 4, 2)]:
            res = classify(ProblemInstance(alpha0, beta0, m, 0.5))
            assert res.z_low <= res.z_high
            k = beta0 % m
            assert (res.z_low == res.z_high) == (k == 0)

    def test_contains_semantics(self):
        high = classify(ProblemInstance(1, 5, 2, Z2))
        assert high.contains(2) and high.contains(17) and high.contains(math.inf)
        assert not high.contains(1)
        all_tie = classify(ProblemInstance(1, 3, 1, Z1))
        assert all_tie.contains(1) and all_tie.contains(40) and all_tie.contains(math.inf)
        unique = classify(ProblemInstance(1, 3, 1, 0.5))
        assert unique.contains(1) and not unique.contains(2)

    def test_tie_tol_band(self):
        res = classify(ProblemInstance(1, 3, 1, Z1 + 5e-10), tie_tol=1e-9)
        assert res.kind is OptimalKind.TIE_ALL
        res = classify(ProblemInstance(1, 3, 1, Z1 + 5e-10), tie_tol=1e-12)
        assert res.kind is OptimalKind.UNIQUE

    def test_rejects_negative_tie_tol(self):
        with pytest.raises(ValueError):
            classify(ProblemInstance(1, 3, 1, 0.5), tie_tol=-1.0)

    @pytest.mark.parametrize("tie_tol", [math.nan, math.inf])
    def test_rejects_nonfinite_tie_tol(self, tie_tol):
        with pytest.raises(ValueError, match="finite"):
            classify(ProblemInstance(1, 3, 1, 0.5), tie_tol=tie_tol)

    def test_monotone_regime_sweep(self):
        # upward delta sweep may only move h1 -> h2 -> hinf
        order = {1: 0, 2: 1, math.inf: 2}
        for alpha0, beta0, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3), (1, 4, 2), (2, 9, 2)]:
            labels = []
            for j in range(1, 100):
                res = classify(ProblemInstance(alpha0, beta0, m, j / 100.0))
                if res.kind is OptimalKind.UNIQUE:
                    labels.append(order[res.members[0]])
            assert labels == sorted(labels)
            k = beta0 % m
            if k == 0:
                assert 1 not in labels  # no h2 region when the roots merge

    def test_tie_equalities_at_roots(self):
        for alpha0, beta0, m in [(1, 5, 2), (2, 7, 3), (1, 8, 3)]:
            k = beta0 % m
            assert k >= 1
            z_low = breakeven_discount(m - k).z
            z_high = breakeven_discount(m).z
            p1 = frontier_payoff(alpha0, beta0, m, 1, z_low)
            p2 = frontier_payoff(alpha0, beta0, m, 2, z_low)
            assert abs(p1 - p2) <= 1e-9
            highs = [
                frontier_payoff(alpha0, beta0, m, i, z_high)
                for i in [*range(2, 11), math.inf]
            ]
            assert max(highs) - min(highs) <= 1e-9


class TestVerifyOrdering:
    @pytest.mark.parametrize(
        "alpha0,beta0,m,delta,best",
        [
            (1, 3, 1, 0.5, (1,)),
            (1, 5, 2, 0.7, (2,)),
            (1, 3, 1, 0.9, (math.inf,)),
        ],
    )
    def test_agrees_on_unique_regimes(self, alpha0, beta0, m, delta, best):
        rep = verify_ordering(ProblemInstance(alpha0, beta0, m, delta), 20)
        assert rep.agrees
        assert rep.argmax == best

    def test_agrees_at_ties(self):
        rep = verify_ordering(ProblemInstance(1, 5, 2, Z1), 12)
        assert rep.agrees
        assert set(rep.argmax) == {1, 2}

    def test_agrees_on_small_grid(self):
        for alpha0, beta0, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3), (1, 4, 2)]:
            for j in range(1, 20):
                inst = ProblemInstance(alpha0, beta0, m, j / 20.0)
                assert verify_ordering(inst, 15).agrees, (alpha0, beta0, m, j)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            verify_ordering(ProblemInstance(1, 3, 1, 0.5), 1)
