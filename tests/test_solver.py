"""Regime classification against the breakeven roots, and its cross-check."""

import enum
import math
import random

import pytest

from sandbag import (
    OptimalKind,
    ProblemInstance,
    breakeven_discount,
    classify,
    frontier_payoff,
    frontier_strategy,
    payoff,
    verify_ordering,
)
from sandbag.belief import split_slack

Z1 = breakeven_discount(1).z
Z2 = breakeven_discount(2).z


class TestProblemInstance:
    def test_accepts_boundary_prior(self):
        ProblemInstance(1, 3, 3, 0.5)  # mean 1/4 = c exactly

    def test_rejects_prior_above_cutoff(self):
        with pytest.raises(ValueError, match="prior mean exceeds threshold"):
            ProblemInstance(3, 1, 1, 0.5)

    @pytest.mark.parametrize("delta", [1.0, -0.2, 1.7, True, "0.5", None])
    def test_rejects_delta_out_of_range(self, delta):
        with pytest.raises(ValueError, match=r"^delta must lie in \[0, 1\)$"):
            ProblemInstance(1, 3, 1, delta)

    @pytest.mark.parametrize("delta", [0, 0.0, -0.0])
    def test_accepts_delta_zero(self, delta):
        # only the first period counts: h^1 takes its success there
        res = classify(ProblemInstance(1, 3, 1, delta))
        assert (res.kind, res.members, res.payoffs) == (OptimalKind.UNIQUE, (1,), {1: 1.0})

    @pytest.mark.parametrize("field", ["alpha0", "beta0", "m"])
    def test_rejects_nonpositive_ints(self, field):
        for bad in (0, True):
            kwargs = dict(alpha0=1, beta0=3, m=1, delta=0.5)
            kwargs[field] = bad
            with pytest.raises(ValueError):
                ProblemInstance(**kwargs)

    def test_rejects_int_subclass_m(self):
        # classify and threshold refuse such an m, so construction does too
        class M(enum.IntEnum):
            TWO = 2

        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            ProblemInstance(1, 5, M.TWO, 0.7)

    def test_threshold_property(self):
        c = ProblemInstance(1, 3, 3, 0.5).threshold
        assert (c.num, c.den) == (1, 4)


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

    def test_contains_rejects_bool_and_float(self):
        all_tie = classify(ProblemInstance(1, 3, 1, Z1))
        high = classify(ProblemInstance(1, 5, 2, Z2))
        for res in (all_tie, high):
            assert not res.contains(True) and not res.contains(2.0)

    def test_contains_rejects_bool_and_float_for_finite_sets(self):
        unique = classify(ProblemInstance(1, 3, 1, 0.5))
        low = classify(ProblemInstance(1, 5, 2, Z1))
        assert (unique.kind, low.kind) == (OptimalKind.UNIQUE, OptimalKind.TIE_LOW)
        for res in (unique, low):
            assert res.contains(1)
            for index in (True, 1.0, None, "1"):
                assert not res.contains(index), (res.kind, index)
        assert low.contains(2) and not low.contains(2.0) and not low.contains(math.inf)

    def test_tie_tol_band(self):
        res = classify(ProblemInstance(1, 3, 1, Z1 + 5e-10), tie_tol=1e-9)
        assert res.kind is OptimalKind.TIE_ALL
        res = classify(ProblemInstance(1, 3, 1, Z1 + 5e-10), tie_tol=1e-12)
        assert res.kind is OptimalKind.UNIQUE

    def test_tie_tol_band_is_inclusive_at_both_roots(self):
        # the band is the computed distance to the root, so its edge is exact
        # in floats: a delta exactly tie_tol away ties, and one float step
        # less of band leaves the member on that side
        for beta0, m, delta, kind, beyond in [
            (3, 1, 0.6, OptimalKind.TIE_ALL, (1,)),  # k = 0: the roots coincide
            (3, 1, 0.65, OptimalKind.TIE_ALL, (math.inf,)),
            (5, 2, 0.6, OptimalKind.TIE_LOW, (1,)),
            (5, 2, 0.65, OptimalKind.TIE_LOW, (2,)),
            (5, 2, 0.7, OptimalKind.TIE_HIGH, (2,)),
            (5, 2, 0.8, OptimalKind.TIE_HIGH, (math.inf,)),
        ]:
            inst = ProblemInstance(1, beta0, m, delta)
            res = classify(inst)
            high = kind is OptimalKind.TIE_HIGH
            near, far = (res.z_high, res.z_low) if high else (res.z_low, res.z_high)
            tol = abs(delta - near)
            assert kind is OptimalKind.TIE_ALL or abs(delta - far) > tol
            assert classify(inst, tie_tol=tol).kind is kind, (beta0, delta)
            narrow = classify(inst, tie_tol=math.nextafter(tol, 0.0))
            assert (narrow.kind, narrow.members) == (OptimalKind.UNIQUE, beyond), (beta0, delta)

    def test_rejects_negative_tie_tol(self):
        with pytest.raises(ValueError):
            classify(ProblemInstance(1, 3, 1, 0.5), tie_tol=-1.0)

    @pytest.mark.parametrize("tie_tol", [math.nan, math.inf, True, "0.5", None])
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

    @pytest.mark.parametrize("n_max", [True, 2.5, 3.0, "3", None])
    def test_rejects_bool_and_non_int_n(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            verify_ordering(ProblemInstance(1, 3, 1, 0.5), n_max)

    @pytest.mark.parametrize("n_max", [2, 7, 20])
    def test_prices_each_member_once(self, monkeypatch, n_max):
        # one payoff call per member, for the prior the argmax compares
        priced = []

        def counted(x, delta):
            priced.append(x)
            return payoff(x, delta)

        monkeypatch.setattr("sandbag.solver.payoff", counted)
        inst = ProblemInstance(2, 9, 2, 0.7)
        q, _ = split_slack(2, 9, 2)
        assert verify_ordering(inst, n_max).agrees
        assert len(priced) == n_max + 1
        members = [*range(1, n_max + 1), math.inf]
        assert priced == [frontier_strategy(2 + q, 9, inst.threshold, i) for i in members]

    @pytest.mark.parametrize(
        "alpha0,beta0,m,delta", [(1, 100001, 1, 0.7), (1, 300000, 3, 0.9), (1, 10**6, 8, 0.99)]
    )
    def test_agrees_at_large_q(self, alpha0, beta0, m, delta):
        # the members differ by delta**q times their tails' gaps: below float resolution
        # of the q-success head they share
        inst = ProblemInstance(alpha0, beta0, m, delta)
        rep = verify_ordering(inst, 6)
        assert rep.agrees
        assert rep.argmax == (math.inf,)

    def test_agrees_on_seeded_large_prior_grid(self):
        rng = random.Random(20240601)
        checked = 0
        while checked < 2000:
            m = rng.randint(1, 9)
            beta0 = m + int(10 ** rng.uniform(0, 6))
            alpha0 = rng.randint(1, beta0 // m)  # q = (beta0 - m*alpha0) // m spans 0..~10^6
            if rng.random() < 0.5:
                delta = rng.uniform(0.01, 0.999)
            else:
                delta = 1.0 - 10 ** rng.uniform(-3.0, -0.5)
            k = (beta0 - m * alpha0) % m
            # keep clear of the tie band around each root, where classify reports a tie
            if any(abs(delta - breakeven_discount(n).z) <= 1e-6 for n in {m, m - k} if n):
                continue
            checked += 1
            inst = ProblemInstance(alpha0, beta0, m, delta)
            assert verify_ordering(inst, 6).agrees, (alpha0, beta0, m, delta)
