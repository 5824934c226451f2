"""Brute-force oracles: tree search, layered DP, value iteration."""

import math

import pytest

from sandbag import (
    LimitExceededError,
    ProblemInstance,
    Threshold,
    classify,
    dp_value,
    exhaustive_best,
    frontier_payoff,
    value_iteration,
)

C_HALF = Threshold(1, 2)


def seq_text(result) -> str:
    return "".join(a.value for a in result.best_sequence)


class TestExhaustiveBest:
    def test_reference_instance(self):
        res = exhaustive_best(1, 3, C_HALF, 0.5, 12)
        assert res.value == pytest.approx(1.75, abs=1e-15)
        assert seq_text(res) == "sss"

    def test_impatient_crosses_immediately(self):
        res = exhaustive_best(2, 7, Threshold(1, 4), 0.3, 10)
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert seq_text(res) == "s"

    def test_delta_zero_only_first_period_counts(self):
        res = exhaustive_best(1, 3, C_HALF, 0.0, 5)
        assert res.value == 1.0

    def test_horizon_zero(self):
        res = exhaustive_best(1, 3, C_HALF, 0.5, 0)
        assert res.value == 0.0 and res.best_sequence == ()

    def test_sequence_never_ends_with_failure(self):
        for delta in (0.2, 0.5, 0.8):
            res = exhaustive_best(1, 4, Threshold(1, 3), delta, 9)
            assert not res.best_sequence or res.best_sequence[-1].value == "s"

    def test_guard_rail(self):
        with pytest.raises(LimitExceededError):
            exhaustive_best(1, 3, C_HALF, 0.5, 26)

    def test_rejects_high_prior(self):
        with pytest.raises(ValueError, match="exceeds threshold"):
            exhaustive_best(3, 1, C_HALF, 0.5, 5)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            exhaustive_best(1, 3, C_HALF, 1.0, 5)


class TestDpValue:
    def test_reference_instance(self):
        assert dp_value(1, 3, C_HALF, 0.5, 12) == pytest.approx(1.75, abs=1e-15)

    def test_horizon_zero(self):
        assert dp_value(1, 3, C_HALF, 0.5, 0) == 0.0

    def test_matches_exhaustive_exactly(self):
        # bit-for-bit equality, both run the same backward recursion
        for m in (1, 2, 3):
            c = Threshold.from_m(m)
            for alpha0 in (1, 2, 3):
                for beta0 in (1, 2, 3):
                    if alpha0 * m > beta0:
                        continue
                    for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
                        for horizon in (6, 10, 14):
                            a = exhaustive_best(alpha0, beta0, c, delta, horizon).value
                            b = dp_value(alpha0, beta0, c, delta, horizon)
                            assert a == b, (alpha0, beta0, m, delta, horizon)

    def test_long_horizon_matches_closed_form(self):
        got = dp_value(1, 5, Threshold(1, 3), 0.7, 40)
        want = frontier_payoff(1, 5, 2, 2, 0.7)
        assert abs(got - want) <= 0.7**40 / 0.3

    def test_nondecreasing_in_horizon_and_bounded(self):
        delta = 0.8
        prev = -1.0
        for horizon in range(0, 60, 5):
            v = dp_value(1, 3, C_HALF, delta, horizon)
            assert v >= prev
            assert v <= 1.0 / (1.0 - delta)
            prev = v

    def test_guard_rail(self):
        with pytest.raises(LimitExceededError):
            dp_value(1, 3, C_HALF, 0.5, 501)


class TestValueIteration:
    def test_infinite_regime(self):
        got = value_iteration(1, 3, C_HALF, 0.7)
        assert got == pytest.approx(121.0 / 51.0, abs=1e-8)

    def test_finite_optimum_is_fixed_point(self):
        assert value_iteration(1, 3, C_HALF, 0.5) == pytest.approx(1.75, abs=1e-8)

    def test_middle_regime(self):
        want = frontier_payoff(1, 5, 2, 2, 0.7)
        assert value_iteration(1, 5, Threshold(1, 3), 0.7) == pytest.approx(want, abs=1e-8)

    def test_gap_to_dp_within_tail_bound(self):
        for delta in (0.4, 0.7, 0.9):
            vi = value_iteration(1, 3, C_HALF, delta)
            for horizon in (20, 60):
                dp = dp_value(1, 3, C_HALF, delta, horizon)
                assert dp <= vi + 1e-8
                assert vi - dp <= delta**horizon / (1.0 - delta) + 1e-8

    def test_large_initial_slack(self):
        # slack cap well above the padding band; agreement with a deep DP
        got = value_iteration(1, 60, C_HALF, 0.6)
        want = dp_value(1, 60, C_HALF, 0.6, 400)
        assert abs(got - want) <= 0.6**400 / 0.4 + 1e-8

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            value_iteration(1, 3, C_HALF, 0.5, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_nonfinite_tol(self, tol):
        # nan never met the stopping test; inf stopped after one sweep
        with pytest.raises(ValueError, match="finite"):
            value_iteration(1, 3, C_HALF, 0.5, tol=tol)

    def test_rejects_high_prior(self):
        with pytest.raises(ValueError, match="exceeds threshold"):
            value_iteration(3, 1, C_HALF, 0.5)


class TestOracleAgainstSolver:
    def test_best_sequence_matches_classified_member(self):
        # away from the roots the optimum is unique; the tree search must
        # find exactly the classified member when it fits the horizon
        from sandbag import format_strategy, frontier_strategy

        cases = [
            (1, 3, 1, 0.5),
            (1, 3, 1, 0.3),
            (1, 5, 2, 0.7),
            (1, 5, 2, 0.4),
            (2, 7, 3, 0.3),
        ]
        for alpha0, beta0, m, delta in cases:
            res = classify(ProblemInstance(alpha0, beta0, m, delta))
            (idx,) = res.members
            assert idx != math.inf
            c = Threshold.from_m(m)
            member = frontier_strategy(alpha0, beta0, c, idx)
            found = exhaustive_best(alpha0, beta0, c, delta, member.length + 2)
            assert seq_text(found) == format_strategy(member)

    def test_truncated_value_in_patient_regime(self):
        res = classify(ProblemInstance(1, 3, 1, 0.8))
        assert res.members == (math.inf,)
        dp = dp_value(1, 3, C_HALF, 0.8, 200)
        assert abs(dp - res.payoffs[math.inf]) <= 0.8**200 / 0.2 + 1e-9
