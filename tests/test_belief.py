"""Exact-arithmetic belief tracking and cutoff logic."""

import math
from fractions import Fraction

import pytest

from sandbag import Action, BeliefState, Threshold, decompose
from sandbag.belief import check_delta, start_slack


class TestThreshold:
    def test_reduces_to_lowest_terms(self):
        t = Threshold(2, 4)
        assert (t.num, t.den) == (1, 2)

    def test_from_m(self):
        assert Threshold.from_m(1) == Threshold(1, 2)
        assert Threshold.from_m(3) == Threshold(1, 4)

    def test_as_fraction(self):
        assert Threshold(3, 9).as_fraction == Fraction(1, 3)

    @pytest.mark.parametrize("num,den", [(0, 2), (2, 2), (3, 2), (-1, 2), (1, 0), (1, -3)])
    def test_rejects_out_of_range(self, num, den):
        with pytest.raises(ValueError):
            Threshold(num, den)

    def test_from_m_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Threshold.from_m(0)

    @pytest.mark.parametrize("m", [True, False, 2.0, 1.5, 0, -1])
    def test_from_m_rejects_bool_and_non_int(self, m):
        with pytest.raises(ValueError, match=r"m must be an integer >= 1"):
            Threshold.from_m(m)

    @pytest.mark.parametrize("num,den", [(True, 2), (1.5, 3), (1, 3.0), (2.0, 4)])
    def test_rejects_bool_and_non_int_terms(self, num, den):
        with pytest.raises(ValueError, match="integers"):
            Threshold(num, den)


class TestBeliefState:
    def test_prior_mean(self):
        assert BeliefState(1, 3).posterior_mean == Fraction(1, 4)

    def test_mean_after_one_success(self):
        assert BeliefState(1, 3, successes=1).posterior_mean == Fraction(2, 5)

    def test_mean_mixed_counts(self):
        assert BeliefState(2, 7, successes=1, failures=2).posterior_mean == Fraction(1, 4)

    def test_update_success(self):
        b = BeliefState(1, 3).update(Action.SUCCESS)
        assert (b.successes, b.failures) == (1, 0)

    def test_update_failure(self):
        b = BeliefState(1, 3).update(Action.FAILURE)
        assert (b.successes, b.failures) == (0, 1)

    def test_update_order_independent(self):
        b = BeliefState(1, 3)
        sf = b.update(Action.SUCCESS).update(Action.FAILURE)
        fs = b.update(Action.FAILURE).update(Action.SUCCESS)
        assert sf == fs

    def test_update_rejects_junk(self):
        with pytest.raises(ValueError):
            BeliefState(1, 3).update("x")

    @pytest.mark.parametrize("alpha0,beta0", [(0, 3), (1, 0), (-1, 2)])
    def test_rejects_bad_prior(self, alpha0, beta0):
        with pytest.raises(ValueError):
            BeliefState(alpha0, beta0)

    @pytest.mark.parametrize("alpha0,beta0", [(True, 3), (1, True), (1.5, 3), (1, 3.0)])
    def test_rejects_bool_and_non_int_prior(self, alpha0, beta0):
        with pytest.raises(ValueError, match="pseudo-counts"):
            BeliefState(alpha0, beta0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            BeliefState(1, 3, successes=-1)

    def test_mean_monotone_in_counts(self):
        base = BeliefState(2, 5, successes=3, failures=4)
        assert base.update(Action.SUCCESS).posterior_mean > base.posterior_mean
        assert base.update(Action.FAILURE).posterior_mean < base.posterior_mean


class TestWithinThreshold:
    def test_boundary_counts_as_within(self):
        # 3/6 is exactly 1/2, the monitor keeps playing
        assert BeliefState(1, 3, successes=2).within_threshold(Threshold(1, 2))

    def test_strictly_above_is_out(self):
        assert not BeliefState(1, 3, successes=3).within_threshold(Threshold(1, 2))

    def test_prior_within(self):
        assert BeliefState(2, 7).within_threshold(Threshold(1, 4))

    def test_matches_exact_fraction_comparison_exhaustively(self):
        thresholds = [
            Threshold(num, den) for den in range(2, 7) for num in range(1, den)
        ]
        for alpha0 in range(1, 6):
            for beta0 in range(1, 6):
                for ns in range(0, 31):
                    for nf in range(0, 31):
                        b = BeliefState(alpha0, beta0, ns, nf)
                        mean = Fraction(alpha0 + ns, alpha0 + ns + beta0 + nf)
                        for c in thresholds:
                            assert b.within_threshold(c) == (mean <= c.as_fraction)

    def test_slack_sign_tracks_within(self):
        c = Threshold(2, 5)
        for ns in range(0, 12):
            for nf in range(0, 12):
                b = BeliefState(1, 2, ns, nf)
                assert (b.slack(c) >= 0) == b.within_threshold(c)

    def test_slack_step_sizes(self):
        c = Threshold(1, 2)
        b = BeliefState(1, 3)
        assert b.slack(c) == 2
        assert b.update(Action.SUCCESS).slack(c) == 1  # success costs den - num
        assert b.update(Action.FAILURE).slack(c) == 3  # failure pays num


class TestStartSlack:
    def test_generated_grid(self):
        # every cutoff num/den in lowest terms with den <= 12; m = den - 1
        # is the 1/(m+1) case, where the slack is m*q + k
        for den in range(2, 13):
            for num in (n for n in range(1, den) if math.gcd(n, den) == 1):
                c = Threshold(num, den)
                for alpha0 in range(1, 41):
                    for beta0 in range(1, 41):
                        if Fraction(alpha0, alpha0 + beta0) > c.as_fraction:
                            with pytest.raises(ValueError, match="prior mean exceeds threshold"):
                                start_slack(alpha0, beta0, num, den)
                            continue
                        slack = start_slack(alpha0, beta0, num, den)
                        assert slack == BeliefState(alpha0, beta0).slack(c)
                        if num == 1:
                            dec = decompose(beta0, den - 1)
                            assert divmod(slack, den - 1) == (dec.r - alpha0, dec.k)

    @pytest.mark.parametrize(
        "alpha0,beta0", [(0, 3), (-2, 3), (1, 0), (True, 3), (1, False), (1.0, 3), (1, 3.0)]
    )
    def test_rejects_bad_pseudo_counts(self, alpha0, beta0):
        with pytest.raises(ValueError, match="pseudo-counts"):
            start_slack(alpha0, beta0, 1, 2)

    @pytest.mark.parametrize("num,den", [(1, 1), (0, 2), (2, 2), (1, 0), (-1, 2)])
    def test_rejects_cutoff_outside_unit_interval(self, num, den):
        # a 1/(m+1) closed form with m < 1 reaches the gate as one of these
        with pytest.raises(ValueError, match="threshold"):
            start_slack(1, 3, num, den)

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5, math.nan, math.inf])
    def test_check_delta_rejects(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
            check_delta(delta)

    @pytest.mark.parametrize("delta", [0.0, 0.5, math.nextafter(1.0, 0.0)])
    def test_check_delta_accepts(self, delta):
        check_delta(delta)


class TestMinFailures:
    def test_needs_one_after_two_successes(self):
        b = BeliefState(1, 3, successes=2)
        assert b.min_failures_for_next_success(Threshold(1, 2)) == 1

    def test_zero_when_success_affordable(self):
        assert BeliefState(1, 3).min_failures_for_next_success(Threshold(1, 2)) == 0

    def test_two_needed_from_tight_prior(self):
        assert BeliefState(2, 7).min_failures_for_next_success(Threshold(1, 4)) == 2

    def test_minimality_on_grid(self):
        cases = [
            (a, b, Threshold(num, den), ns, nf)
            for a in (1, 2, 3)
            for b in (1, 3, 7)
            for den in (2, 3, 5)
            for num in (1, den - 1)
            for ns in (0, 1, 4)
            for nf in (0, 2, 6)
        ]
        for a, b0, c, ns, nf in cases:
            b = BeliefState(a, b0, ns, nf)
            d = b.min_failures_for_next_success(c)
            after = BeliefState(a, b0, ns + 1, nf + d)
            assert after.within_threshold(c)
            if d >= 1:
                barely = BeliefState(a, b0, ns + 1, nf + d - 1)
                assert not barely.within_threshold(c)
