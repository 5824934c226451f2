"""Exact-arithmetic belief tracking and cutoff logic."""

import math
from fractions import Fraction

import pytest

from sandbag import (
    Action,
    BeliefState,
    GuesserConfig,
    ProblemInstance,
    Threshold,
    breakeven_discount,
    classify,
    dp_value,
    exhaustive_best,
    frontier_strategy,
    greedy_violations,
    is_feasible,
    parse_strategy,
    play_guesser,
    play_strategy,
    value_iteration,
    verify_ordering,
)
from sandbag.belief import check_delta, split_slack, start_slack


class TestThreshold:
    def test_reduces_to_lowest_terms(self):
        t = Threshold(2, 4)
        assert (t.num, t.den) == (1, 2)

    def test_from_m(self):
        assert Threshold.from_m(1) == Threshold(1, 2)
        assert Threshold.from_m(3) == Threshold(1, 4)

    @pytest.mark.parametrize("num,den", [(0, 2), (1, 1), (2, 2), (3, 2), (-1, 2), (1, 0), (1, -3)])
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
        if type(num) is not int:
            message = "^threshold numerator must be an integer$"
        else:
            message = "^threshold denominator must be an integer >= 1$"
        with pytest.raises(ValueError, match=message):
            Threshold(num, den)

    @pytest.mark.parametrize("outcome", ["s", "f", "x", None, 5, 1.0, True])
    def test_step_refuses_a_non_action(self, outcome):
        with pytest.raises(ValueError, match="outcome must be an Action"):
            Threshold(1, 2).step(5, outcome)


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
        # the text "s" and "f" too, as Threshold.step and Strategy refuse it
        for outcome in ("x", "s", "f", None):
            with pytest.raises(ValueError, match="must be an Action"):
                BeliefState(1, 3).update(outcome)

    @pytest.mark.parametrize("alpha0,beta0", [(0, 3), (1, 0), (-1, 2)])
    def test_rejects_bad_prior(self, alpha0, beta0):
        with pytest.raises(ValueError):
            BeliefState(alpha0, beta0)

    @pytest.mark.parametrize("alpha0,beta0", [(True, 3), (1, True), (1.5, 3), (1, 3.0)])
    def test_rejects_bool_and_non_int_prior(self, alpha0, beta0):
        name = "alpha0" if type(alpha0) is not int else "beta0"
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
            BeliefState(alpha0, beta0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            BeliefState(1, 3, successes=-1)

    @pytest.mark.parametrize(
        "successes,failures", [(True, 0), (0, False), (1.5, 0), (0, 2.0), ("1", 0)]
    )
    def test_rejects_bool_and_non_int_counts(self, successes, failures):
        name = "successes" if type(successes) is not int else "failures"
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0$"):
            BeliefState(1, 3, successes, failures)

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
                            assert b.within_threshold(c) == (mean <= Fraction(c.num, c.den))

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


_INST = ProblemInstance(1, 3, 1, 0.5)

# each entry point with a tolerance: (call with that tolerance, message)
_TOLERANCES = {
    "breakeven_discount": (lambda t: breakeven_discount(2, tol=t),
                           "tol must be positive and finite"),
    "classify": (lambda t: classify(_INST, tie_tol=t), "tie_tol must be nonnegative and finite"),
    "verify_ordering": (lambda t: verify_ordering(_INST, 3, atol=t),
                        "atol must be nonnegative and finite"),
    "value_iteration": (lambda t: value_iteration(1, 3, Threshold(1, 2), 0.5, tol=t),
                        "tol must be positive and finite"),
}


@pytest.mark.parametrize("entry", _TOLERANCES)
@pytest.mark.parametrize(
    "tol",
    [10**400, -(10**400), math.nan, math.inf, -1, True, "1", None],
    ids=["1e400", "-1e400", "nan", "inf", "-1", "True", "str", "None"],
)
def test_tolerances_share_one_check(entry, tol):
    # exact comparisons: an int beyond float range gets ValueError, not OverflowError
    call, message = _TOLERANCES[entry]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(tol)


@pytest.mark.parametrize("entry", _TOLERANCES)
def test_tolerance_that_a_float_holds_is_taken(entry):
    call, _ = _TOLERANCES[entry]
    assert call(10**300) is not None and call(0.5) is not None


# each entry point that takes a cutoff c, called as (alpha0, beta0, c)
_CUTOFF_ENTRIES = {
    "frontier_strategy": lambda a, b, c: frontier_strategy(a, b, c, 1),
    "is_feasible": lambda a, b, c: is_feasible(parse_strategy("ffs"), a, b, c),
    "greedy_violations": lambda a, b, c: greedy_violations(parse_strategy("ffs"), a, b, c),
    "exhaustive_best": lambda a, b, c: exhaustive_best(a, b, c, 0.5, 3),
    "dp_value": lambda a, b, c: dp_value(a, b, c, 0.5, 3),
    "value_iteration": lambda a, b, c: value_iteration(a, b, c, 0.5),
    "play_strategy": lambda a, b, c: play_strategy(a, b, c, parse_strategy("ffs")),
    "play_guesser": lambda a, b, c: play_guesser(a, b, c, GuesserConfig(0.5, 1)),
}


@pytest.mark.parametrize("entry", _CUTOFF_ENTRIES)
@pytest.mark.parametrize("cutoff", [0.5, (1, 2), "1/2", None], ids=["float", "tuple", "str", "None"])
def test_cutoff_must_be_a_threshold(entry, cutoff):
    # refused at start_slack, not by an AttributeError deep in a walk
    with pytest.raises(ValueError, match="^cutoff must be a Threshold"):
        _CUTOFF_ENTRIES[entry](1, 3, cutoff)


# the same, plus h^inf and the 1/(m+1) split, which reach start_slack too
_PRIOR_ENTRIES = {
    **_CUTOFF_ENTRIES,
    "frontier_strategy_inf": lambda a, b, c: frontier_strategy(a, b, c, math.inf),
    "split_slack": lambda a, b, c: split_slack(a, b, c.den - 1),
}


@pytest.mark.parametrize("entry", _PRIOR_ENTRIES)
def test_prior_beyond_the_cutoff_gets_one_answer(entry):
    with pytest.raises(ValueError, match="^prior mean exceeds threshold$"):
        _PRIOR_ENTRIES[entry](3, 1, Threshold(1, 2))


class TestStartSlack:
    def test_generated_grid(self):
        # every cutoff num/den in lowest terms with den <= 12; m = den - 1
        # is the 1/(m+1) case, where the slack is m*q + k
        for den in range(2, 13):
            for num in (n for n in range(1, den) if math.gcd(n, den) == 1):
                c = Threshold(num, den)
                for alpha0 in range(1, 41):
                    for beta0 in range(1, 41):
                        if Fraction(alpha0, alpha0 + beta0) > Fraction(num, den):
                            with pytest.raises(ValueError, match="prior mean exceeds threshold"):
                                start_slack(alpha0, beta0, c)
                            continue
                        slack = start_slack(alpha0, beta0, c)
                        assert slack == BeliefState(alpha0, beta0).slack(c)
                        if num == 1:
                            r, k = divmod(beta0, den - 1)  # beta0 = m*r + k
                            assert divmod(slack, den - 1) == (r - alpha0, k)

    @pytest.mark.parametrize(
        "alpha0,beta0", [(0, 3), (-2, 3), (1, 0), (True, 3), (1, False), (1.0, 3), (1, 3.0)]
    )
    def test_rejects_bad_pseudo_counts(self, alpha0, beta0):
        name = "beta0" if type(alpha0) is int and alpha0 >= 1 else "alpha0"
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
            start_slack(alpha0, beta0, Threshold(1, 2))

    @pytest.mark.parametrize("num,den", [(1, 1), (0, 2), (2, 2), (1, 0), (-1, 2)])
    def test_rejects_cutoff_outside_unit_interval(self, num, den):
        # the range rule is Threshold's own; the gate takes no bare terms
        with pytest.raises(ValueError, match="threshold"):
            Threshold(num, den)
        with pytest.raises(ValueError, match="cutoff must be a Threshold"):
            start_slack(1, 3, (num, den))

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5, math.nan, math.inf, True, "0.5", None])
    def test_check_delta_rejects(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
            check_delta(delta)

    @pytest.mark.parametrize("delta", [0.0, 0.5, math.nextafter(1.0, 0.0)])
    def test_check_delta_accepts(self, delta):
        check_delta(delta)


class TestMinFailures:
    """Fewest failures before one more success keeps the mean within c:
    ``c.padding(state.slack(c))``."""

    def test_needs_one_after_two_successes(self):
        c = Threshold(1, 2)
        assert c.padding(BeliefState(1, 3, successes=2).slack(c)) == 1

    def test_zero_when_success_affordable(self):
        c = Threshold(1, 2)
        assert c.padding(BeliefState(1, 3).slack(c)) == 0

    def test_two_needed_from_tight_prior(self):
        c = Threshold(1, 4)
        assert c.padding(BeliefState(2, 7).slack(c)) == 2

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
            d = c.padding(b.slack(c))
            after = BeliefState(a, b0, ns + 1, nf + d)
            assert after.within_threshold(c)
            if d >= 1:
                barely = BeliefState(a, b0, ns + 1, nf + d - 1)
                assert not barely.within_threshold(c)
