"""Brute-force oracles: tree search, layered DP, value iteration."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandbag import (
    Action,
    LimitExceededError,
    ProblemInstance,
    Threshold,
    classify,
    dp_value,
    exhaustive_best,
    frontier_payoff,
    value_iteration,
)
from sandbag import oracle
from sandbag.cli import main

C_HALF = Threshold(1, 2)


def seq_text(result) -> str:
    return "".join(a.value for a in result.best_sequence)


def _random_cases(rng, n, last):
    """n (alpha0, beta0, c, delta, last(rng)) with a prior within a cutoff of
    den <= 9; delta is the int 0, 0.0, -0.0, rounded, random or in [0.99, 0.999]."""
    cases = []
    for _ in range(n):
        den = rng.randint(2, 9)
        c = Threshold(rng.randint(1, den - 1), den)
        alpha0 = rng.randint(1, 4)
        beta0 = -(-(c.den - c.num) * alpha0 // c.num) + rng.randint(0, 6)
        delta = rng.choice(
            [0, 0.0, -0.0, round(rng.random() * 0.999, 3), rng.random() * 0.999,
             rng.uniform(0.99, 0.999)]
        )
        cases.append((alpha0, beta0, c, delta, last(rng)))
    return cases


def _draw_prior_and_cutoff(data, extra, max_den=12):
    """(alpha0, beta0, c) with den <= ``max_den`` and a prior ``extra``
    failures past the least beta0 the cutoff admits."""
    den = data.draw(st.integers(2, max_den), label="den")
    c = Threshold(data.draw(st.integers(1, den - 1), label="num"), den)
    alpha0 = data.draw(st.integers(1, 4), label="alpha0")
    beta0 = -(-(c.den - c.num) * alpha0 // c.num) + data.draw(extra, label="beta0 past the least")
    return alpha0, beta0, c


def _unfolded_walk(alpha0, beta0, c, delta, horizon):
    """The tree walk with a call for every node down to the last period,
    each returning its sequence as nested (action, rest) pairs."""
    gain, short = c.num, c.den - c.num

    def best(slack, periods_left):
        if periods_left == 0:
            return 0.0, None
        s_slack = slack - short
        if s_slack >= 0:
            sub_value, s_rest = best(s_slack, periods_left - 1)
            s_value = 1.0 + delta * sub_value
        else:
            s_value, s_rest = 1.0, None  # crossing success ends the game
        f_sub_value, f_rest = best(slack + gain, periods_left - 1)
        f_value = delta * f_sub_value
        if s_value >= f_value:
            return s_value, (Action.SUCCESS, s_rest)
        return f_value, (Action.FAILURE, f_rest)

    value, node = best(c.num * beta0 - (c.den - c.num) * alpha0, horizon)
    seq = []
    while node is not None:
        action, node = node
        seq.append(action)
    return value, tuple(seq)


def _vi_reference(alpha0, beta0, c, delta, tol):
    """Value iteration that takes ``max`` per state and tests the full
    sup-norm step after every sweep."""
    slack0 = c.num * beta0 - (c.den - c.num) * alpha0
    short = c.den - c.num
    cap = max(slack0, short + c.num - 1) + c.num
    f_child = [min(s + c.num, cap) for s in range(cap + 1)]
    w = [0.0] * (cap + 1)
    stop = tol * (1.0 - delta)
    for _ in range(10_000_000):
        w_next = [
            max(1.0 + delta * w[s - short] if s >= short else 1.0, delta * w[f])
            for s, f in enumerate(f_child)
        ]
        if max(abs(a - b) for a, b in zip(w_next, w)) <= stop:
            return w_next[slack0]
        w = w_next
    raise RuntimeError("value iteration failed to converge")


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

    def test_full_tree_at_the_horizon_cap_solves_each_state_once(self, capsys, monkeypatch):
        """From Beta(1, 100) at cutoff 1/2 no success crosses within 25
        periods, so the tree has 2**26 - 1 nodes but at most 26*27/2 distinct
        (slack, periods_left) states, each taking at most two slack steps."""
        step, calls = Threshold.step, []

        def counted(self, *args):
            calls.append(args)
            if len(calls) > 26 * 27:
                raise AssertionError("a state was solved more than once")
            return step(self, *args)

        monkeypatch.setattr(Threshold, "step", counted)
        res = exhaustive_best(1, 100, C_HALF, 0.5, 25)
        assert res.value.hex() == dp_value(1, 100, C_HALF, 0.5, 25).hex()
        assert seq_text(res) == "s" * 25
        calls.clear()
        code = main(["oracle", "--alpha", "1", "--beta", "100", "--c-num", "1", "--c-den", "2",
                     "--delta", "0.5", "--mode", "exhaustive", "--horizon", "25"])
        assert (code, capsys.readouterr().err) == (0, "")

    def test_rejects_high_prior(self):
        with pytest.raises(ValueError, match="exceeds threshold"):
            exhaustive_best(3, 1, C_HALF, 0.5, 5)

    def test_matches_tuple_copying_reference(self):
        """Value bit for bit and sequence equal to the plain recursion that
        copies each subsequence, at general cutoffs, delta 0 and an exact tie."""

        def reference(alpha0, beta0, c, delta, horizon):
            gain, short = c.num, c.den - c.num

            def best(slack, periods_left):
                if periods_left == 0:
                    return 0.0, ()
                s_slack = slack - short
                if s_slack >= 0:
                    sub_value, sub_seq = best(s_slack, periods_left - 1)
                    s_value = 1.0 + delta * sub_value
                    s_seq = (Action.SUCCESS, *sub_seq)
                else:
                    s_value = 1.0  # crossing success ends the game
                    s_seq = (Action.SUCCESS,)
                f_sub_value, f_sub_seq = best(slack + gain, periods_left - 1)
                f_value = delta * f_sub_value
                if s_value >= f_value:
                    return s_value, s_seq
                return f_value, (Action.FAILURE, *f_sub_seq)

            return best(c.num * beta0 - (c.den - c.num) * alpha0, horizon)

        # at this delta "s" and "fss" from Beta(2, 1), c = 2/3, both score 1.0
        cases = [(2, 1, Threshold(2, 3), 0.5436890126920764, h) for h in (1, 4, 9)]
        cases += [(1, 3, C_HALF, 0.95, 14)]
        cases += _random_cases(random.Random(5), 250, lambda rng: rng.randint(0, 14))
        for case in cases:
            res = exhaustive_best(*case)
            value, seq = reference(*case)
            assert (res.value.hex(), res.best_sequence) == (value.hex(), seq), case

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_unfolded_walk(self, data):
        """Value bit for bit and sequence equal to the walk that calls itself
        for every node of the tree, with no cache, at every horizon up to 16."""
        alpha0, beta0, c = _draw_prior_and_cutoff(data, st.integers(0, 24))
        delta = data.draw(
            st.sampled_from([0, 0.0, -0.0, 0.5, 0.999]) | st.floats(0, 0.999), label="delta"
        )
        horizon = data.draw(st.sampled_from([0, 1, 2, 3]) | st.integers(0, 16), label="horizon")
        res = exhaustive_best(alpha0, beta0, c, delta, horizon)
        value, seq = _unfolded_walk(alpha0, beta0, c, delta, horizon)
        assert (res.value.hex(), res.best_sequence) == (value.hex(), seq)

    def test_pinned_bits(self):
        res = exhaustive_best(1, 3, C_HALF, 0.95, 22)
        assert res.value.hex() == "0x1.e6fc152e3487cp+2"
        assert seq_text(res) == "ssfsfsfsfsfsfsfsfsfss"

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

    def test_matches_per_state_max_reference(self):
        """Bit for bit equal to the plain recursion, ``max`` taken per state,
        at general cutoffs, delta 0 and horizons past the tree's reach."""

        def reference(alpha0, beta0, c, delta, horizon):
            slack0 = c.num * beta0 - (c.den - c.num) * alpha0
            values = [0.0] * (horizon + 1)
            for used in range(horizon - 1, -1, -1):
                last = (slack0 + c.num * used - (c.den - c.num)) // c.den
                values = [
                    max(1.0 + delta * values[ns + 1] if ns <= last else 1.0, delta * values[ns])
                    for ns in range(used + 1)
                ]
            return values[0]

        cases = [(1, 3, C_HALF, d, 200) for d in (0.3, 0.8, 0.998)]
        cases += _random_cases(random.Random(3), 300, lambda rng: rng.randint(0, 60))
        for case in cases:
            assert dp_value(*case).hex() == reference(*case).hex(), case

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


@pytest.mark.parametrize("oracle", [exhaustive_best, dp_value])
@pytest.mark.parametrize("horizon", [True, False, 2.0, 1.5, "3", None])
def test_rejects_bool_and_non_int_horizon(oracle, horizon):
    # True == 1: exhaustive_best ran it as horizon 1 and reported horizon=True
    with pytest.raises(ValueError, match="horizon must be an integer"):
        oracle(1, 3, C_HALF, 0.5, horizon)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, True, "0.5", None])
    def test_rejects_nonfinite_tol(self, tol):
        # nan never met the stopping test; inf stopped after one sweep
        with pytest.raises(ValueError, match="finite"):
            value_iteration(1, 3, C_HALF, 0.5, tol=tol)

    def test_rejects_high_prior(self):
        with pytest.raises(ValueError, match="exceeds threshold"):
            value_iteration(3, 1, C_HALF, 0.5)

    def test_a_stop_below_half_an_ulp_runs_to_the_float_fixed_point(self):
        # tol*(1 - delta) is below half an ulp of every value, at 5e-324 and at
        # 1e-15 alike: both stop where w no longer changes, after about 31,000
        # sweeps, which the estimate, with its stop floored at 2**-53, admits
        c = Threshold(1, 12)
        got = value_iteration(1, 12, c, 0.999, 5e-324)
        assert got.hex() == value_iteration(1, 12, c, 0.999, 1e-15).hex()

    def test_matches_per_state_max_reference(self):
        """Bit for bit equal to the sweep that takes ``max`` per state, at
        general cutoffs, delta 0 (int and float), -0.0 and near 1."""

        cases = [(1, 400, C_HALF, 0.9, 1e-13), (1, 3, C_HALF, 0, 1e-10), (1, 3, C_HALF, -0.0, 1e-6)]
        cases += _random_cases(random.Random(7), 100, lambda rng: rng.choice([1e-6, 1e-10, 1e-13]))
        for case in cases:
            assert value_iteration(*case).hex() == _vi_reference(*case).hex(), case

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data(), near_one=st.booleans())
    def test_generated_inputs_match_per_state_max_reference(self, data, near_one):
        """Bit for bit equal to the per-state ``max`` sweep, which tests the
        full step after every sweep: delta within 1e-3 of 1 half the time,
        the extreme tolerances, and slack caps up to the work cap, lowered
        here so that the reference takes at most about 0.2 s."""
        if near_one:  # few slack states, so that the sweeps fit the work cap
            alpha0, beta0, c = _draw_prior_and_cutoff(data, st.integers(0, 3), max_den=4)
            delta = 1.0 - data.draw(st.floats(5e-4, 1e-3), label="1 - delta")
        else:
            alpha0, beta0, c = _draw_prior_and_cutoff(data, st.integers(0, 6) | st.integers(40, 400))
            delta = data.draw(st.sampled_from([0, -0.0]) | st.floats(0.001, 0.999), label="delta")
        tol = data.draw(
            st.sampled_from([1e-15, 1e300, 5e-324])
            | st.integers(-160, -40).map(lambda tenths: 10.0 ** (tenths / 10)),
            label="tol",
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "VI_WORK_LIMIT", 300_000)
            try:
                got = value_iteration(alpha0, beta0, c, delta, tol)
            except LimitExceededError:
                return
        assert got.hex() == _vi_reference(alpha0, beta0, c, delta, tol).hex()

    def test_pinned_bits(self):
        got = value_iteration(1, 400, C_HALF, 0.9, tol=1e-13)
        assert got.hex() == "0x1.3ffffffffffe7p+3"  # 9.999999999999956


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
