"""Trajectory playback: fixed schedules and seeded guessers."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandbag import (
    Action,
    BeliefState,
    GuesserConfig,
    Threshold,
    frontier_strategy,
    parse_strategy,
    play_guesser,
    play_strategy,
)

C_HALF = Threshold(1, 2)


class TestPlayStrategy:
    def test_reference_walk(self):
        traj = play_strategy(1, 3, C_HALF, parse_strategy("ssfss"), delta=0.5)
        means = [r.posterior_mean for r in traj.records]
        assert means == [
            Fraction(2, 5),
            Fraction(1, 2),
            Fraction(3, 7),
            Fraction(1, 2),
            Fraction(5, 9),
        ]
        assert traj.terminated and traj.termination_period == 5
        assert traj.discounted_payoff == pytest.approx(1.6875, abs=1e-15)

    def test_crossing_flags(self):
        traj = play_strategy(1, 3, C_HALF, parse_strategy("sss"), delta=0.5)
        assert [r.crossed for r in traj.records] == [False, False, True]
        assert traj.records[-1].posterior_mean == Fraction(4, 7)
        assert traj.discounted_payoff == pytest.approx(1.75, abs=1e-15)

    def test_family_members_terminate_at_their_length(self):
        for alpha0, beta0, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3)]:
            c = Threshold.from_m(m)
            for i in (1, 2, 3, 5):
                h = frontier_strategy(alpha0, beta0, c, i)
                traj = play_strategy(alpha0, beta0, c, h)
                assert traj.terminated
                assert traj.termination_period == h.length
                assert traj.records[-1].posterior_mean > Fraction(c.num, c.den)

    def test_infinite_member_survives(self):
        h = frontier_strategy(1, 3, C_HALF, math.inf)
        traj = play_strategy(1, 3, C_HALF, h, max_periods=2000)
        assert not traj.terminated
        assert len(traj.records) == 2000
        assert all(r.posterior_mean <= Fraction(1, 2) for r in traj.records)

    def test_incomplete_finite_schedule_rejected(self):
        with pytest.raises(ValueError, match="incomplete strategy"):
            play_strategy(1, 3, C_HALF, parse_strategy("ss"))

    def test_finite_schedule_crossing_early_stops(self):
        # crossing happens at period 3 even though the text continues
        traj = play_strategy(1, 3, C_HALF, parse_strategy("sssff"))
        assert traj.terminated and traj.termination_period == 3

    def test_max_periods_ignored_for_finite(self):
        traj = play_strategy(1, 3, C_HALF, parse_strategy("ssfss"), max_periods=2)
        assert traj.terminated and traj.termination_period == 5

    def test_replay_reproduces_means(self):
        h = frontier_strategy(2, 7, Threshold(1, 4), 4)
        traj = play_strategy(2, 7, Threshold(1, 4), h)
        state = BeliefState(2, 7)
        for rec in traj.records:
            state = state.update(rec.action)
            assert state.posterior_mean == rec.posterior_mean

    def test_crossed_only_on_final_success(self):
        traj = play_strategy(1, 5, Threshold(1, 3), parse_strategy("sfss"))
        assert [r.crossed for r in traj.records].count(True) == 1
        assert traj.records[-1].crossed and traj.records[-1].action is Action.SUCCESS

    def test_rejects_bad_max_periods(self):
        with pytest.raises(ValueError):
            play_strategy(1, 3, C_HALF, parse_strategy("sss"), max_periods=0)

    @pytest.mark.parametrize("strategy", ["sss", "(fs)*"])
    @pytest.mark.parametrize("max_periods", [True, 2.5, 3.0, None])
    def test_rejects_bool_and_non_int_max_periods(self, strategy, max_periods):
        with pytest.raises(ValueError, match="max_periods must be an integer"):
            play_strategy(1, 3, C_HALF, parse_strategy(strategy), max_periods=max_periods)

    def test_rejects_prior_above_cutoff(self):
        with pytest.raises(ValueError, match="exceeds threshold"):
            play_strategy(3, 1, C_HALF, parse_strategy("s"))

    def test_no_delta_no_payoff(self):
        traj = play_strategy(1, 3, C_HALF, parse_strategy("sss"))
        assert traj.discounted_payoff is None


class TestPlayGuesser:
    def test_deterministic_for_fixed_seed(self):
        cfg = GuesserConfig(0.5, 12345)
        a = play_guesser(1, 3, C_HALF, cfg, max_periods=500)
        b = play_guesser(1, 3, C_HALF, cfg, max_periods=500)
        assert a == b

    def test_different_seeds_differ(self):
        a = play_guesser(1, 3, C_HALF, GuesserConfig(0.5, 1), max_periods=200)
        b = play_guesser(1, 3, C_HALF, GuesserConfig(0.5, 2), max_periods=200)
        texts = ["".join(r.action.value for r in t.records) for t in (a, b)]
        assert texts[0] != texts[1]

    def test_never_succeeding_never_terminates(self):
        traj = play_guesser(1, 3, C_HALF, GuesserConfig(0.0, 9), max_periods=300)
        assert not traj.terminated
        assert all(r.action is Action.FAILURE for r in traj.records)
        assert len(traj.records) == 300

    def test_always_succeeding_matches_all_success_schedule(self):
        traj = play_guesser(1, 3, C_HALF, GuesserConfig(1.0, 9), max_periods=300)
        fixed = play_strategy(1, 3, C_HALF, parse_strategy("sss"))
        assert traj.terminated and traj.termination_period == 3
        assert [r.posterior_mean for r in traj.records] == [
            r.posterior_mean for r in fixed.records
        ]

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            GuesserConfig(1.2, 0)

    @pytest.mark.parametrize("p_true", [True, False, "0.5", None])
    def test_rejects_bool_and_non_number_p(self, p_true):
        with pytest.raises(ValueError, match="p_true"):
            GuesserConfig(p_true, 1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, None, "7"])
    def test_rejects_bool_and_non_int_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            GuesserConfig(0.3, seed)

    @pytest.mark.parametrize("max_periods", [True, 2.5, 0.0, 0, -1])
    def test_rejects_bad_max_periods(self, max_periods):
        with pytest.raises(ValueError, match="max_periods"):
            play_guesser(1, 3, C_HALF, GuesserConfig(0.5, 1), max_periods=max_periods)

    def test_payoff_accounting_matches_records(self):
        traj = play_guesser(1, 3, C_HALF, GuesserConfig(0.6, 77), delta=0.9, max_periods=50)
        want = sum(
            0.9 ** (r.period - 1) for r in traj.records if r.action is Action.SUCCESS
        )
        assert traj.discounted_payoff == pytest.approx(want, abs=1e-15)


@st.composite
def _replays(draw):
    """A prior within a cutoff of den <= 12, and a source: a finite word
    (padded with successes until it must cross), h^1, h^2 or h^inf, or a
    seeded guesser."""
    den = draw(st.integers(2, 12))
    c = Threshold(draw(st.integers(1, den - 1)), den)
    alpha0 = draw(st.integers(1, 20))
    beta0 = -(-(c.den - c.num) * alpha0 // c.num) + draw(st.integers(0, 30))
    max_periods = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["word", 1, 2, math.inf, "guesser"]))
    if kind == "guesser":
        cfg = GuesserConfig(draw(st.floats(0, 1)), draw(st.integers(0, 2**32)))
        return alpha0, beta0, c, cfg, max_periods
    if kind == "word":
        word = draw(st.text("sf", max_size=40))
        slack = c.num * beta0 - (c.den - c.num) * alpha0 + c.num * len(word)
        x = parse_strategy(word + "s" * (slack // (c.den - c.num) + 1))
    else:
        x = frontier_strategy(alpha0, beta0, c, kind)
    return alpha0, beta0, c, x, max_periods


def _source(x, max_periods):
    """The actions a replay reads, expanded from the runs or drawn afresh."""
    if isinstance(x, GuesserConfig):
        rng = random.Random(x.seed)
        draws = (Action.SUCCESS if rng.random() < x.p_true else Action.FAILURE for _ in itertools.count())
        return itertools.islice(draws, max_periods)
    prefix = [a for a, n in x.prefix_runs for _ in range(n)]
    if x.cycle_runs is None:
        return prefix
    cycle = [a for a, n in x.cycle_runs for _ in range(n)]
    return itertools.islice(itertools.chain(prefix, itertools.cycle(cycle)), max_periods)


@settings(derandomize=True, max_examples=350, deadline=None)  # about 1 s
@given(_replays())
def test_records_equal_a_per_period_fraction_replay(case):
    """Every record is the mean Fraction(a0 + S_t, a0 + b0 + t) after period
    t, kept as coprime ints, and ``crossed`` is that mean's strict test
    against c: set once, on the last record, exactly when the run ends."""
    alpha0, beta0, c, x, max_periods = case
    play = play_guesser if isinstance(x, GuesserConfig) else play_strategy
    traj = play(alpha0, beta0, c, x, max_periods=max_periods)
    want, successes = [], 0
    for t, action in enumerate(_source(x, max_periods), start=1):
        successes += action is Action.SUCCESS
        mean = Fraction(alpha0 + successes, alpha0 + beta0 + t)
        want.append((t, action, mean, mean > Fraction(c.num, c.den)))
        if want[-1][3]:
            break
    assert [(r.period, r.action, r.posterior_mean, r.crossed) for r in traj.records] == want
    for r in traj.records:
        assert math.gcd(r.mean_num, r.mean_den) == 1
        assert r.posterior_mean == Fraction(r.mean_num, r.mean_den)
    crossed = [r.crossed for r in traj.records]
    assert crossed == [False] * (len(crossed) - 1) + [traj.terminated]
