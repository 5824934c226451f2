"""Strategy text forms, feasibility, greediness, and the frontier family."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from sandbag import (
    Action,
    BeliefState,
    Strategy,
    StrategyParseError,
    Threshold,
    format_strategy,
    frontier_strategy,
    greedy_violations,
    is_feasible,
    parse_strategy,
    strategy,
)
from sandbag.strategy import check_index

C_HALF = Threshold(1, 2)


def strat(text: str) -> Strategy:
    return parse_strategy(text)


class TestParseFormat:
    def test_finite(self):
        x = strat("ssfss")
        assert x.is_finite and x.length == 5
        assert x.prefix[2] is Action.FAILURE

    def test_infinite(self):
        x = strat("ssfs(fs)*")
        assert not x.is_finite
        assert format_strategy(x) == "ssfs(fs)*"
        assert "".join(a.value for a in x.prefix) == "ssfs"
        assert "".join(a.value for a in x.cycle) == "fs"

    def test_empty_prefix_infinite(self):
        x = strat("(fsf)*")
        assert x.prefix == () and len(x.cycle) == 3

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            head = "".join(rng.choice("sf") for _ in range(rng.randrange(0, 8)))
            if rng.random() < 0.5 and head:
                text = head
            else:
                cyc = "".join(rng.choice("sf") for _ in range(rng.randrange(1, 5)))
                text = f"{head}({cyc})*"
            assert format_strategy(parse_strategy(text)) == text

    def test_error_position(self):
        # every one of the parser's errors, each with the position it reports
        for text, message, position in [
            (5, "strategy text must be a str, not int", 1),
            ("", "empty strategy text", 1),
            ("sxf", "unexpected character 'x'", 2),
            ("ss(sfx)*", "unexpected character 'x' in cycle", 6),
            ("ss(f", "unterminated cycle", 5),
            ("ss()*", "empty cycle", 4),
            ("ss(f)", "cycle must be followed by '*'", 6),
            ("ss(f)s*", "cycle must be followed by '*'", 6),
            ("ss(f)*x", "trailing characters after cycle", 7),
        ]:
            with pytest.raises(StrategyParseError) as err:
                parse_strategy(text)
            assert str(err.value) == f"{message} (position {position})"
            assert err.value.position == position

    def test_error_position_in_cycle(self):
        with pytest.raises(StrategyParseError, match="unexpected character 'x' in cycle") as err:
            parse_strategy("s(sx)*")
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "text", ["", "()*", "ss(", "ss()*", "ss(f)", "ss(f)*x", "(sf)", "*", "ss)f"]
    )
    def test_malformed(self, text):
        with pytest.raises(StrategyParseError):
            parse_strategy(text)

    @pytest.mark.parametrize("text", [5, b"ss", ["s", "s"], None])
    def test_non_str_is_a_parse_error(self, text):
        # an int, bytes or list used to raise TypeError from the regex, and
        # None was reported as empty text
        with pytest.raises(StrategyParseError, match=f"must be a str, not {type(text).__name__}"):
            parse_strategy(text)

    def test_actions_iterator_bounds_infinite(self):
        # an infinite schedule streams without end; the caller bounds it
        x = strat("s(fs)*")
        assert "".join(a.value for a in itertools.islice(x.actions(), 6)) == "sfsfsf"
        assert "".join(a.value for a in itertools.islice(x.actions(), 10**6, 10**6 + 3)) == "sfs"
        assert "".join(a.value for a in strat("ssfss").actions()) == "ssfss"

    def test_strategy_validation(self):
        with pytest.raises(ValueError, match="finite strategy must contain at least one action"):
            Strategy(())
        with pytest.raises(ValueError, match="cycle must contain at least one action"):
            Strategy([(Action.SUCCESS, 1)], ())


class TestFeasibility:
    def test_all_successes_until_cross(self):
        assert is_feasible(strat("sss"), 1, 3, C_HALF)

    def test_one_success_too_many(self):
        assert not is_feasible(strat("ssss"), 1, 3, C_HALF)

    def test_infinite_frontier_member(self):
        assert is_feasible(strat("ssfs(fs)*"), 1, 3, C_HALF)

    def test_infinite_negative_drift(self):
        # cycle loses one slack unit per repetition, eventually dips below 0
        assert not is_feasible(strat("(ssf)*"), 1, 3, C_HALF)

    def test_infinite_positive_drift(self):
        assert is_feasible(strat("(fsf)*"), 1, 2, Threshold(2, 5))

    def test_prior_already_out(self):
        # both checks read start_slack, which refuses a prior beyond the cutoff
        for check in (is_feasible, greedy_violations):
            with pytest.raises(ValueError, match="prior mean exceeds threshold"):
                check(strat("ffs"), 3, 1, C_HALF)

    def test_midway_violation_in_prefix_of_infinite(self):
        assert not is_feasible(strat("ssss(fs)*"), 1, 3, C_HALF)

    def test_matches_belief_replay_on_random_finite_words(self):
        rng = random.Random(21)
        for _ in range(300):
            a = rng.randrange(1, 4)
            b = rng.randrange(1, 6)
            den = rng.randrange(2, 6)
            c = Threshold(rng.randrange(1, den), den)
            word = "".join(rng.choice("sf") for _ in range(rng.randrange(1, 10)))
            state = BeliefState(a, b)
            if not state.within_threshold(c):
                with pytest.raises(ValueError, match="prior mean exceeds threshold"):
                    is_feasible(strat(word), a, b, c)
                continue
            ok = True
            for ch in word[:-1]:
                state = state.update(Action(ch))
                ok = state.within_threshold(c)
                if not ok:
                    break
            assert is_feasible(strat(word), a, b, c) == ok


class TestGreedyViolations:
    def test_green_path_flags_avoidable_failures(self):
        # f,s,s,f,s,s,f,s,s,s: the opening failure is gratuitous
        out = greedy_violations(strat("fssfssfsss"), 1, 3, C_HALF)
        assert 1 in out
        assert out == [1, 4]

    def test_forced_failure_is_clean(self):
        assert greedy_violations(strat("ssfss"), 1, 3, C_HALF) == []

    def test_no_failures_no_violations(self):
        assert greedy_violations(strat("sss"), 1, 3, C_HALF) == []

    def test_infinite_frontier_clean(self):
        assert greedy_violations(strat("ssfs(fs)*"), 1, 3, C_HALF) == []

    def test_violation_inside_first_cycle(self):
        assert greedy_violations(strat("s(ffs)*"), 1, 3, C_HALF) == [2, 3]

    def test_drift_violation_appears_in_later_cycle(self):
        # clean prefix and first cycle, but slack climbs by 1 per cycle and
        # the failure at absolute position 7 becomes avoidable
        assert greedy_violations(strat("(fsf)*"), 1, 2, Threshold(2, 5)) == [7]

    def test_zero_drift_cycle_stays_clean(self):
        assert greedy_violations(strat("ss(fs)*"), 1, 3, C_HALF) == []

    def test_early_failure_in_prefix_is_flagged(self):
        # same tail as the frontier member but one slack unit unspent
        assert greedy_violations(strat("s(fs)*"), 1, 3, C_HALF) == [2]


class TestFrontierFamily:
    @pytest.mark.parametrize(
        "alpha0,beta0,m,text",
        [(1, 3, 1, "ssfss"), (1, 5, 2, "sfss"), (2, 7, 3, "ffss")],
    )
    def test_second_member_closed_form(self, alpha0, beta0, m, text):
        # at cutoff 1/(m+1) with prior slack m*q + k, h^2 is q successes,
        # m - k failures and two successes
        assert format_strategy(frontier_strategy(alpha0, beta0, Threshold.from_m(m), 2)) == text

    @pytest.mark.parametrize(
        "index,text",
        [(1, "sss"), (2, "ssfss"), (3, "ssfsfss"), (math.inf, "ssfs(fs)*")],
    )
    def test_reference_instance(self, index, text):
        assert format_strategy(frontier_strategy(1, 3, C_HALF, index)) == text

    @pytest.mark.parametrize(
        "alpha0,beta0,c,index,text",
        [
            (1, 5, Threshold(1, 3), 1, "ss"),
            (1, 5, Threshold(1, 3), 2, "sfss"),
            (1, 5, Threshold(1, 3), math.inf, "sfs(ffs)*"),
            (2, 7, Threshold(1, 4), 1, "s"),
            (2, 7, Threshold(1, 4), 2, "ffss"),
            (2, 7, Threshold(1, 4), math.inf, "ffs(fffs)*"),
        ],
    )
    def test_other_instances(self, alpha0, beta0, c, index, text):
        assert format_strategy(frontier_strategy(alpha0, beta0, c, index)) == text

    def test_rejects_high_prior(self):
        with pytest.raises(ValueError, match="exceeds threshold"):
            frontier_strategy(3, 1, C_HALF, 1)

    @pytest.mark.parametrize("index", [0, -2, 1.5])
    def test_rejects_bad_index(self, index):
        with pytest.raises(ValueError):
            frontier_strategy(1, 3, C_HALF, index)

    @pytest.mark.parametrize("index", [True, False, 1.0, 2.0, math.nan, "2", None])
    def test_check_index_rejects_non_indices(self, index):
        with pytest.raises(ValueError, match="index"):
            check_index(index)
        with pytest.raises(ValueError, match="index"):
            frontier_strategy(1, 3, C_HALF, index)

    @pytest.mark.parametrize("index", [1, 2, 10**6, math.inf, float("inf")])
    def test_check_index_accepts_indices(self, index):
        check_index(index)

    def test_walk_blocks_read_are_the_capped_count(self, monkeypatch):
        """The counts that ``WALK_LIMIT`` caps are the blocks read: h^i reads
        i, and h^inf reads min(num, den - num) + 2 at every reduced cutoff
        with den <= 60, from every slack its first block can leave. With
        alpha0 = 1 the start slack is num*beta0 - (den - num), and beta0 over
        den - num consecutive values gives every residue mod den - num, as
        num and den are coprime; the walk past the first block depends on
        that residue alone."""
        read = []
        walk = strategy._opportunities

        def counted(*args):
            for block in walk(*args):
                read.append(block)
                yield block

        monkeypatch.setattr(strategy, "_opportunities", counted)
        for i in (1, 2, 7):
            read.clear()
            frontier_strategy(1, 3, C_HALF, i)
            assert len(read) == i
        for den in range(2, 61):
            for num in range(1, den):
                if math.gcd(num, den) != 1:
                    continue
                for beta0 in range(den, 2 * den - num):
                    read.clear()
                    frontier_strategy(1, beta0, Threshold(num, den), math.inf)
                    assert len(read) == min(num, den - num) + 2, (num, den, beta0)

    def test_family_grid_feasible_and_greedy(self):
        for alpha0 in range(1, 6):
            for beta0 in range(1, 6):
                for m in range(1, 5):
                    if alpha0 * m > beta0:
                        continue
                    c = Threshold.from_m(m)
                    for i in [*range(1, 11), math.inf]:
                        h = frontier_strategy(alpha0, beta0, c, i)
                        assert is_feasible(h, alpha0, beta0, c)
                        assert greedy_violations(h, alpha0, beta0, c) == []

    def test_lengths_strictly_increasing_to_50(self):
        for alpha0 in range(1, 6):
            for beta0 in range(1, 6):
                for m in range(1, 5):
                    if alpha0 * m > beta0:
                        continue
                    c = Threshold.from_m(m)
                    lengths = [
                        frontier_strategy(alpha0, beta0, c, i).length
                        for i in range(1, 51)
                    ]
                    assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_success_counts(self):
        # h^i carries (r - alpha0) free successes plus i boundary ones
        for alpha0, beta0, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3), (1, 4, 2)]:
            c = Threshold.from_m(m)
            r, _ = divmod(beta0, m)  # beta0 = m*r + k
            for i in range(1, 9):
                h = frontier_strategy(alpha0, beta0, c, i)
                n_s = sum(1 for a in h.prefix if a is Action.SUCCESS)
                assert n_s == (r - alpha0) + i

    def test_structure_matches_blockwise(self):
        # h^i = q s, (m-k) f, s, (i-2) x [m f, s], final s for i >= 2
        for alpha0, beta0, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3), (1, 8, 2)]:
            c = Threshold.from_m(m)
            r, k = divmod(beta0, m)  # beta0 = m*r + k
            q = r - alpha0
            for i in range(2, 7):
                expect = (
                    "s" * q
                    + "f" * (m - k)
                    + "s"
                    + ("f" * m + "s") * (i - 2)
                    + "s"
                )
                got = format_strategy(frontier_strategy(alpha0, beta0, c, i))
                assert got == expect, (alpha0, beta0, m, i)
            tail = "s" * q + "f" * (m - k) + "s"
            h_inf = frontier_strategy(alpha0, beta0, c, math.inf)
            assert format_strategy(h_inf) == f"{tail}({'f' * m}s)*"

    def test_boundary_state_of_second_member(self):
        # the state one step before h^2's crossing sits exactly on the cutoff
        for alpha0, beta0, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3), (2, 9, 2)]:
            c = Threshold.from_m(m)
            h2 = frontier_strategy(alpha0, beta0, c, 2)
            state = BeliefState(alpha0, beta0)
            for a in h2.prefix[:-1]:
                state = state.update(a)
            assert state.posterior_mean == Fraction(c.num, c.den)


def general_cutoff_grid():
    """Every cutoff num/den in lowest terms with den <= 12, alpha0 <= 8,
    beta0 <= 60, and a prior within the cutoff."""
    for den in range(2, 13):
        for num in range(1, den):
            if math.gcd(num, den) != 1:
                continue
            for alpha0 in range(1, 9):
                for beta0 in range(1, 61):
                    if num * beta0 >= (den - num) * alpha0:
                        yield alpha0, beta0, Threshold(num, den)


class TestGeneralCutoffFamily:
    def test_generated_grid(self):
        S, F = Action.SUCCESS, Action.FAILURE
        cases = 0
        for alpha0, beta0, c in general_cutoff_grid():
            cases += 1
            h_inf = frontier_strategy(alpha0, beta0, c, math.inf)
            assert is_feasible(h_inf, alpha0, beta0, c)
            assert greedy_violations(h_inf, alpha0, beta0, c) == []
            # the head runs through the first success after the first failure
            head = h_inf.prefix
            assert head.index(S, head.index(F)) == len(head) - 1
            cycle = "".join(a.value for a in h_inf.cycle)
            assert cycle not in (cycle + cycle)[1:-1]  # not a power of a shorter word
            assert (len(cycle), cycle.count("s")) == (c.den, c.num)
            # h^i is h^inf cut at its i-th opportunity (a success would cross,
            # and the walk has not already started padding), plus the crossing s
            short = c.den - c.num
            slack = BeliefState(alpha0, beta0).slack(c)
            played: list[Action] = []
            index = 0
            for action in h_inf.actions():
                if slack < short and (not played or played[-1] is S):
                    index += 1
                    h_i = frontier_strategy(alpha0, beta0, c, index)
                    assert h_i.cycle is None, (alpha0, beta0, c, index)
                    assert h_i.prefix == (*played, S), (alpha0, beta0, c, index)
                    if index == 6:
                        break
                played.append(action)
                slack += c.num if action is F else -short
        assert cases == 18332

    def test_cycle_is_the_mechanical_word(self):
        # An oracle that knows nothing of blocks or padding: once the head is
        # played, each period adds num to the slack mod den, and a success is
        # exactly a wrap. So from the slack x0 after the head, letter i of the
        # cycle is s iff floor((x0 + (i+1)*num)/den) - floor((x0 + i*num)/den) = 1.
        S, F = Action.SUCCESS, Action.FAILURE
        rng = random.Random(17)
        cutoffs = [(num, den) for den in range(2, 61) for num in range(1, den)
                   if math.gcd(num, den) == 1]
        for den in rng.sample(range(61, 20_001), 6):
            num = rng.randrange(1, den)
            while math.gcd(num, den) != 1:
                num = rng.randrange(1, den)
            cutoffs.append((num, den))
        cases = 0
        for num, den in cutoffs:
            c = Threshold(num, den)
            for alpha0 in (1, rng.randrange(2, 40)):
                low = -(-(den - num) * alpha0 // num)  # the boundary prior
                for beta0 in (low, low + 1, low + rng.randrange(2, 3 * den)):
                    cases += 1
                    h = frontier_strategy(alpha0, beta0, c, math.inf)
                    x0 = BeliefState(alpha0, beta0).slack(c)
                    for action, n in h.prefix_runs:
                        x0 = c.step(x0, action, n)
                    assert 0 <= x0 < num, (alpha0, beta0, c)
                    letters = [(x0 + (i + 1) * num) // den - (x0 + i * num) // den
                               for i in range(den)]
                    assert h.cycle == tuple(S if x else F for x in letters), (alpha0, beta0, c)
        assert cases == 6 * (1101 + 6)  # six priors on each reduced cutoff above

    def test_infinite_words_are_pinned(self):
        # SHA-256 of every h^inf word on the grid, one per line, as the
        # repeat search that once found the cycle printed them
        digest = hashlib.sha256()
        for alpha0, beta0, c in general_cutoff_grid():
            word = format_strategy(frontier_strategy(alpha0, beta0, c, math.inf))
            digest.update(word.encode() + b"\n")
        assert digest.hexdigest() == (
            "8d2d72b458165860f883fef77ae16de738323b09fce0d6f21376d6e33a48f2a4"
        )
