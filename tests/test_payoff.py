"""Discounted values, closed forms, and breakeven roots."""

import contextlib
import enum
import io
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandbag import (
    Threshold,
    breakeven_discount,
    frontier_payoff,
    frontier_strategy,
    parse_strategy,
    payoff,
)
from sandbag.cli import main
from sandbag.payoff import _bisect, frontier_value

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestPayoff:
    def test_three_successes(self):
        assert payoff(parse_strategy("sss"), 0.5) == pytest.approx(1.75, abs=1e-15)

    def test_with_one_failure(self):
        assert payoff(parse_strategy("ssfss"), 0.5) == pytest.approx(1.6875, abs=1e-15)

    def test_infinite_geometric_tail(self):
        want = 1.0 + 0.7 + 0.343 / (1.0 - 0.49)
        assert payoff(parse_strategy("ssfs(fs)*"), 0.7) == pytest.approx(want, abs=1e-12)

    def test_infinite_exact_value(self):
        assert payoff(parse_strategy("ssfs(fs)*"), 0.5) == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_failures_only_prefix(self):
        assert payoff(parse_strategy("ffss"), 0.3) == pytest.approx(0.09 + 0.027, abs=1e-15)

    def test_delta_zero(self):
        assert payoff(parse_strategy("ssfss"), 0.0) == 1.0
        assert payoff(parse_strategy("(fs)*"), 0.0) == 0.0

    @pytest.mark.parametrize("delta", [1.0, 1.5, -0.1, True, False, "0.5", None])
    def test_rejects_out_of_range_delta(self, delta):
        with pytest.raises(ValueError):
            payoff(parse_strategy("s(fs)*"), delta)
        with pytest.raises(ValueError):
            payoff(parse_strategy("sss"), delta)

    def test_bounded_by_perpetuity(self):
        import random

        rng = random.Random(3)
        for _ in range(200):
            delta = rng.uniform(0.0, 0.95)
            head = "".join(rng.choice("sf") for _ in range(rng.randrange(0, 6)))
            cyc = "".join(rng.choice("sf") for _ in range(rng.randrange(1, 5)))
            x = parse_strategy(f"{head}({cyc})*")
            assert payoff(x, delta) <= 1.0 / (1.0 - delta) + 1e-12


class TestBreakevenDiscount:
    def test_first_root_is_golden_ratio_conjugate(self):
        assert abs(breakeven_discount(1).z - GOLDEN) <= 1e-10

    def test_known_values(self):
        assert breakeven_discount(2).z == pytest.approx(0.7548776662, abs=1e-9)
        assert breakeven_discount(3).z == pytest.approx(0.8191725134, abs=1e-9)

    def test_residuals_within_default_tol(self):
        for n in range(1, 51):
            r = breakeven_discount(n)
            assert abs(r.residual) <= 1e-12
            assert abs(r.z**n + r.z ** (n + 1) - 1.0) <= 1e-12

    def test_strictly_increasing_to_50(self):
        zs = [breakeven_discount(n).z for n in range(1, 51)]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_approaches_one(self):
        assert breakeven_discount(50).z > 0.98

    def test_in_open_unit_interval(self):
        for n in (1, 5, 20):
            z = breakeven_discount(n).z
            assert 0.0 < z < 1.0

    def test_custom_tolerance(self):
        r = breakeven_discount(2, tol=1e-6)
        assert abs(r.residual) <= 1e-6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            breakeven_discount(0)
        with pytest.raises(ValueError):
            breakeven_discount(3, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, True, "0.5", None])
    def test_rejects_nonfinite_tol(self, tol):
        with pytest.raises(ValueError, match="finite"):
            breakeven_discount(3, tol=tol)

    @pytest.mark.parametrize("n", [True, False, 2.5, 2.0, 0, -1])
    def test_rejects_bad_n_with_roots_cached(self, n):
        for warm in (1, 2):
            breakeven_discount(warm)
        with pytest.raises(ValueError, match="^n must be an integer >= 1$"):
            breakeven_discount(n)

    def test_int_subclass_n_leaves_the_cache_plain(self):
        class N(enum.IntEnum):
            TWO = 2

        _bisect.cache_clear()
        with pytest.raises(ValueError, match="^n must be an integer >= 1$"):
            breakeven_discount(N.TWO)
        assert type(breakeven_discount(2).n) is int

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12, True, "0.5", None])
    def test_rejects_bad_tol_with_root_cached(self, tol):
        breakeven_discount(3)
        with pytest.raises(ValueError, match="tol"):
            breakeven_discount(3, tol=tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-15])
    def test_cached_root_is_the_uncached_bisection(self, tol):
        for n in range(1, 201):
            cached = breakeven_discount(n, tol)
            fresh = _bisect.__wrapped__(n, tol)
            assert cached.n == fresh.n == n
            assert cached.z.hex() == fresh.z.hex(), n
            assert cached.residual.hex() == fresh.residual.hex(), n

    def test_default_and_explicit_tol_share_one_entry(self):
        _bisect.cache_clear()
        assert breakeven_discount(5) is breakeven_discount(5, tol=1e-12)
        assert _bisect.cache_info().misses == 1

    def test_thousand_point_sweep_bisects_at_most_twice(self):
        _bisect.cache_clear()
        argv = ["sweep", "--alpha", "1", "--beta", "5", "--m", "2",
                "--delta-min", "0.001", "--delta-max", "0.9999", "--step", "0.000999"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue().count('"regime"') == 1000
        assert _bisect.cache_info().misses <= 2


class TestFrontierPayoff:
    @pytest.mark.parametrize(
        "index,want", [(1, 1.75), (2, 1.6875), (math.inf, 5.0 / 3.0)]
    )
    def test_reference_instance(self, index, want):
        assert frontier_payoff(1, 3, 1, index, 0.5) == pytest.approx(want, abs=1e-12)

    def test_matches_direct_evaluation_on_grid(self):
        deltas = [0.05 * j for j in range(1, 20)]
        for alpha0 in range(1, 5):
            for beta0 in range(1, 5):
                for m in range(1, 4):
                    if alpha0 * m > beta0:
                        continue
                    c = Threshold.from_m(m)
                    for i in [1, 2, 3, 7, math.inf]:
                        h = frontier_strategy(alpha0, beta0, c, i)
                        for delta in deltas:
                            direct = payoff(h, delta)
                            closed = frontier_payoff(alpha0, beta0, m, i, delta)
                            assert abs(direct - closed) <= 1e-12, (alpha0, beta0, m, i, delta)

    def test_infinite_against_truncated_sum(self):
        # independent truncation: sum the raw action stream until the tail
        # bound delta^T/(1-delta) drops below 1e-13
        for alpha0, beta0, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3)]:
            c = Threshold.from_m(m)
            h = frontier_strategy(alpha0, beta0, c, math.inf)
            for delta in (0.3, 0.6, 0.9):
                horizon = math.ceil(math.log(1e-13 * (1.0 - delta)) / math.log(delta))
                total = sum(
                    delta**t
                    for t, a in enumerate(itertools.islice(h.actions(), horizon))
                    if a.value == "s"
                )
                closed = frontier_payoff(alpha0, beta0, m, math.inf, delta)
                assert abs(total - closed) <= 1e-12 + 1e-13

    def test_neighbour_difference_signs(self):
        # payoff(h^{i+1}) - payoff(h^i) carries the sign of
        # delta^m + delta^{m+1} - 1 for i >= 2, and of the (m-k) variant for i = 1
        for alpha0, beta0, m in [(1, 3, 1), (1, 5, 2), (2, 7, 3), (1, 4, 2)]:
            k = beta0 % m
            for delta in [0.05 * j for j in range(1, 20)]:
                f_m = delta**m + delta ** (m + 1) - 1.0
                f_mk = delta ** (m - k) + delta ** (m - k + 1) - 1.0
                pays = {
                    i: frontier_payoff(alpha0, beta0, m, i, delta) for i in (1, 2, 3, 4)
                }
                if abs(f_mk) > 1e-9:
                    assert (pays[2] - pays[1] > 0) == (f_mk > 0)
                if abs(f_m) > 1e-9:
                    assert (pays[3] - pays[2] > 0) == (f_m > 0)
                    assert (pays[4] - pays[3] > 0) == (f_m > 0)

    @settings(derandomize=True, max_examples=300, deadline=None)  # about 1 s
    @given(
        st.integers(0, 10**5),
        st.integers(1, 50).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))),
        st.sampled_from([1, 2, 3, 7, math.inf]),
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53]),
                st.floats(0.0, 1.0, exclude_max=True),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_column_equals_scalar_closed_form_bit_for_bit(self, q, mk, index, grid):
        """Each entry of a column is the scalar closed form at its delta alone."""
        m, k = mk

        def geometric(log_ratio, n):
            return math.expm1(n * log_ratio) / math.expm1(log_ratio) if n else 0.0

        def scalar(delta):
            log_delta = math.log(delta) if delta > 0.0 else -math.inf
            if index == 1:
                return geometric(log_delta, q + 1)
            head = geometric(log_delta, q)
            period_first = q + (m - k) + 1
            if index == math.inf:
                return head + delta ** (period_first - 1) / -math.expm1((m + 1) * log_delta)
            body = delta ** (period_first - 1) * geometric((m + 1) * log_delta, index - 1)
            return head + body + delta ** (period_first + (m + 1) * (index - 2))

        column = frontier_value(q, k, m, index, grid)
        assert [v.hex() for v in column] == [scalar(d).hex() for d in grid]
        for j, delta in enumerate(grid):
            assert column[j] == frontier_value(q, k, m, index, (delta,))[0]

    def test_rejects_high_prior(self):
        with pytest.raises(ValueError, match="exceeds threshold"):
            frontier_payoff(3, 2, 1, 1, 0.5)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            frontier_payoff(1, 3, 1, 1, 1.0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            frontier_payoff(1, 3, 1, 0, 0.5)

    @pytest.mark.parametrize("index", [1.0, 2.0, True, False, 2.5])
    def test_rejects_bool_and_float_index(self, index):
        # 1.0 and True equal h^1's index, so they must be refused before the h^1 branch
        with pytest.raises(ValueError, match="index"):
            frontier_payoff(1, 3, 1, index, 0.5)

    @pytest.mark.parametrize("alpha0", [0, -2])
    @pytest.mark.parametrize("index", [1, 2, math.inf])
    def test_rejects_nonpositive_alpha(self, alpha0, index):
        with pytest.raises(ValueError, match="^alpha0 must be an integer >= 1$"):
            frontier_payoff(alpha0, 3, 1, index, 0.5)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_nonpositive_m(self, m):
        with pytest.raises(ValueError):
            frontier_payoff(1, 3, m, 1, 0.5)

    @pytest.mark.parametrize("m", [2.0, True, False, 1.5, "2", None])
    @pytest.mark.parametrize("index", [1, 2, math.inf])
    def test_rejects_bool_and_float_m(self, m, index):
        # 2.0 == 2 and True == 1, so they would be priced as m = 2 and m = 1
        with pytest.raises(ValueError, match="m must be an integer"):
            frontier_payoff(1, 5, m, index, 0.7)
