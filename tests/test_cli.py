"""CLI behavior: envelopes, schemas, CSV shapes, exit codes."""

import argparse
import ast
import contextlib
import csv
import errno
import hashlib
import importlib
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandbag import (
    Action,
    LimitExceededError,
    OptimalKind,
    ProblemInstance,
    Strategy,
    Threshold,
    belief,
    breakeven_discount,
    classify,
    cli,
    format_strategy,
    frontier_payoff,
    frontier_strategy,
    oracle,
    parse_strategy,
    payoff,
    sim,
    solver,
    strategy,
    verify_ordering,
)
from sandbag.belief import check_delta, check_tol, split_slack
from sandbag.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, ROW_LIMIT, WORD_LIMIT, main
from sandbag.oracle import EXHAUSTIVE_WORK_LIMIT, VI_WORK_LIMIT, dp_value, exhaustive_best
from sandbag.oracle import value_iteration
from sandbag.payoff import ROOT_TOL
from sandbag.sim import GuesserConfig, play_strategy
from sandbag.solver import TIE_TOL, root_pair

pricing = importlib.import_module("sandbag.payoff")  # ``sandbag.payoff`` is the function
SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> dict:
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("envelope"))
    jsonschema.validate(doc["result"], load_schema(doc["command"]))
    return doc


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSolve:
    def test_json_payload(self, capsys):
        doc = run_json(capsys, "solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", "0.5")
        res = doc["result"]
        assert res["kind"] == "unique"
        assert res["members"] == ["sss"]
        assert res["indices"] == ["h1"]
        assert res["payoffs"]["h1"] == pytest.approx(1.75)
        assert res["z_high"] == pytest.approx(0.6180339887, abs=1e-9)

    def test_middle_regime_member(self, capsys):
        doc = run_json(capsys, "solve", "--alpha", "1", "--beta", "5", "--m", "2", "--delta", "0.7")
        assert doc["result"]["members"] == ["sfss"]

    @pytest.mark.parametrize("delta", ["0", "0.0", "-0.0"])
    def test_delta_zero_gives_h1(self, capsys, delta):
        doc = run_json(capsys, "solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", delta)
        assert doc["result"]["indices"] == ["h1"] and doc["result"]["payoffs"] == {"h1": 1.0}

    def test_prior_above_threshold_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "--alpha", "3", "--beta", "1", "--m", "1", "--delta", "0.5")
        assert code == EXIT_USAGE
        assert "prior mean exceeds threshold" in err

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", "0.5",
            "--format", "csv",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["kind", "index", "strategy", "payoff", "z_low", "z_high"]
        assert rows[0][:3] == ["unique", "h1", "sss"]


class TestEnumerate:
    def test_lists_family(self, capsys):
        doc = run_json(
            capsys, "enumerate", "--alpha", "1", "--beta", "3",
            "--c-num", "1", "--c-den", "2", "--max-index", "2",
        )
        strategies = [e["strategy"] for e in doc["result"]["strategies"]]
        assert strategies == ["sss", "ssfss", "ssfs(fs)*"]

    def test_general_cutoff(self, capsys):
        doc = run_json(
            capsys, "enumerate", "--alpha", "2", "--beta", "7",
            "--c-num", "1", "--c-den", "4", "--max-index", "2",
        )
        strategies = [e["strategy"] for e in doc["result"]["strategies"]]
        assert strategies[:2] == ["s", "ffss"]

    def test_invalid_cutoff_exits_2(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--alpha", "1", "--beta", "3",
            "--c-num", "2", "--c-den", "2", "--max-index", "2",
        )
        assert code == EXIT_USAGE and "threshold" in err

    def test_prior_above_cutoff_exits_2(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--alpha", "3", "--beta", "1",
            "--c-num", "1", "--c-den", "2", "--max-index", "2",
        )
        assert code == EXIT_USAGE and "exceeds threshold" in err

    @pytest.mark.parametrize("alpha, beta, message", [("3", "1", "exceeds threshold"),
                                                      ("0", "3", "alpha0 must be an integer >= 1")])
    def test_bad_prior_exits_2_before_the_cycle_cap(self, capsys, alpha, beta, message):
        code, _, err = run(
            capsys, "enumerate", "--alpha", alpha, "--beta", beta,
            "--c-num", "1", "--c-den", str(WORD_LIMIT + 1), "--max-index", "1",
        )
        assert code == EXIT_USAGE and message in err

    def test_rows_equal_the_members_built_alone(self):
        # the table comes from one walk; each row must equal the member that
        # frontier_strategy builds on its own, and h^i must have at least i
        # actions, since the total cap bounds the rows through that
        for alpha, beta, num, den in _priors_and_cutoffs(12, 3, 20):
            args = argparse.Namespace(alpha=alpha, beta=beta, c_num=num, c_den=den, max_index=9)
            _, rows = cli._cmd_enumerate(args)
            c = Threshold(num, den)
            for i, row in zip([*range(1, 10), math.inf], rows, strict=True):
                x = frontier_strategy(alpha, beta, c, i)
                assert row["strategy"] == format_strategy(x), (alpha, beta, c, i)
                assert row["length"] == x.length
                assert row["prefix_successes"] == x.prefix.count(Action.SUCCESS)
                if x.cycle is None:
                    assert len(row["strategy"]) >= i
                    assert "cycle_length" not in row and "cycle_successes" not in row
                else:
                    assert row["cycle_length"] == len(x.cycle)
                    assert row["cycle_successes"] == x.cycle.count(Action.SUCCESS)

    def test_builds_no_strategy(self, monkeypatch):
        # every word, h^inf's too, is text from the walk; no Strategy is built
        def fail(*args, **kwargs):
            raise AssertionError("Strategy built")

        monkeypatch.setattr("sandbag.strategy.Strategy.__new__", fail)
        for alpha, beta, num, den in _boundary_priors(12, alphas=(1,), betas=2):
            for fmt in ("json", "csv"):
                argv = [*_enumerate_argv(beta, num, den, 8, alpha), "--format", fmt]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0

    def test_infinite_row_equals_the_library_member(self):
        # enumerate formats h^inf from the walk's head counts and cycle runs;
        # it must print what frontier_strategy builds and format_strategy writes
        for alpha, beta, num, den in [*_boundary_priors(40), (1, 2, 50001, 100003)]:
            args = argparse.Namespace(alpha=alpha, beta=beta, c_num=num, c_den=den, max_index=1)
            _, rows = cli._cmd_enumerate(args)
            x = frontier_strategy(alpha, beta, Threshold(num, den), math.inf)
            assert rows[-1]["strategy"] == format_strategy(x), (alpha, beta, num, den)

    # SHA-256 of the concatenated stdout of enumerate --max-index 8 on every
    # prior and reduced cutoff of _priors_and_cutoffs(7, 2, 10), as printed
    # when each member was built and formatted on its own
    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "149c332c7b81c6cfa94512cb4f94cb4e19222fcbafac827a22ce070fb86612d7"),
            ("csv", "bf95f80f3a5e66119063ec970cb1fae79fe9c96ebeea0d22a42748fba6e42710"),
        ],
    )
    def test_tables_unchanged(self, fmt, digest):
        sha = hashlib.sha256()
        for alpha, beta, num, den in _priors_and_cutoffs(7, 2, 10):
            argv = [*_enumerate_argv(beta, num, den, 8, alpha), "--format", fmt]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0
            sha.update(out.getvalue().encode())
        assert sha.hexdigest() == digest


class TestEvaluate:
    def test_value(self, capsys):
        doc = run_json(capsys, "evaluate", "--strategy", "ssfss", "--delta", "0.5")
        assert doc["result"]["payoff"] == pytest.approx(1.6875)

    def test_infinite_strategy(self, capsys):
        doc = run_json(capsys, "evaluate", "--strategy", "ssfs(fs)*", "--delta", "0.7")
        assert doc["result"]["payoff"] == pytest.approx(2.3725490196, abs=1e-9)

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "evaluate", "--strategy", "sxf", "--delta", "0.5")
        assert code == EXIT_USAGE and "position 2" in err


class TestOracle:
    def test_dp_mode(self, capsys):
        doc = run_json(
            capsys, "oracle", "--alpha", "1", "--beta", "3", "--c-num", "1",
            "--c-den", "2", "--delta", "0.5", "--horizon", "12", "--mode", "dp",
        )
        assert doc["result"]["value"] == pytest.approx(1.75)

    def test_exhaustive_reports_sequence(self, capsys):
        doc = run_json(
            capsys, "oracle", "--alpha", "1", "--beta", "3", "--c-num", "1",
            "--c-den", "2", "--delta", "0.5", "--horizon", "12", "--mode", "exhaustive",
        )
        assert doc["result"]["best_sequence"] == "sss"

    def test_vi_mode_ignores_horizon(self, capsys):
        doc = run_json(
            capsys, "oracle", "--alpha", "1", "--beta", "3", "--c-num", "1",
            "--c-den", "2", "--delta", "0.7", "--mode", "vi",
        )
        assert doc["result"]["value"] == pytest.approx(121.0 / 51.0, abs=1e-8)

    def test_horizon_guard_exits_3(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--alpha", "1", "--beta", "3", "--c-num", "1",
            "--c-den", "2", "--delta", "0.5", "--horizon", "26", "--mode", "exhaustive",
        )
        assert code == EXIT_LIMIT and "horizon" in err

    def test_missing_horizon_exits_2(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--alpha", "1", "--beta", "3", "--c-num", "1",
            "--c-den", "2", "--delta", "0.5", "--mode", "dp",
        )
        assert code == EXIT_USAGE and "--horizon" in err

    @pytest.mark.parametrize("mode, horizon", [("exhaustive", "30"), ("dp", "600")])
    @pytest.mark.parametrize(
        "prior, delta, message",
        [
            (("--alpha", "1", "--beta", "3"), "1.5", "delta must lie in [0, 1)"),
            (("--alpha", "3", "--beta", "1"), "0.5", "prior mean exceeds threshold"),
        ],
    )
    def test_invalid_input_beats_horizon_cap(self, capsys, mode, horizon, prior, delta, message):
        # both horizons are over their mode's cap: invalid input exits 2 first
        code, out, err = run(
            capsys, "oracle", *prior, "--c-num", "1", "--c-den", "2", "--delta", delta,
            "--mode", mode, "--horizon", horizon,
        )
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--alpha", "1", "--beta", "4", "--c-num", "1", "--c-den", "3",
         "--delta", "0.5", "--mode", "vi", "--tol", "inf"),
        ("thresholds", "--n-max", "2", "--tol", "inf"),
        ("thresholds", "--n-max", "2", "--tol", "nan"),
        ("solve", "--alpha", "1", "--beta", "3", "--m", "2", "--delta", "0.5", "--tie-tol", "inf"),
        ("solve", "--alpha", "1", "--beta", "3", "--m", "2", "--delta", "0.5", "--tie-tol", "nan"),
        ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0.3",
         "--delta-max", "0.9", "--step", "nan"),
        ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0.3",
         "--delta-max", "0.9", "--step", "inf"),
        # --tol is echoed in every mode's params, so dp and exhaustive check it too
        *[("oracle", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
           "--delta", "0.5", "--mode", mode, "--horizon", "5", f"--tol={tol}")
          for mode in ("dp", "exhaustive") for tol in ("nan", "inf", "-1", "0")],
    ],
)
def test_nonfinite_tolerance_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and "finite" in err and out == ""


_PRIOR_CUTOFF = ("--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", *_PRIOR_CUTOFF, "--max-index", "0"), "--max-index must be an integer >= 1"),
        (("thresholds", "--n-max", "0"), "--n-max must be an integer >= 1"),
        *[(("oracle", *_PRIOR_CUTOFF, "--delta", "0.5", "--mode", mode, "--horizon", "-1"),
           "horizon must be an integer >= 0") for mode in ("dp", "exhaustive")],
    ],
)
def test_count_below_its_range_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


class TestThresholds:
    def test_first_three_roots(self, capsys):
        doc = run_json(capsys, "thresholds", "--n-max", "3")
        zs = [r["z"] for r in doc["result"]["roots"]]
        assert zs == pytest.approx([0.6180339887, 0.7548776662, 0.8191725134], abs=1e-9)

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--n-max", "2", "--format", "csv")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["n", "z", "residual"]
        assert len(rows) == 2


class TestSimulate:
    def test_fixed_strategy_csv(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--alpha", "1", "--beta", "3", "--c-num", "1",
            "--c-den", "2", "--strategy", "ssfss", "--max-periods", "10",
            "--format", "csv",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["period", "action", "mean_num", "mean_den", "crossed"]
        assert rows[0] == ["1", "s", "2", "5", "False"]
        assert rows[-1] == ["5", "s", "5", "9", "True"]

    def test_guesser_reproducible(self, capsys):
        args = (
            "simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
            "--guesser-p", "0.5", "--seed", "99", "--max-periods", "50",
        )
        first = run_json(capsys, *args)
        second = run_json(capsys, *args)
        assert first == second

    def test_strategy_and_guesser_mutually_exclusive(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--alpha", "1", "--beta", "3", "--c-num", "1",
            "--c-den", "2", "--strategy", "sss", "--guesser-p", "0.5",
            "--seed", "1", "--max-periods", "10",
        )
        assert code == EXIT_USAGE and "exactly one" in err

    def test_guesser_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--alpha", "1", "--beta", "3", "--c-num", "1",
            "--c-den", "2", "--guesser-p", "0.5", "--max-periods", "10",
        )
        assert code == EXIT_USAGE and "--seed" in err

    def test_incomplete_strategy_exits_2(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--alpha", "1", "--beta", "3", "--c-num", "1",
            "--c-den", "2", "--strategy", "ss", "--max-periods", "10",
        )
        assert code == EXIT_USAGE and "incomplete strategy" in err


class TestSweep:
    def test_single_transition_through_z1(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--alpha", "1", "--beta", "3", "--m", "1",
            "--delta-min", "0.05", "--delta-max", "0.95", "--step", "0.05",
            "--format", "csv",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["delta", "regime", "best_payoff", "z_low", "z_high"]
        regimes = [r[1] for r in rows]
        deltas = [float(r[0]) for r in rows]
        assert regimes == sorted(regimes, key=["h1", "h2", "tie", "hinf"].index)
        flips = [
            (round(lo, 2), round(hi, 2))
            for lo, hi, a, b in zip(deltas, deltas[1:], regimes, regimes[1:])
            if a != b
        ]
        assert flips == [(0.60, 0.65)]
        assert regimes[0] == "h1" and regimes[-1] == "hinf"

    def test_two_transitions_with_k_positive(self, capsys):
        doc = run_json(
            capsys, "sweep", "--alpha", "1", "--beta", "5", "--m", "2",
            "--delta-min", "0.05", "--delta-max", "0.95", "--step", "0.05",
        )
        rows = doc["result"]["rows"]
        changes = [
            (round(a["delta"], 2), round(b["delta"], 2))
            for a, b in zip(rows, rows[1:])
            if a["regime"] != b["regime"]
        ]
        assert changes == [(0.60, 0.65), (0.75, 0.80)]

    def test_empty_range_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--alpha", "1", "--beta", "3", "--m", "1",
            "--delta-min", "0.9", "--delta-max", "0.5", "--step", "0.1",
        )
        assert code == EXIT_USAGE

    def test_bad_step_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--alpha", "1", "--beta", "3", "--m", "1",
            "--delta-min", "0.1", "--delta-max", "0.5", "--step", "0",
        )
        assert code == EXIT_USAGE and "--step" in err

    def test_fine_grid_exits_3_before_classifying(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("classify called on an over-limit grid")

        monkeypatch.setattr("sandbag.cli.classify", fail)
        code, out, err = run(
            capsys, "sweep", "--alpha", "1", "--beta", "3", "--m", "1",
            "--delta-min", "0.1", "--delta-max", "0.5", "--step", "1e-9",
        )
        assert (code, out, err) == (EXIT_LIMIT, "", "error: sweep grid points must be at most 100000\n")

    @pytest.mark.parametrize("delta_min", ["0", "-0.0", "1e-13"])
    def test_delta_min_rounding_to_zero_gives_a_zero_row(self, capsys, delta_min):
        # every grid point is rounded to 12 decimals, so 1e-13 gives delta 0.0,
        # which check_delta admits like any delta in [0, 1)
        doc = run_json(
            capsys, "sweep", "--alpha", "1", "--beta", "3", "--m", "2",
            "--delta-min", delta_min, "--delta-max", "0.5", "--step", "0.1",
        )
        first = doc["result"]["rows"][0]
        assert (first["delta"], first["regime"], first["best_payoff"]) == (0.0, "h1", 1.0)
        assert math.copysign(1.0, first["delta"]) == 1.0

    def test_points_within_1e_12_past_delta_max_print_as_delta_max(self, capsys):
        # a step below the grid's 12-decimal rounding: 105 points round to at
        # most delta_max, 10 to 0.600000000011, within 1e-12 past it, and 11
        # to 0.600000000012, past that tolerance
        lo, hi, step = 0.6, 0.6000000000105, 1e-13
        doc = run_json(
            capsys, "sweep", "--alpha", "1", "--beta", "3", "--m", "1",
            "--delta-min", repr(lo), "--delta-max", repr(hi), "--step", repr(step),
        )
        deltas = [row["delta"] for row in doc["result"]["rows"]]
        inside = [round(lo + i * step, 12) for i in range(105)]
        assert inside[-1] <= hi < round(lo + 105 * step, 12) == 0.600000000011
        assert deltas == inside + [hi] * 10

    @pytest.mark.parametrize(
        "grid, code, message",
        [
            (("0.1", "0.5", "1e-9"), EXIT_LIMIT, "sweep grid points must be at most 100000"),  # the cap first
            (("0.1", "0.5", "0.1"), EXIT_USAGE, "prior mean exceeds threshold"),
            (("1e-13", "0.5", "0.1"), EXIT_USAGE, "prior mean exceeds threshold"),
            (("0.5", "0.1", "1e-9"), EXIT_USAGE, "--delta-min < --delta-max"),
            (("0.1", "0.5", "nan"), EXIT_USAGE, "--step"),
        ],
    )
    def test_error_order(self, capsys, grid, code, message):
        """--step, then the delta range, then the row cap, then the prior and m."""
        lo, hi, step = grid
        got, out, err = run(
            capsys, "sweep", "--alpha", "5", "--beta", "3", "--m", "2",
            "--delta-min", lo, "--delta-max", hi, "--step", step,
        )
        assert (got, out) == (code, "") and message in err

    def test_one_setup_per_grid(self, capsys, monkeypatch):
        """(q, k) and the roots are found once for the whole grid, and no
        point builds a ProblemInstance or runs classify."""
        from sandbag import solver

        calls = {"split_slack": 0, "breakeven_discount": 0, "regime": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def fail(*args, **kwargs):
            raise AssertionError("per-point setup in sweep")

        monkeypatch.setattr(cli, "split_slack", counted("split_slack", cli.split_slack))
        monkeypatch.setattr(cli, "regime", counted("regime", cli.regime))
        monkeypatch.setattr(
            solver, "breakeven_discount",
            counted("breakeven_discount", solver.breakeven_discount),
        )
        for name in ("classify", "ProblemInstance"):
            monkeypatch.setattr(cli, name, fail)
            monkeypatch.setattr(solver, name, fail)
        code, out, _ = run(
            capsys, "sweep", "--alpha", "1", "--beta", "5", "--m", "2",
            "--delta-min", "0.05", "--delta-max", "0.95", "--step", "0.01",
        )
        rows = json.loads(out)["result"]["rows"]
        assert code == EXIT_OK and len(rows) == 91
        assert calls["split_slack"] == 1 and 1 <= calls["breakeven_discount"] <= 2
        # each run of one regime answer: one call at its start, and a
        # bisection for its end
        runs = len(list(itertools.groupby(row["regime"] for row in rows)))
        assert calls["regime"] <= runs * (math.ceil(math.log2(91)) + 1)


def _sweep_rows(*argv: str) -> list[dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["sweep", *argv]) == EXIT_OK
    return json.loads(buf.getvalue())["result"]["rows"]


@st.composite
def _straddling_sweeps(draw):
    """A prior and cutoff 1/(m+1), k = 0 about one time in three, and a fine
    grid centred within 2e-9 of z_low or z_high, so that it crosses the edges
    of the inclusive 1e-9 tie band."""
    m = draw(st.integers(1, 8))
    a = draw(st.integers(1, 4))
    k = 0 if draw(st.integers(0, 2)) == 0 else draw(st.integers(0, m - 1))
    b = m * (a + draw(st.integers(0, 4))) + k
    z_high = breakeven_discount(m).z
    root = breakeven_discount(m - k).z if draw(st.booleans()) and k else z_high
    centre = root + draw(st.integers(-2000, 2000)) * 1e-12
    step = draw(st.integers(1, 500)) * 1e-12
    points = draw(st.integers(1, 40))
    lo = round(centre - draw(st.integers(0, points - 1)) * step, 12)
    hi = lo + (points - 1) * step + 1e-13  # > lo even for one point
    return a, b, m, lo, hi, step


@st.composite
def _wide_sweeps(draw):
    """A prior and cutoff 1/(m+1), k = 0 about one time in three, and a grid
    from delta_min in [0, 0.3] up to at most 0.999 with a step in [1e-4, 0.1],
    so that most grids hold several regime runs."""
    m = draw(st.integers(1, 8))
    a = draw(st.integers(1, 4))
    k = 0 if draw(st.integers(0, 2)) == 0 else draw(st.integers(0, m - 1))
    b = m * (a + draw(st.integers(0, 4))) + k
    lo = draw(st.floats(0.0, 0.3))
    hi = draw(st.floats(lo + 1e-3, 0.999))
    step = 10.0 ** draw(st.floats(-4.0, -1.0))
    return a, b, m, lo, hi, step


@settings(derandomize=True, max_examples=400, deadline=None)  # about 3 s
@given(st.integers(0, 5).flatmap(lambda i: _straddling_sweeps() if i else _wide_sweeps()))
def test_sweep_rows_equal_per_point_classify(case):
    """Each sweep row equals the one built from classify at that point alone,
    on fine grids through a tie band and on grids across whole regimes."""
    a, b, m, lo, hi, step = case
    rows = _sweep_rows(
        "--alpha", str(a), "--beta", str(b), "--m", str(m),
        "--delta-min", repr(lo), "--delta-max", repr(hi), "--step", repr(step),
    )
    assert rows
    for row in rows:
        res = classify(ProblemInstance(a, b, m, row["delta"]))
        regime = cli.index_label(res.members[0]) if res.kind is OptimalKind.UNIQUE else "tie"
        assert row == {
            "delta": row["delta"],
            "regime": regime,
            "best_payoff": max(res.payoffs.values()),
            "z_low": res.z_low,
            "z_high": res.z_high,
        }
    # the grid: every point up to delta_max (plus 1e-12), the last one clipped
    grid = [round(lo + i * step, 12) for i in range(len(rows) + 1)]
    assert [row["delta"] for row in rows] == [min(d, hi) for d in grid[:-1]]
    assert grid[-1] > hi + 1e-12


@pytest.mark.parametrize(
    "argv, header, first",
    [
        (
            ("enumerate", "--alpha", "2", "--beta", "7", "--c-num", "1", "--c-den", "4",
             "--max-index", "2"),
            ["index", "strategy", "length", "prefix_successes", "cycle_length"],
            ["h1", "s", "1", "1", ""],
        ),
        (
            ("evaluate", "--strategy", "ssfs(fs)*", "--delta", "0.7"),
            ["strategy", "delta", "payoff"],
            ["ssfs(fs)*", "0.7", "2.372549019607843"],
        ),
        (
            ("oracle", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
             "--delta", "0.5", "--horizon", "12", "--mode", "exhaustive"),
            ["mode", "horizon", "value", "best_sequence"],
            ["exhaustive", "12", "1.75", "sss"],
        ),
        (
            ("oracle", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
             "--delta", "0.5", "--horizon", "12", "--mode", "dp"),
            ["mode", "horizon", "value", "best_sequence"],
            ["dp", "12", "1.75", ""],
        ),
        (
            ("oracle", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
             "--delta", "0.7", "--mode", "vi"),
            ["mode", "horizon", "value", "best_sequence"],
            ["vi", "", "2.372549019585576", ""],
        ),
    ],
)
def test_csv_header_and_first_row(capsys, argv, header, first):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    got_header, rows = parse_csv(out)
    assert got_header == header
    assert rows[0] == first


def test_every_command_has_csv_columns_and_a_schema():
    """Each ``_COMMANDS`` entry has a schema, and its CSV columns are distinct
    fields of the rows that its ``_ENVELOPE_ARGVS`` argvs report."""
    schemas = {p.name.removesuffix(".schema.json") for p in SCHEMA_DIR.glob("*.schema.json")}
    assert set(cli._COMMANDS) == schemas - {"envelope"}
    assert len(cli._COMMANDS) == 7
    assert cli._HANDLERS == {name: entry[2] for name, entry in cli._COMMANDS.items()}
    for name, (_, _, handler, columns) in cli._COMMANDS.items():
        fields = set()
        for argv in (a for a in _ENVELOPE_ARGVS if a[0] == name):
            _, table = handler(cli.build_parser().parse_args(argv))
            fields = fields.union(*table)
        assert columns and len(set(columns)) == len(columns), name
        assert set(columns) <= fields, (name, set(columns) - fields)


# vi at cutoff 1/2 from Beta(1, beta) has beta + 1 slack states, and delta
# 0.8815 at the default tol 1e-10 needs 200 sweeps by the estimate
VI_BETA_AT_LIMIT = VI_WORK_LIMIT // 200 - 1

# from Beta(1, 100) at cutoff 1/2 no success crosses within 25 periods, so the
# tree to horizon h is full, with 2**(h+1) - 1 nodes
EXHAUSTIVE_HORIZON_AT_LIMIT = (EXHAUSTIVE_WORK_LIMIT + 1).bit_length() - 2


def _priors_and_cutoffs(max_den: int, max_alpha: int, max_beta: int):
    """(alpha, beta, num, den) for every cutoff num/den in lowest terms with
    den <= max_den and every prior within it up to the given counts."""
    for den in range(2, max_den + 1):
        for num in (n for n in range(1, den) if math.gcd(n, den) == 1):
            for alpha in range(1, max_alpha + 1):
                for beta in range(1, max_beta + 1):
                    if num * beta >= (den - num) * alpha:
                        yield alpha, beta, num, den


def _boundary_priors(max_den: int, alphas=(1, 2), betas: int = 4):
    """(alpha, beta, num, den) for every cutoff num/den in lowest terms with
    den <= max_den: each alpha with the least beta whose prior is within the
    cutoff, and the next betas - 1."""
    for den in range(2, max_den + 1):
        for num in (n for n in range(1, den) if math.gcd(n, den) == 1):
            for alpha in alphas:
                low = -(-(den - num) * alpha // num)
                for beta in range(low, low + betas):
                    yield alpha, beta, num, den


def _enumerate_argv(beta, c_num, c_den, max_index, alpha=1) -> tuple[str, ...]:
    return ("enumerate", "--alpha", str(alpha), "--beta", str(beta), "--c-num", str(c_num),
            "--c-den", str(c_den), "--max-index", str(max_index))


def _enumerate_total(beta, c_num, c_den, max_index) -> int:
    """Actions in enumerate's words, read from the library's members."""
    c = Threshold(c_num, c_den)
    h_inf = frontier_strategy(1, beta, c, math.inf)
    members = [frontier_strategy(1, beta, c, i) for i in range(1, max_index + 1)]
    return sum(x.length for x in members) + sum(n for _, n in h_inf.prefix_runs + h_inf.cycle_runs)


# (patched workers, argv for one flag value, value at the cap, value just over it)
_CAPS = {
    # enumerate's one cap: the actions in all its words, h^1..h^N and h^inf.
    # Each value is (beta, c_num, c_den, max_index) from Beta(1, beta), and
    # test_enumerate_cap_inputs_total_their_bounds checks their totals.
    # Many rows: Beta(1, b) at cutoff 1/2 prints (N + 1)*b + N*(N - 1) + 3
    "enumerate-rows": (
        ["sandbag.cli._infinite_parts"],
        lambda v: _enumerate_argv(*v),
        (4381, 1, 2, 1656),
        (2074, 1, 2, 2291),
    ),
    "thresholds-rows": (
        ["sandbag.cli.breakeven_discount"],
        lambda v: ("thresholds", "--n-max", str(v)),
        ROW_LIMIT,
        ROW_LIMIT + 1,
    ),
    "simulate-strategy-rows": (
        ["sandbag.sim.play_strategy"],
        lambda v: ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "3",
                   "--strategy", "(ffs)*", "--max-periods", str(v)),
        ROW_LIMIT,
        ROW_LIMIT + 1,
    ),
    # a finite word plays to its own length, even past --max-periods:
    # v successes from Beta(1, v) at cutoff 1/2 cross on the last one
    "simulate-word-rows": (
        ["sandbag.sim.play_strategy"],
        lambda v: ("simulate", "--alpha", "1", "--beta", str(v), "--c-num", "1", "--c-den", "2",
                   "--strategy", "s" * v, "--max-periods", "1"),
        ROW_LIMIT,
        ROW_LIMIT + 1,
    ),
    "simulate-guesser-rows": (
        ["sandbag.sim.play_guesser"],
        lambda v: ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "3",
                   "--guesser-p", "0", "--seed", "1", "--max-periods", str(v)),
        ROW_LIMIT,
        ROW_LIMIT + 1,
    ),
    # h1 from Beta(1, beta) at cutoff 1/2 is a word of beta successes
    "solve-word": (
        ["sandbag.cli.format_strategy"],
        lambda v: ("solve", "--alpha", "1", "--beta", str(v), "--m", "1", "--delta", "0.5"),
        WORD_LIMIT,
        WORD_LIMIT + 1,
    ),
    # h^inf from Beta(1, m + t), 0 <= t < m, at cutoff 1/(m+1) has m - t + 1
    # head actions and a cycle of m + 1, so 2*m + 2 - t; delta is above z(m)
    "solve-hinf-word": (
        ["sandbag.cli.format_strategy"],
        lambda v: ("solve", "--alpha", "1", "--beta", str(v), "--m", str(WORD_LIMIT // 2),
                   "--delta", "0.999999999999"),
        WORD_LIMIT // 2 + 2,
        WORD_LIMIT // 2 + 1,
    ),
    # two long words: h^1 and h^inf from Beta(1, b) at cutoff 1/3 print b + 3
    # actions for odd b and b + 5 for even b
    "enumerate-word": (
        ["sandbag.cli._infinite_parts"],
        lambda v: _enumerate_argv(*v),
        (WORD_LIMIT - 3, 1, 3, 1),
        (WORD_LIMIT - 4, 1, 3, 1),
    ),
    # a long cycle: h^inf's is den actions; from Beta(1, den) at cutoff 1/den
    # h^1 and h^inf print 2*den actions, and from Beta(1, den + 1) 2*den - 1
    "enumerate-cycle": (
        ["sandbag.cli._infinite_parts"],
        lambda v: _enumerate_argv(*v),
        (WORD_LIMIT // 2, 1, WORD_LIMIT // 2, 1),
        (WORD_LIMIT // 2 + 2, 1, WORD_LIMIT // 2 + 1, 1),
    ),
    # value iteration's first call of the builtin min in oracle.py builds its
    # child table, after the cap check and before the first sweep
    "oracle-vi-work": (
        ["sandbag.oracle.min"],
        lambda v: ("oracle", "--alpha", "1", "--beta", str(v), "--c-num", "1", "--c-den", "2",
                   "--delta", "0.8815", "--mode", "vi"),
        VI_BETA_AT_LIMIT,
        VI_BETA_AT_LIMIT + 1,
    ),
    "oracle-exhaustive-work": (
        ["sandbag.oracle._walk"],
        lambda v: ("oracle", "--alpha", "1", "--beta", "100", "--c-num", "1", "--c-den", "2",
                   "--delta", "0.5", "--mode", "exhaustive", "--horizon", str(v)),
        EXHAUSTIVE_HORIZON_AT_LIMIT,
        EXHAUSTIVE_HORIZON_AT_LIMIT + 1,
    ),
}


def _patch_workers(monkeypatch, workers) -> None:
    def fail(*args, **kwargs):
        raise AssertionError("worker called")

    for target in workers:
        monkeypatch.setattr(target, fail, raising=False)


def test_enumerate_cap_inputs_total_their_bounds():
    # rows: too many members to build here, so check the closed form on
    # small priors and indices against the library, then apply it
    def rows_total(beta, max_index):
        return (max_index + 1) * beta + max_index * (max_index - 1) + 3

    for beta in range(1, 7):
        for n in range(1, 9):
            assert rows_total(beta, n) == _enumerate_total(beta, 1, 2, n)
    _, _, at, over = _CAPS["enumerate-rows"]
    assert (rows_total(at[0], at[3]), rows_total(over[0], over[3])) == (WORD_LIMIT, WORD_LIMIT + 1)
    for case in ("enumerate-word", "enumerate-cycle"):
        _, _, at, over = _CAPS[case]
        assert (_enumerate_total(*at), _enumerate_total(*over)) == (WORD_LIMIT, WORD_LIMIT + 1)


def test_solve_counts_each_word_from_the_walk(capsys, monkeypatch):
    # the count that solve checks before printing equals the longest printed
    # word's actions, in every regime and on both roots, where members tie
    for alpha, beta, num, den in _boundary_priors(7):
        if num != 1:
            continue
        m = den - 1
        z_low, z_high = root_pair(m, split_slack(alpha, beta, m)[1])
        for delta in (z_low / 2, (z_low + z_high) / 2, (1 + z_high) / 2, z_low, z_high):
            argv = ("solve", "--alpha", str(alpha), "--beta", str(beta), "--m", str(m),
                    "--delta", repr(delta))
            words = json.loads(run(capsys, *argv)[1])["result"]["members"]
            n = max(len(w.replace("(", "").replace(")*", "")) for w in words)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "WORD_LIMIT", n)
                assert run(capsys, *argv)[0] == EXIT_OK
                patch.setattr(cli, "WORD_LIMIT", n - 1)
                code, out, err = run(capsys, *argv)
            assert (code, out, err) == (
                EXIT_LIMIT, "", f"error: strategy word length must be at most {n - 1}\n")


@pytest.mark.parametrize("case", _CAPS)
def test_just_over_cap_exits_3_before_work(capsys, monkeypatch, case):
    workers, argv_for, _, over = _CAPS[case]
    _patch_workers(monkeypatch, workers)
    code, out, err = run(capsys, *argv_for(over))
    assert code == EXIT_LIMIT and " must be at most " in err and out == ""


@pytest.mark.parametrize("case", _CAPS)
def test_cap_admits_its_limit(monkeypatch, case):
    workers, argv_for, at, _ = _CAPS[case]
    _patch_workers(monkeypatch, workers)
    with pytest.raises(AssertionError, match="worker called"):
        main(list(argv_for(at)))


_C_HALF = Threshold(1, 2)
_ORACLE = ("oracle", *_PRIOR_CUTOFF, "--delta", "0.5", "--mode")

# Every hard cap, one row each: the module that reads the limit, the limit's
# name, the least limit that admits the row's input (None for an input from
# a bug report, run at the real limit), the cap's name in its message, and
# the input as a library call and as a CLI argv (None where there is none).
_EVERY_CAP = {
    "thresholds --n-max": (cli, "ROW_LIMIT", 4, "--n-max", None, ("thresholds", "--n-max", "4")),
    "simulate --max-periods": (
        cli, "ROW_LIMIT", 4, "--max-periods", None,
        ("simulate", *_PRIOR_CUTOFF, "--strategy", "(ffs)*", "--max-periods", "4"),
    ),
    "simulate --guesser-p --max-periods": (
        cli, "ROW_LIMIT", 4, "--max-periods", None,
        ("simulate", *_PRIOR_CUTOFF, "--guesser-p", "0", "--seed", "1", "--max-periods", "4"),
    ),
    "simulate --strategy word": (
        cli, "ROW_LIMIT", 3, "--strategy word length", None,
        ("simulate", *_PRIOR_CUTOFF, "--strategy", "sss", "--max-periods", "1"),
    ),
    # 5 points, estimated as 5.5 before the grid is built; the loop runs 5 times
    "sweep grid": (
        cli, "ROW_LIMIT", 5, "sweep grid points", None,
        ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0.1",
         "--delta-max", "0.55", "--step", "0.1"),
    ),
    # the real limit: 100,000 points, estimated as 100000.0000002
    "sweep grid at ROW_LIMIT": (
        cli, "ROW_LIMIT", 100_000, "sweep grid points", None,
        ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0",
         "--delta-max", "0.99999", "--step", "0.00001"),
    ),
    "sweep grid at ROW_LIMIT + 1": (
        cli, "ROW_LIMIT", None, "sweep grid points", None,
        ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0",
         "--delta-max", "0.99999", "--step", "0.0000099999"),
    ),
    "solve word": (
        cli, "WORD_LIMIT", 3, "strategy word length", None,
        ("solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", "0.5"),
    ),
    # h^1 = sss and h^inf = ss(fs)*
    "enumerate words": (
        cli, "WORD_LIMIT", 9, "total actions in all words", None,
        ("enumerate", *_PRIOR_CUTOFF, "--max-index", "1"),
    ),
    "exhaustive horizon": (
        oracle, "EXHAUSTIVE_LIMIT", 3, "exhaustive horizon",
        lambda: exhaustive_best(1, 3, _C_HALF, 0.5, 3), (*_ORACLE, "exhaustive", "--horizon", "3"),
    ),
    # no success crosses from Beta(1, 100) within 3 periods: a full tree
    "exhaustive tree nodes": (
        oracle, "EXHAUSTIVE_WORK_LIMIT", 15, "exhaustive tree nodes",
        lambda: exhaustive_best(1, 100, _C_HALF, 0.5, 3),
        ("oracle", "--alpha", "1", "--beta", "100", "--c-num", "1", "--c-den", "2",
         "--delta", "0.5", "--mode", "exhaustive", "--horizon", "3"),
    ),
    "dp horizon": (
        oracle, "DP_LIMIT", 4, "dp horizon",
        lambda: dp_value(1, 3, _C_HALF, 0.5, 4), (*_ORACLE, "dp", "--horizon", "4"),
    ),
    # 4 slack states times 35 sweeps, at delta 0.5 and tol 1e-10
    "value iteration work": (
        oracle, "VI_WORK_LIMIT", 140, "value iteration state updates",
        lambda: value_iteration(1, 3, _C_HALF, 0.5), (*_ORACLE, "vi"),
    ),
    "m": (
        belief, "PRICE_LIMIT", 4, "m",
        lambda: ProblemInstance(1, 4, 4, 0.5),
        ("solve", "--alpha", "1", "--beta", "4", "--m", "4", "--delta", "0.5"),
    ),
    "q in solve": (
        belief, "PRICE_LIMIT", 4, "free successes q",
        lambda: frontier_payoff(1, 5, 1, 1, 0.5),
        ("solve", "--alpha", "1", "--beta", "5", "--m", "1", "--delta", "0.5"),
    ),
    "q in sweep": (
        belief, "PRICE_LIMIT", 4, "free successes q",
        lambda: split_slack(1, 5, 1),
        ("sweep", "--alpha", "1", "--beta", "5", "--m", "1", "--delta-min", "0.1",
         "--delta-max", "0.5", "--step", "0.1"),
    ),
    # h^3 of Beta(1, 3) at cutoff 1/2 crosses at period 6
    "crossing period": (
        pricing, "PRICE_LIMIT", 6, "crossing period", lambda: frontier_payoff(1, 3, 1, 3, 0.5), None,
    ),
    "breakeven n": (
        pricing, "PRICE_LIMIT", 4, "n", lambda: breakeven_discount(4), ("thresholds", "--n-max", "4"),
    ),
    # a prefix of 4 and one cycle of 2
    "strategy length": (
        pricing, "PRICE_LIMIT", 6, "strategy length",
        lambda: payoff(parse_strategy("ssfs(fs)*"), 0.5),
        ("evaluate", "--strategy", "ssfs(fs)*", "--delta", "0.5"),
    ),
    # inputs that once crashed with an OverflowError (exit 1) or exited 2 with
    # CPython's limit on printing an int of more than 4300 digits
    "thresholds --n-max, 4000 digits": (
        cli, "ROW_LIMIT", None, "--n-max", None, ("thresholds", "--n-max", "9" * 4000),
    ),
    "simulate --max-periods, 4000 digits": (
        cli, "ROW_LIMIT", None, "--max-periods", None,
        ("simulate", *_PRIOR_CUTOFF, "--strategy", "(ffs)*", "--max-periods", "9" * 4000),
    ),
    "oracle vi --beta, 400 digits": (
        oracle, "VI_WORK_LIMIT", None, "value iteration state updates",
        lambda: value_iteration(1, 10**400 - 1, _C_HALF, 0.5),
        ("oracle", "--alpha", "1", "--beta", "9" * 400, "--c-num", "1", "--c-den", "2",
         "--delta", "0.5", "--mode", "vi"),
    ),
    "enumerate --beta, 4299 digits": (
        cli, "WORD_LIMIT", None, "total actions in all words", None,
        ("enumerate", "--alpha", "1", "--beta", "9" * 4299, "--c-num", "9", "--c-den", "10",
         "--max-index", "1"),
    ),
    "solve --beta 10**400": (
        belief, "PRICE_LIMIT", None, "free successes q",
        lambda: ProblemInstance(1, 10**400, 1, 0.5),
        ("solve", "--alpha", "1", "--beta", str(10**400), "--m", "1", "--delta", "0.5"),
    ),
    "sweep --beta 10**400": (
        belief, "PRICE_LIMIT", None, "free successes q",
        lambda: frontier_payoff(1, 10**400, 1, math.inf, 0.5),
        ("sweep", "--alpha", "1", "--beta", str(10**400), "--m", "1", "--delta-min", "0.1",
         "--delta-max", "0.5", "--step", "0.1"),
    ),
    "solve --m 10**400": (
        belief, "PRICE_LIMIT", None, "m",
        lambda: split_slack(1, 10**401, 10**400),
        ("solve", "--alpha", "1", "--beta", str(10**401), "--m", str(10**400), "--delta", "0.5"),
    ),
    "breakeven n 10**400": (
        pricing, "PRICE_LIMIT", None, "n", lambda: breakeven_discount(10**400), None,
    ),
    # the grid estimate of a subnormal step is inf, past int()'s range
    "sweep --step 5e-324": (
        cli, "ROW_LIMIT", None, "sweep grid points", None,
        ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0",
         "--delta-max", "0.5", "--step", "5e-324"),
    ),
    "frontier_payoff h^(10**308)": (
        pricing, "PRICE_LIMIT", None, "crossing period",
        lambda: frontier_payoff(1, 3, 1, 10**308, 0.5), None,
    ),
    # h^1..h^6 and h^inf, each priced from its schedule
    "verify_ordering n_max": (
        solver, "ORDERING_LIMIT", 6, "n_max",
        lambda: verify_ordering(ProblemInstance(1, 3, 1, 0.5), 6), None,
    ),
    "verify_ordering n_max at ORDERING_LIMIT + 1": (
        solver, "ORDERING_LIMIT", None, "n_max",
        lambda: verify_ordering(ProblemInstance(1, 3, 1, 0.5), solver.ORDERING_LIMIT + 1), None,
    ),
    "payoff of a run of 10**308": (
        pricing, "PRICE_LIMIT", None, "strategy length",
        lambda: payoff(Strategy([(Action.SUCCESS, 10**308)]), 0.5), None,
    ),
    # sss crosses at period 3 from Beta(1, 3) at cutoff 1/2
    "play_strategy schedule length": (
        sim, "PLAY_LIMIT", 3, "schedule length",
        lambda: play_strategy(1, 3, _C_HALF, parse_strategy("sss")), None,
    ),
    # the real limit: a run of 10**6 successes, which crosses at period 3
    "play_strategy schedule length at PLAY_LIMIT": (
        sim, "PLAY_LIMIT", 1_000_000, "schedule length",
        lambda: play_strategy(1, 3, _C_HALF, Strategy([(Action.SUCCESS, 10**6)])), None,
    ),
    # h^4 reads 4 blocks of the walk, h^inf at cutoff 2/5 at most min(2, 3) + 2
    "frontier_strategy walk": (
        strategy, "WALK_LIMIT", 4, "frontier walk blocks", lambda: frontier_strategy(1, 3, _C_HALF, 4),
        None,
    ),
    "frontier_strategy walk of h^inf": (
        strategy, "WALK_LIMIT", 4, "frontier walk blocks",
        lambda: frontier_strategy(1, 3, Threshold(2, 5), math.inf), None,
    ),
    # the real limit plus one: about 3 s and 320 MB uncapped, and h^(10**9) never ends
    "frontier_strategy walk at WALK_LIMIT + 1": (
        strategy, "WALK_LIMIT", None, "frontier walk blocks",
        lambda: frontier_strategy(1, 3, _C_HALF, strategy.WALK_LIMIT + 1), None,
    ),
    # 2 * 10**6 + 3 periods, past max_periods: 3 s and 380 MB uncapped
    "play_strategy of 10**6 failures and 10**9 successes": (
        sim, "PLAY_LIMIT", None, "schedule length",
        lambda: play_strategy(
            1, 3, _C_HALF, Strategy([(Action.FAILURE, 10**6), (Action.SUCCESS, 10**9)]),
            max_periods=10,
        ),
        None,
    ),
}


@pytest.mark.parametrize("case", _EVERY_CAP)
def test_every_cap_admits_its_limit_and_refuses_one_more(capsys, monkeypatch, case):
    """A cap admits need == limit; over it the library raises, and the CLI
    exits 3 with one line, "<name> must be at most <limit>", and no output."""
    module, constant, least, name, call, argv = _EVERY_CAP[case]
    if least is not None:
        monkeypatch.setattr(module, constant, least)
        if call is not None:
            call()
        if argv is not None:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (EXIT_OK, "") and out
        monkeypatch.setattr(module, constant, least - 1)
    message = f"{name} must be at most {getattr(module, constant)}"
    if call is not None:
        with pytest.raises(LimitExceededError, match=f"^{re.escape(message)}$"):
            call()
    if argv is not None:
        assert run(capsys, *argv) == (EXIT_LIMIT, "", f"error: {message}\n")


class TestOutputHandling:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "thresholds", "--n-max", "1", "--out", str(target)
        )
        assert code == EXIT_OK and out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "thresholds"

    def test_refuses_overwrite(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("precious")
        code, _, err = run(capsys, "thresholds", "--n-max", "1", "--out", str(target))
        assert code == EXIT_USAGE and "refusing to overwrite" in err
        assert target.read_text() == "precious"

    def test_force_overwrites(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        code, _, _ = run(
            capsys, "thresholds", "--n-max", "1", "--out", str(target), "--force"
        )
        assert code == EXIT_OK
        assert json.loads(target.read_text())["command"] == "thresholds"

    @pytest.mark.parametrize(
        "where, force, message",
        [
            ("missing", False, "cannot write --out {path}: No such file or directory"),
            ("missing", True, "cannot write --out {path}: No such file or directory"),
            ("directory", False, "refusing to overwrite existing file {path} (use --force)"),
            ("directory", True, "cannot write --out {path}: Is a directory"),
        ],
    )
    def test_unwritable_path_exits_2(self, capsys, tmp_path, where, force, message):
        path = str(tmp_path / "no" / "such" / "x.json" if where == "missing" else tmp_path)
        argv = ["thresholds", "--n-max", "2", "--out", path] + ["--force"] * force
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message.format(path=path)}\n")
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("fails", ["write", "flush"])
    def test_unwritable_stdout_exits_2(self, capsys, monkeypatch, fails):
        class Full(io.StringIO):
            def _full(self, *args):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stdout = Full()
        setattr(stdout, fails, stdout._full)
        monkeypatch.setattr(sys, "stdout", stdout)
        code, out, err = run(capsys, "thresholds", "--n-max", "2")
        message = f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        assert (code, out, err) == (EXIT_USAGE, "", message)

    def test_repeated_runs_byte_identical(self, capsys):
        args = ("solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", "0.77")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_envelope_versions_match_package(self, capsys):
        import sandbag

        doc = run_json(capsys, "evaluate", "--strategy", "s", "--delta", "0.5")
        assert doc["version"] == sandbag.__version__

    def test_bad_flag_usage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alpha", "1"])
        assert exc.value.code == EXIT_USAGE


# The table writer: cli._table's rows, filled into a list at the table's
# indent, must be exactly what json.dumps(rows, indent=2, sort_keys=True)
# prints at that indent; everything else in an envelope is json.dumps's own.

_TRICKY = ["},\n      {", "},\n    {", '", "', "}", "{", ": ", ",\n", "\\", "\u00e9\u2028",
           "%", "%s", "%%"]
_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(_TRICKY))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.text(max_size=8),
    st.sampled_from(_TRICKY),
)


def _filled(rows, pad: str) -> str:
    """The list ``_table``'s rows fill when the list opens at indent ``pad``."""
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(cli._table(rows, inner)) + f"\n{pad}]"


def _stdlib(rows, pad: str) -> str:
    return json.dumps(rows, indent=2, sort_keys=True).replace("\n", "\n" + pad)


@pytest.mark.parametrize(
    "rows",
    [
        [{"a": 1, "b": "},\n      {"}, {"c": math.nan}],  # two key sets; a row break in a value
        [{"a": 1}],
        [{"a": -0.0}],
        ({"a": 1}, {"b": 2}),  # a tuple of rows
    ],
)
def test_table_matches_stdlib_on_edge_shapes(rows):
    for pad in ("", "    "):
        assert _filled(rows, pad) == _stdlib(rows, pad)


@pytest.mark.parametrize(
    "rows",
    [
        [{1: 2}, {1: 3}],  # a non-str key
        [{"a": [1]}, {"a": [2]}],  # a column of lists
        [{}],  # an empty row
    ],
)
def test_table_refuses_what_is_not_a_table(rows):
    assert cli._table(rows, "      ") is None


# Tables of many rows sharing a key set: the shape every command prints.
_CELLS = st.one_of(_SCALARS, st.sampled_from(_TRICKY))
# equal values that print differently
_TWINS = st.sampled_from([(True, 1), (False, 0), (-0.0, 0.0), (1, 1.0), (0.0, False)])


def _draw_run(draw, keys: list[str]) -> list[dict]:
    """0-40 rows over keys; each column holds one shared object, equal but
    distinct objects (a JSON round trip copies a float, str or big int),
    values drawn per row, or a mix of two equal values that print
    differently."""
    n = draw(st.integers(0, 40))
    columns = []
    for _ in keys:
        kind = draw(st.sampled_from(["shared", "equal", "drawn", "twins"]))
        if kind == "drawn":
            columns.append(draw(st.lists(_CELLS, min_size=n, max_size=n)))
        elif kind == "twins":
            columns.append(draw(st.lists(st.sampled_from(draw(_TWINS)), min_size=n, max_size=n)))
        else:
            v = draw(_CELLS)
            columns.append([v] * n if kind == "shared" else [json.loads(json.dumps(v)) for _ in range(n)])
    return [dict(zip(keys, row)) for row in zip(*columns)]


@st.composite
def _same_key_tables(draw) -> list[dict]:
    key_sets = st.lists(_KEYS, min_size=1, max_size=4, unique=True)
    first = draw(key_sets)
    table = _draw_run(draw, first)
    if draw(st.booleans()):
        table += _draw_run(draw, draw(key_sets.filter(lambda ks: set(ks) != set(first))))
    return table


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_same_key_tables())
def test_table_matches_stdlib_on_same_key_tables(table):
    for pad in ("", "    "):  # a table alone, and a table as an envelope holds it
        if table:
            assert _filled(table, pad) == _stdlib(table, pad)
        else:
            assert cli._table(table, pad + "  ") is None


def test_table_encodes_only_varying_columns_per_row(capsys, monkeypatch):
    argv = ("sweep", "--alpha", "2", "--beta", "37", "--m", "3", "--delta-min", "0.01",
            "--delta-max", "0.99", "--step", "0.001")
    _, expected, _ = run(capsys, *argv)
    columns, builds = [], []
    encode_column, make_encoder = cli._column, json.encoder.c_make_encoder
    monkeypatch.setattr(cli, "_column", lambda values: columns.append(values) or encode_column(values))
    monkeypatch.setattr(json.encoder, "c_make_encoder",
                        lambda *args: builds.append(args) or make_encoder(*args))
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out == expected
    rows = json.loads(out)["result"]["rows"]
    assert len(rows) == 981 and len({r["regime"] for r in rows}) > 1
    # delta, regime and best_payoff vary; z_low and z_high are one object each
    assert [len(c) for c in columns] == [981] * 3
    assert len(builds) < 20  # every C encoder call: none per row


_ENVELOPE_ARGVS = [
    ("solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", "0.5"),
    ("solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", "0.6180339887"),
    ("solve", "--alpha", "1", "--beta", "5", "--m", "2", "--delta", "0.7"),
    ("enumerate", "--alpha", "1", "--beta", "5", "--c-num", "1", "--c-den", "3",
     "--max-index", "4"),
    ("enumerate", "--alpha", "2", "--beta", "9", "--c-num", "2", "--c-den", "5",
     "--max-index", "1"),
    ("evaluate", "--strategy", "ssfs(fs)*", "--delta", "0.5"),
    ("evaluate", "--strategy", "sf", "--delta", "0"),
    ("oracle", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--delta", "0.5", "--mode", "dp", "--horizon", "30"),
    ("oracle", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--delta", "0.5", "--mode", "exhaustive", "--horizon", "8"),
    ("oracle", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--delta", "0.5", "--mode", "vi"),
    ("thresholds", "--n-max", "7"),
    ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--strategy", "ssfss", "--max-periods", "10", "--delta", "0.5"),
    ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--guesser-p", "0.5", "--seed", "7", "--max-periods", "6"),
    ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--strategy", "sss", "--max-periods", "2"),
    # a k = 1 grid across both roots, and a k = 0 grid through the tie_all root
    ("sweep", "--alpha", "1", "--beta", "5", "--m", "2", "--delta-min", "0.55",
     "--delta-max", "0.8", "--step", "0.05"),
    ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0.618033986",
     "--delta-max", "0.618033991", "--step", "1e-9"),
    ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0.3",
     "--delta-max", "0.31", "--step", "0.05"),
    # big tables: a 981-row sweep, a mixed-key enumerate (h^1..h^2000 with
    # four keys, then h^inf with six), 10,000 periods whose bool column is
    # all False, 4,141 periods whose last one crosses, and 300 roots
    ("sweep", "--alpha", "2", "--beta", "37", "--m", "3", "--delta-min", "0.01",
     "--delta-max", "0.99", "--step", "0.001"),
    ("enumerate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--max-index", "2000"),
    ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--guesser-p", "0.3", "--seed", "11", "--max-periods", "10000"),
    ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--guesser-p", "0.5", "--seed", "34", "--max-periods", "10000"),
    ("thresholds", "--n-max", "300"),
    # delta = 0 has an answer in solve and sweep, as in evaluate
    ("solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", "0"),
    ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0",
     "--delta-max", "0.2", "--step", "0.1"),
]


def test_every_envelope_matches_stdlib_render(capsys, monkeypatch):
    assert {argv[0] for argv in _ENVELOPE_ARGVS} == set(cli._HANDLERS)
    for argv in _ENVELOPE_ARGVS:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
        with monkeypatch.context() as m:
            m.setattr(cli, "_table", lambda rows, inner: None)  # json.dumps writes it all
            assert run(capsys, *argv) == (code, out, err), argv


@pytest.mark.parametrize(
    "key, argv",
    [
        ("rows", ("sweep", "--alpha", "1", "--beta", "5", "--m", "2", "--delta-min", "0.5",
                  "--delta-max", "0.9", "--step", "0.001")),
        ("records", ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
                     "--strategy", "ssfs(fs)*", "--max-periods", "50", "--delta", "0.5")),
        ("roots", ("thresholds", "--n-max", "40")),
        ("strategies", ("enumerate", "--alpha", "1", "--beta", "3", "--c-num", "1",
                        "--c-den", "2", "--max-index", "40")),
    ],
)
def test_render_leaves_no_table_to_the_pure_python_encoder(capsys, monkeypatch, key, argv):
    """The pins cannot tell a table that ``_table`` wrote from one that fell
    back to json.dumps, whose pure-Python encoder writes the same bytes
    slowly: so ``_table`` must write the handler's table, and the encoder,
    if it runs, must see that table as []."""
    handler, table = cli._HANDLERS[argv[0]], cli._table
    make_iterencode = json.encoder._make_iterencode
    returned, tabled, encoded = [], [], []

    def handle(args):
        returned.append(handler(args))
        return returned[-1]

    def write_table(rows, inner):
        tabled.append((rows, table(rows, inner)))
        return tabled[-1][1]

    def make(*args, **kwargs):
        iterencode = make_iterencode(*args, **kwargs)
        return lambda o, level: encoded.append(o) or iterencode(o, level)

    monkeypatch.setitem(cli._HANDLERS, argv[0], handle)
    monkeypatch.setattr(cli, "_table", write_table)
    monkeypatch.setattr(json.encoder, "_make_iterencode", make)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    [(payload, rows)] = returned
    [(seen, texts)] = tabled
    assert seen is rows and payload[key] is rows and len(texts) == len(rows) > 1
    assert all(o["result"][key] == [] for o in encoded)
    assert json.loads(out)["result"][key] == rows


def test_table_rows_land_in_result_when_params_hold_its_key():
    """A params key equal to the table's key prints as ``"rows": []`` at the
    same indent before ``result``; the rows must still go into ``result``."""
    args = argparse.Namespace(command="sweep", format="json", out=None, force=False, alpha=1,
                              rows=[])
    table = [{"delta": 0.5, "regime": "h1"}, {"delta": 0.6, "regime": "h2"}]
    text = cli.render(args, {"rows": table}, table)
    assert text == json.dumps({"command": "sweep", "params": {"alpha": 1, "rows": []},
                               "result": {"rows": table}, "version": cli.__version__},
                              indent=2, sort_keys=True) + "\n"


def _not_json(name: str):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def _load_pin_tool():
    spec = importlib.util.spec_from_file_location(
        "pin_envelopes", Path(__file__).resolve().parent.parent / "tools" / "pin_envelopes.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_envelope_keeps_its_pinned_bytes():
    """The SHA-256 of (exit code, stdout, stderr) of every ``_ENVELOPE_ARGVS``
    argv, in JSON and CSV, equals ``golden/envelopes.json``. A change that
    alters bytes on purpose reruns ``tools/pin_envelopes.py`` and lists the
    argvs it prints."""
    tool = _load_pin_tool()
    assert tool.envelope_argvs() == [tuple(argv) for argv in _ENVELOPE_ARGVS]
    pinned = json.loads((GOLDEN_DIR / "envelopes.json").read_text(encoding="utf-8"))
    now = tool.pins()
    assert list(now) == list(pinned)
    changed = [argv for argv in now if now[argv] != pinned[argv]]
    assert not changed, f"{len(changed)} envelopes changed, first: {changed[0]}"


def test_every_envelope_is_strict_json(capsys):
    for argv in _ENVELOPE_ARGVS:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
        json.loads(out, parse_constant=_not_json)


def test_cli_defaults_are_the_library_defaults():
    parse = cli.build_parser().parse_args
    assert parse(["solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", "0.5"]).tie_tol == TIE_TOL
    assert parse(["thresholds", "--n-max", "1"]).tol == ROOT_TOL
    vi_tol = inspect.signature(value_iteration).parameters["tol"].default
    assert parse(["oracle", *_PRIOR_CUTOFF, "--delta", "0.5"]).tol == vi_tol


# each command's required flags, in the order its parser adds them
_REQUIRED = {
    "solve": ("--alpha", "--beta", "--m", "--delta"),
    "enumerate": ("--alpha", "--beta", "--c-num", "--c-den", "--max-index"),
    "evaluate": ("--strategy", "--delta"),
    "oracle": ("--alpha", "--beta", "--c-num", "--c-den", "--delta"),
    "thresholds": ("--n-max",),
    "simulate": ("--alpha", "--beta", "--c-num", "--c-den", "--max-periods"),
    "sweep": ("--alpha", "--beta", "--m", "--delta-min", "--delta-max", "--step"),
}


@pytest.mark.parametrize("command", _REQUIRED)
def test_bare_command_names_every_required_flag(capsys, command):
    assert set(_REQUIRED) == set(cli._HANDLERS)
    with pytest.raises(SystemExit) as exc:
        main([command])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert f"required: {', '.join(_REQUIRED[command])}" in err


def _flags_read(fn) -> set[str]:
    """The flags behind every ``args.<name>`` that ``fn``'s source reads."""
    tree = ast.parse(inspect.getsource(fn))
    return {
        "--" + node.attr.replace("_", "-")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "args"
    } - {"--command"}


@pytest.mark.parametrize("command", _REQUIRED)
def test_command_help_lists_every_flag_its_handler_reads(capsys, command):
    flags = set().union(*map(_flags_read, (cli._HANDLERS[command], cli.render, cli._write_output)))
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == EXIT_OK
    assert flags >= set(_REQUIRED[command])  # the source scan finds what argparse requires
    assert {flag for flag in flags if flag not in out.split()} == set()


def test_parsing_one_command_adds_only_its_arguments(monkeypatch):
    added, made = [], []
    add_argument = argparse._ActionsContainer.add_argument
    init = argparse.ArgumentParser.__init__

    def counted(self, *names, **kwargs):
        if names != ("-h", "--help"):  # every parser adds its -h when it is made
            added.append(self.prog)
        return add_argument(self, *names, **kwargs)

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.prog)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    args = cli.build_parser().parse_args(["sweep", *_SWEEP_BASE[1:], "--delta-min", "0.1",
                                          "--delta-max", "0.2", "--step", "0.1"])
    assert args.step == 0.1
    assert set(added) == {"sandbag", "sandbag sweep"}
    assert made == ["sandbag", "sandbag sweep"]


def _refuses(rule, x: float) -> bool:
    try:
        rule(x)
    except ValueError:
        return True
    return False


def _sweep_ends(lo: float, hi: float) -> None:
    check_delta(lo)
    check_delta(hi)
    if not lo < hi:
        raise ValueError("need --delta-min < --delta-max")


_NEAR_ONE = math.nextafter(1.0, 0.0)
_SWEEP_BASE = ("sweep", "--alpha", "1", "--beta", "3", "--m", "1")
# each real-valued flag: a valid argv without it, and the library rule that
# owns it; a sweep end is also ordered against the other end
_REAL_FLAGS = {
    "solve --delta": (("solve", "--alpha", "1", "--beta", "3", "--m", "1"), check_delta),
    "solve --tie-tol": (
        ("solve", "--alpha", "1", "--beta", "3", "--m", "1", "--delta", "0.5"),
        lambda x: check_tol(x, "tie_tol"),
    ),
    "evaluate --delta": (("evaluate", "--strategy", "ssfs(fs)*"), check_delta),
    **{
        f"oracle {mode} --delta": (("oracle", *_PRIOR_CUTOFF, "--mode", mode, "--horizon", "5"),
                                   check_delta)
        for mode in ("exhaustive", "dp", "vi")
    },
    **{
        f"oracle {mode} --tol": (
            ("oracle", *_PRIOR_CUTOFF, "--delta", "0.5", "--mode", mode, "--horizon", "5"),
            lambda x: check_tol(x, "tol", positive=True),
        )
        for mode in ("exhaustive", "dp", "vi")
    },
    "thresholds --tol": (("thresholds", "--n-max", "3"), lambda x: check_tol(x, "tol", positive=True)),
    "simulate --delta": (("simulate", *_PRIOR_CUTOFF, "--strategy", "ssfss", "--max-periods", "10"),
                         check_delta),
    "simulate --guesser-p": (("simulate", *_PRIOR_CUTOFF, "--seed", "1", "--max-periods", "10"),
                             lambda x: GuesserConfig(x, 1)),
    "sweep --delta-min": ((*_SWEEP_BASE, "--delta-max", repr(_NEAR_ONE), "--step", "0.25"),
                          lambda x: _sweep_ends(x, _NEAR_ONE)),
    "sweep --delta-max": ((*_SWEEP_BASE, "--delta-min", "0", "--step", "0.25"),
                          lambda x: _sweep_ends(0.0, x)),
    "sweep --step": ((*_SWEEP_BASE, "--delta-min", "0.25", "--delta-max", "0.75"),
                     lambda x: check_tol(x, "--step", positive=True)),
}
_REAL_VALUES = ("nan", "inf", "-inf", "-1", "-0.0", "0", "5e-324", "0.5", repr(_NEAR_ONE), "1", "1.5")
# the accepted values that run into a cap on the work
_CAPPED = {("oracle vi --delta", repr(_NEAR_ONE)), ("sweep --step", "5e-324")}


@pytest.mark.parametrize("flag", _REAL_FLAGS)
def test_real_flag_exits_2_exactly_when_its_rule_refuses(capsys, flag):
    """Every real-valued flag is checked by the library rule that owns it and
    by nothing else: exit 2 with no output when the rule refuses the float,
    and otherwise an answer, or exit 3 where a cap on the work applies."""
    base, rule = _REAL_FLAGS[flag]
    name = flag.split()[-1]
    for text in _REAL_VALUES:
        # "--flag=value", as argparse would read a lone "-inf" as a flag
        code, out, err = run(capsys, *base, f"{name}={text}")
        if _refuses(rule, float(text)):
            assert (code, out) == (EXIT_USAGE, ""), (flag, text, err)
        elif (flag, text) in _CAPPED:
            assert (code, out) == (EXIT_LIMIT, ""), (flag, text, err)
        else:
            assert (code, err) == (EXIT_OK, ""), (flag, text, err)
