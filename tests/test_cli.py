"""CLI behavior: envelopes, schemas, CSV shapes, exit codes."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandbag import (
    Action,
    OptimalKind,
    ProblemInstance,
    Threshold,
    breakeven_discount,
    classify,
    cli,
    format_strategy,
    frontier_strategy,
)
from sandbag.belief import split_slack
from sandbag.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, ROW_LIMIT, WORD_LIMIT, main
from sandbag.oracle import EXHAUSTIVE_WORK_LIMIT, VI_WORK_LIMIT
from sandbag.solver import root_pair

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
                                                      ("0", "3", "pseudo-counts")])
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
    ],
)
def test_nonfinite_tolerance_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and "finite" in err and out == ""


_PRIOR_CUTOFF = ("--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", *_PRIOR_CUTOFF, "--max-index", "0"), "--max-index must be at least 1"),
        (("thresholds", "--n-max", "0"), "--n-max must be at least 1"),
        *[(("oracle", *_PRIOR_CUTOFF, "--delta", "0.5", "--mode", mode, "--horizon", "-1"),
           "horizon must be nonnegative") for mode in ("dp", "exhaustive")],
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

    # exact output pinned from before the breakeven roots were memoised: a k = 0
    # grid through the tie_all root, and a k = 1 grid across both roots
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("sweep_k0_tie", ("--alpha", "1", "--beta", "3", "--m", "1", "--delta-min",
                              "0.618033986", "--delta-max", "0.618033991", "--step", "1e-9")),
            ("sweep_k1", ("--alpha", "1", "--beta", "5", "--m", "2", "--delta-min", "0.55",
                          "--delta-max", "0.8", "--step", "0.05")),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_golden_bytes(self, capsys, name, argv, fmt):
        code, out, err = run(capsys, "sweep", *argv, "--format", fmt)
        assert code == EXIT_OK and err == ""
        assert out == (GOLDEN_DIR / f"{name}.{fmt}").read_text(encoding="utf-8")

    def test_fine_grid_exits_3_before_classifying(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("classify called on an over-limit grid")

        monkeypatch.setattr("sandbag.cli.classify", fail)
        code, out, err = run(
            capsys, "sweep", "--alpha", "1", "--beta", "3", "--m", "1",
            "--delta-min", "0.1", "--delta-max", "0.5", "--step", "1e-9",
        )
        assert code == EXIT_LIMIT and "limit" in err and out == ""

    def test_delta_min_rounding_to_zero_names_the_flag(self, capsys):
        # every grid point is rounded to 12 decimals, so 1e-13 would give delta 0.0
        code, out, err = run(
            capsys, "sweep", "--alpha", "1", "--beta", "3", "--m", "2",
            "--delta-min", "1e-13", "--delta-max", "0.5", "--step", "0.1",
        )
        assert code == EXIT_USAGE and out == ""
        assert err == "error: --delta-min must stay positive when rounded to 12 decimals\n"

    @pytest.mark.parametrize(
        "grid, code, message",
        [
            (("0.1", "0.5", "1e-9"), EXIT_LIMIT, "limit is 100000"),  # the cap first
            (("0.1", "0.5", "0.1"), EXIT_USAGE, "prior mean exceeds threshold"),
            (("1e-13", "0.5", "0.1"), EXIT_USAGE, "prior mean exceeds threshold"),
            (("0.5", "0.1", "1e-9"), EXIT_USAGE, "--delta-min < --delta-max"),
            (("0.1", "0.5", "nan"), EXIT_USAGE, "--step"),
        ],
    )
    def test_error_order(self, capsys, grid, code, message):
        """--step, then the delta range, then the row cap, then the prior and
        m, then the rounded --delta-min."""
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

        calls = {"split_slack": 0, "breakeven_discount": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def fail(*args, **kwargs):
            raise AssertionError("per-point setup in sweep")

        monkeypatch.setattr(cli, "split_slack", counted("split_slack", cli.split_slack))
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
        assert code == EXIT_OK and len(json.loads(out)["result"]["rows"]) == 91
        assert calls["split_slack"] == 1 and 1 <= calls["breakeven_discount"] <= 2


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


@settings(derandomize=True, max_examples=300, deadline=None)  # about 1.5 s
@given(_straddling_sweeps())
def test_sweep_rows_equal_per_point_classify(case):
    """Each sweep row equals the one built from classify at that point alone."""
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
    schemas = {p.name.removesuffix(".schema.json") for p in SCHEMA_DIR.glob("*.schema.json")}
    assert set(cli._HANDLERS) == set(cli._CSV_COLUMNS) == schemas - {"envelope"}
    assert len(cli._HANDLERS) == 7


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
    # a finite word plays to its own length, whatever --max-periods says:
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
    # the Bellman sweep is the first call of the builtin enumerate in oracle.py
    "oracle-vi-work": (
        ["sandbag.oracle.enumerate"],
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
            assert (code, out) == (EXIT_LIMIT, "") and f"strategy word has {n} actions" in err


@pytest.mark.parametrize("case", _CAPS)
def test_just_over_cap_exits_3_before_work(capsys, monkeypatch, case):
    workers, argv_for, _, over = _CAPS[case]
    _patch_workers(monkeypatch, workers)
    code, out, err = run(capsys, *argv_for(over))
    assert code == EXIT_LIMIT and "limit" in err and out == ""


@pytest.mark.parametrize("case", _CAPS)
def test_cap_admits_its_limit(monkeypatch, case):
    workers, argv_for, at, _ = _CAPS[case]
    _patch_workers(monkeypatch, workers)
    with pytest.raises(AssertionError, match="worker called"):
        main(list(argv_for(at)))


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


# The JSON writer: cli._dumps must print exactly what
# json.dumps(obj, indent=2, sort_keys=True) prints.

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
_ROWS = st.dictionaries(_KEYS, _SCALARS, min_size=1, max_size=4)
_TABLES = st.lists(st.one_of(_ROWS, st.just({})), max_size=4)  # rows with different keys
_JSON = st.recursive(
    st.one_of(_SCALARS, _TABLES, st.just({}), st.just([])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=4)
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_JSON)
def test_dumps_matches_stdlib(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": [{"a": 1, "b": "},\n      {"}, {"c": math.nan}], "x": {"y": []}},
        [[{"a": 1}], [{}], {"t": [{"a": -0.0}]}],
        {"k": (1, 2), "t": ({"a": 1}, {"b": 2})},
        {"outer": {1: [2], 2: {"a": [3]}}},  # non-str keys in a nested dict
        {"flat": {1.5: "x", True: None, 3: -math.inf}},
        [{1: 2}, {1: 3}],  # not a table: a non-str key
        [{"a": [1]}, {"a": [2]}],  # not a table: a column of lists
    ],
)
def test_dumps_matches_stdlib_on_edge_shapes(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


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
def test_dumps_matches_stdlib_on_same_key_tables(table):
    for obj in (table, {"result": {"rows": table}}):
        assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


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
    ("sweep", "--alpha", "1", "--beta", "5", "--m", "2", "--delta-min", "0.55",
     "--delta-max", "0.8", "--step", "0.05"),
    ("sweep", "--alpha", "1", "--beta", "3", "--m", "1", "--delta-min", "0.3",
     "--delta-max", "0.31", "--step", "0.05"),
    # big tables: a 981-row sweep, a mixed-key enumerate (h^1..h^2000 with
    # four keys, then h^inf with six), 10,000 periods whose bool column is
    # all False, 4,141 periods whose last one crosses, and 200 roots
    ("sweep", "--alpha", "2", "--beta", "37", "--m", "3", "--delta-min", "0.01",
     "--delta-max", "0.99", "--step", "0.001"),
    ("enumerate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--max-index", "2000"),
    ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--guesser-p", "0.3", "--seed", "11", "--max-periods", "10000"),
    ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
     "--guesser-p", "0.5", "--seed", "34", "--max-periods", "10000"),
    ("thresholds", "--n-max", "200"),
]


def test_every_envelope_matches_stdlib_render(capsys, monkeypatch):
    assert {argv[0] for argv in _ENVELOPE_ARGVS} == set(cli._HANDLERS)
    for argv in _ENVELOPE_ARGVS:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
        with monkeypatch.context() as m:
            m.setattr(cli, "_dumps", lambda obj: json.dumps(obj, indent=2, sort_keys=True))
            assert run(capsys, *argv) == (code, out, err), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--alpha", "1", "--beta", "5", "--m", "2", "--delta-min", "0.5",
         "--delta-max", "0.9", "--step", "0.001"),
        ("simulate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
         "--strategy", "ssfs(fs)*", "--max-periods", "50", "--delta", "0.5"),
        ("thresholds", "--n-max", "40"),
    ],
)
def test_render_never_runs_the_pure_python_encoder(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", fail)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({"a": [1]}, indent=2)  # the patch reaches the indent path
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["command"] == argv[0]
