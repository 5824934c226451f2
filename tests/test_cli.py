"""CLI behavior: envelopes, schemas, CSV shapes, exit codes."""

import csv
import io
import json
from pathlib import Path

import jsonschema
import pytest

from sandbag.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


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
    ],
)
def test_nonfinite_tolerance_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and "finite" in err and out == ""


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
