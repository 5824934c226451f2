"""CLI behavior: envelopes, schemas, CSV shapes, exit codes."""

import csv
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandbag import cli
from sandbag.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, ROW_LIMIT, WORD_LIMIT, main
from sandbag.oracle import EXHAUSTIVE_WORK_LIMIT, VI_WORK_LIMIT

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

# (patched workers, argv for one flag value, value at the cap, value just over it)
_CAPS = {
    "enumerate-rows": (
        ["sandbag.cli.frontier_strategy"],
        lambda v: ("enumerate", "--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2",
                   "--max-index", str(v)),
        ROW_LIMIT - 1,
        ROW_LIMIT,
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
    "enumerate-word": (
        ["sandbag.cli.format_strategy"],
        lambda v: ("enumerate", "--alpha", "1", "--beta", str(v), "--c-num", "1",
                   "--c-den", "2", "--max-index", "1"),
        WORD_LIMIT,
        WORD_LIMIT + 1,
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

_TRICKY = ["},\n      {", "},\n    {", '", "', "}", "{", ": ", ",\n", "\\", "\u00e9\u2028"]
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
    ],
)
def test_dumps_matches_stdlib_on_edge_shapes(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


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
