"""The four benchmark workloads: seeded inputs, one timed op, its correctness check.

Every input comes from ``random.Random("<workload>:<seed>")``. The
in-process workloads draw their continuous parameters from a Halton
sequence shifted by seeded offsets, so every prefix of the op sequence
covers the parameter ranges evenly and a run's cost mix barely depends
on where the time limit cuts it.

An op is only the timed call(s) into ``sandbag``; ``check`` runs after
the op's clock has stopped and raises ``CheckFailed`` on a wrong result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from typing import Any, Callable, NamedTuple

import proc

N_INPUTS = 2048  # inputs built per run; a run that uses more cycles through them


class CheckFailed(Exception):
    """An op returned a result that disagrees with its reference."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


class _Halton:
    """Halton points in [0, 1)^d, each coordinate shifted by a seeded offset mod 1."""

    def __init__(self, rng: random.Random, bases: tuple[int, ...]) -> None:
        self.bases = bases
        self.shifts = [rng.random() for _ in bases]

    def __call__(self, i: int) -> list[float]:
        return [
            (_radical_inverse(i + 1, b) + s) % 1.0 for b, s in zip(self.bases, self.shifts)
        ]


def _label(index) -> str:
    return "hinf" if index == math.inf else f"h{index}"


def _regime(res) -> str:
    return _label(res.members[0]) if res.kind.value == "unique" else "tie"


# --------------------------------------------------------------------------
# large_prior: the O(prior size) path of one instance


class LargePrior(NamedTuple):
    alpha: int
    beta: int
    m: int
    delta: float
    guesser_p: float
    guesser_seed: int
    points: int = 1


LP_M = (1, 2, 3, 5, 8)
LP_BETA_MAX = 10**6
LP_Q_MAX = 100_000  # longest free-success run q = r - alpha; bounds one op near 1 s
LP_N_MAX = 3  # verify_ordering prices h^1..h^3 and h^inf
LP_SIM_CAP = 500  # periods played by play_strategy(h^inf) and play_guesser


def build_large_prior(sb, seed: int) -> list[LargePrior]:
    rng = random.Random(f"large_prior:{seed}")
    halton = _Halton(rng, (2, 3, 5, 7, 11))
    out = []
    for i in range(N_INPUTS):
        u_q, u_beta, u_m, u_theta, u_p = halton(i)
        # an op costs O(q), so q is the first (best stratified) coordinate:
        # log-uniform on [0, LP_Q_MAX]; beta = m*r + k is then log-uniform
        # between the least prior that leaves room for q and 10^6
        q = int((LP_Q_MAX + 1) ** u_q) - 1
        m = LP_M[int(u_m * len(LP_M))]
        lo = math.log10(max(100, m * (q + 1)))
        beta = min(LP_BETA_MAX, int(10 ** (lo + (6 - lo) * u_beta)))
        # delta = exp(-theta/(q+1)) keeps delta**q in [e^-10, e^-0.1]: the
        # members differ by more than float resolution, so the regime
        # question has an answer in floats (at delta = 0.7 and q = 10^5
        # every member prices to the same double)
        theta = 10 ** (-1 + 2 * u_theta)
        delta = math.exp(-theta / (q + 1))
        alpha = beta // m - q
        out.append(LargePrior(alpha, beta, m, delta, 0.02 + 0.48 * u_p, rng.randrange(2**31)))
    return out


def op_large_prior(sb, x: LargePrior, tracer=None):
    a, b, m, delta = x.alpha, x.beta, x.m, x.delta
    c = sb.Threshold.from_m(m)
    inst = sb.ProblemInstance(a, b, m, delta)
    res = sb.classify(inst)
    report = sb.verify_ordering(inst, LP_N_MAX)
    members = {i: sb.frontier_strategy(a, b, c, i) for i in (1, 2, math.inf)}
    feasible = [sb.is_feasible(h, a, b, c) for h in members.values()]
    greedy = [sb.greedy_violations(h, a, b, c) for h in members.values()]
    priced = [(sb.payoff(h, delta), sb.frontier_payoff(a, b, m, i, delta)) for i, h in members.items()]
    walk = sb.play_strategy(a, b, c, members[math.inf], delta, LP_SIM_CAP)
    guess = sb.play_guesser(a, b, c, sb.GuesserConfig(x.guesser_p, x.guesser_seed), delta, LP_SIM_CAP)
    return res, report, feasible, greedy, priced, walk, guess


def check_large_prior(sb, x: LargePrior, out) -> None:
    res, report, feasible, greedy, priced, walk, guess = out
    _require(report.agrees, f"verify_ordering disagrees: argmax {report.argmax} vs {res.members}")
    _require(all(feasible), "a frontier member is infeasible")
    _require(not any(greedy), "a frontier member is not greedy")
    for direct, closed in priced:
        _require(
            math.isclose(direct, closed, rel_tol=1e-9, abs_tol=1e-9),
            f"payoff {direct!r} != frontier_payoff {closed!r}",
        )
    _require(
        not walk.terminated and len(walk.records) == LP_SIM_CAP,
        "h^inf crossed the cutoff or stopped before the period cap",
    )
    _require(
        0 < len(guess.records) <= LP_SIM_CAP and guess.terminated == guess.records[-1].crossed,
        "guesser trajectory ends inconsistently",
    )


# --------------------------------------------------------------------------
# oracle_xcheck: brute-force oracles against the classifier


class OracleXcheck(NamedTuple):
    alpha: int
    beta: int
    m: int
    delta: float
    horizon: int
    points: int = 1


OX_BANDS = ((0.2, 0.9), (0.9, 0.99), (0.99, 0.998))
OX_HORIZONS = (12, 13, 14, 15, 16)
OX_VI_TOL = 1e-10


def build_oracle_xcheck(sb, seed: int) -> list[OracleXcheck]:
    rng = random.Random(f"oracle_xcheck:{seed}")
    halton = _Halton(rng, (2, 3, 5, 7))
    out = []
    for i in range(N_INPUTS):
        u_m, u_a, u_b, u_d = halton(i)
        m = 1 + int(5 * u_m)
        a = 1 + int(3 * u_a)
        b = a * m + int((3 * m + 1) * u_b)
        lo, hi = OX_BANDS[i % len(OX_BANDS)]
        horizon = OX_HORIZONS[(i // len(OX_BANDS)) % len(OX_HORIZONS)]
        out.append(OracleXcheck(a, b, m, lo + (hi - lo) * u_d, horizon))
    return out


def op_oracle_xcheck(sb, x: OracleXcheck, tracer=None):
    c = sb.Threshold.from_m(x.m)
    res = sb.classify(sb.ProblemInstance(x.alpha, x.beta, x.m, x.delta))
    tree = sb.exhaustive_best(x.alpha, x.beta, c, x.delta, x.horizon)
    dp = sb.dp_value(x.alpha, x.beta, c, x.delta, x.horizon)
    vi = sb.value_iteration(x.alpha, x.beta, c, x.delta, tol=OX_VI_TOL)
    return res, tree, dp, vi


def check_oracle_xcheck(sb, x: OracleXcheck, out) -> None:
    res, tree, dp, vi = out
    _require(tree.value == dp, f"exhaustive_best {tree.value!r} != dp_value {dp!r}")
    best = max(res.payoffs.values())
    _require(abs(vi - best) <= OX_VI_TOL, f"value_iteration {vi!r} vs classify {best!r}")


# --------------------------------------------------------------------------
# delta_sweep: the sweep command in process over a fine grid


class Sweep(NamedTuple):
    alpha: int
    beta: int
    m: int
    delta_min: float
    step: float
    points: int
    argv: tuple[str, ...]


DS_POINTS = (400, 1600)  # grid sizes, uniform: about 1000 points per sweep on average


def _sweep_argv(a: int, b: int, m: int, dmin: float, dmax: float, step: float) -> tuple[str, ...]:
    return (
        "sweep", "--alpha", str(a), "--beta", str(b), "--m", str(m),
        "--delta-min", repr(dmin), "--delta-max", repr(dmax), "--step", repr(step),
    )


def build_delta_sweep(sb, seed: int) -> list[Sweep]:
    importlib.import_module("sandbag.cli")
    rng = random.Random(f"delta_sweep:{seed}")
    halton = _Halton(rng, (2, 3, 5, 7, 11, 13, 17))
    out = []
    for i in range(N_INPUTS):
        u_n, u_m, u_a, u_r, u_k, u_lo, u_step = halton(i)
        # the grid size drives the cost, so it is the first coordinate; a
        # spread of sizes keeps p50 a smooth function of machine speed
        n = DS_POINTS[0] + int((DS_POINTS[1] - DS_POINTS[0] + 1) * u_n)
        m = 1 + int(8 * u_m)
        a = 1 + int(4 * u_a)
        b = m * (a + int(4 * u_r)) + int(m * u_k)
        # grid in exact decimals: delta_min = lo/10^4, step = k/10^6
        lo = 10 + int(290 * u_lo)
        k_max = (999_000 - 100 * lo) // (n - 1)
        k = 300 + int((k_max - 299) * u_step)
        dmin, step = lo / 10**4, k / 10**6
        dmax = (100 * lo + (n - 1) * k) / 10**6
        out.append(Sweep(a, b, m, dmin, step, n, _sweep_argv(a, b, m, dmin, dmax, step)))
    return out


def op_delta_sweep(sb, x: Sweep, tracer=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sb.cli.main(list(x.argv))
    return code, buf.getvalue()


def _check_sweep_rows(sb, x: Sweep, rows: list[dict]) -> None:
    _require(len(rows) == x.points, f"{len(rows)} rows for a {x.points}-point grid")
    for j, row in enumerate(rows):
        d = row["delta"]
        _require(abs(d - (x.delta_min + j * x.step)) <= 1e-9, f"row {j} delta {d!r} off the grid")
        res = sb.classify(sb.ProblemInstance(x.alpha, x.beta, x.m, d))
        expected = {
            "delta": d,
            "regime": _regime(res),
            "best_payoff": max(res.payoffs.values()),
            "z_low": res.z_low,
            "z_high": res.z_high,
        }
        _require(row == expected, f"row {j}: {row} != classify {expected}")


def check_delta_sweep(sb, x: Sweep, out) -> None:
    code, text = out
    _require(code == 0, f"sweep exited {code}")
    doc = json.loads(text)
    _require(doc["command"] == "sweep", "envelope names another command")
    _check_sweep_rows(sb, x, doc["result"]["rows"])


# --------------------------------------------------------------------------
# cli_mix: fresh `python -m sandbag` processes through all seven commands


class CliCall(NamedTuple):
    command: str
    argv: tuple[str, ...]
    params: dict
    points: int


CLI_COMMANDS = ("solve", "enumerate", "evaluate", "oracle", "thresholds", "simulate", "sweep")
CLI_N_INPUTS = 512
CLI_SWEEP_POINTS = 25


def _prior_m(rng: random.Random) -> tuple[int, int, int]:
    a, m = rng.randint(1, 3), rng.randint(1, 5)
    return a, a * m + rng.randint(0, 2 * m), m


def _prior_cutoff(rng: random.Random) -> tuple[int, int, int, int]:
    num = rng.choice((1, 1, 2))
    den = rng.randint(num + 1, 7)
    a = rng.randint(1, 3)
    b = -(-(den - num) * a // num) + rng.randint(0, 4)  # slack num*b - (den-num)*a >= 0
    return a, b, num, den


def _delta(rng: random.Random) -> float:
    return round(rng.uniform(0.05, 0.95), 6)


def _cli_call(sb, rng: random.Random, command: str) -> CliCall:
    p: dict[str, Any]
    if command == "solve":
        a, b, m = _prior_m(rng)
        p = dict(alpha=a, beta=b, m=m, delta=_delta(rng))
    elif command == "enumerate":
        a, b, num, den = _prior_cutoff(rng)
        p = dict(alpha=a, beta=b, c_num=num, c_den=den, max_index=rng.randint(1, 8))
    elif command == "evaluate":
        word = "".join(rng.choice("sf") for _ in range(rng.randint(1, 24)))
        if rng.random() < 0.5:
            word += "(" + "".join(rng.choice("sf") for _ in range(rng.randint(1, 6))) + ")*"
        p = dict(strategy=word, delta=_delta(rng))
    elif command == "oracle":
        a, b, num, den = _prior_cutoff(rng)
        p = dict(alpha=a, beta=b, c_num=num, c_den=den, delta=_delta(rng), mode="dp",
                 horizon=rng.randint(20, 200))
    elif command == "thresholds":
        p = dict(n_max=rng.randint(1, 30))
    elif command == "simulate":
        a, b, num, den = _prior_cutoff(rng)
        p = dict(alpha=a, beta=b, c_num=num, c_den=den, max_periods=rng.randint(50, 300))
        if rng.random() < 0.5:
            index = rng.choice((1, 2, 3, math.inf))
            h = sb.frontier_strategy(a, b, sb.Threshold(num, den), index)
            p["strategy"] = sb.format_strategy(h)
        else:
            p["guesser_p"] = round(rng.uniform(0.02, 0.6), 4)
            p["seed"] = rng.randrange(10**6)
        if rng.random() < 0.5:
            p["delta"] = _delta(rng)
    else:
        a, b, m = _prior_m(rng)
        n, k = CLI_SWEEP_POINTS, rng.randint(5, 25)  # step in thousandths
        lo = rng.randint(1, 998 - (n - 1) * k)
        p = dict(alpha=a, beta=b, m=m, delta_min=lo / 1000, step=k / 1000,
                 delta_max=(lo + (n - 1) * k) / 1000, points=n)
        argv = _sweep_argv(a, b, m, p["delta_min"], p["delta_max"], p["step"])
        return CliCall(command, argv, p, n)
    argv = [command]
    for key, value in p.items():
        argv += [f"--{key.replace('_', '-')}", repr(value) if isinstance(value, float) else str(value)]
    return CliCall(command, tuple(argv), p, 1 if command == "solve" else 0)


def build_cli_mix(sb, seed: int) -> list[CliCall]:
    rng = random.Random(f"cli_mix:{seed}")
    start = rng.randrange(len(CLI_COMMANDS))
    return [
        _cli_call(sb, rng, CLI_COMMANDS[(start + i) % len(CLI_COMMANDS)])
        for i in range(CLI_N_INPUTS)
    ]


def op_cli_mix(sb, x: CliCall, tracer=None):
    """One fresh process; with a tracer, the tracing shim and its span snapshot."""
    if tracer is None:
        code, out, wall, rss_kb = proc.spawn_with_rss([proc.PYTHON, "-m", "sandbag", *x.argv])
        return code, out, rss_kb, None
    shim = str(proc.HERE / "cli_child.py")
    code, out, err, wall = proc.spawn([proc.PYTHON, shim, *x.argv])
    marker = b"PERFBENCH_TRACE "
    line = next((ln for ln in err.splitlines() if ln.startswith(marker)), None)
    snap = json.loads(line[len(marker):]) if line is not None else None
    if snap is not None:
        snap["wall_s"] = wall
    return code, out, None, snap


def _cli_reference(sb, x: CliCall) -> dict:
    """The result object the CLI should print, built from library calls."""
    p = x.params
    if x.command == "solve":
        inst = sb.ProblemInstance(p["alpha"], p["beta"], p["m"], p["delta"])
        res = sb.classify(inst)
        labels = [_label(i) for i in res.members]
        return {
            "kind": res.kind.value,
            "members": [
                sb.format_strategy(sb.frontier_strategy(p["alpha"], p["beta"], inst.threshold, i))
                for i in res.members
            ],
            "indices": labels,
            "payoffs": {lab: res.payoffs[i] for lab, i in zip(labels, res.members)},
            "z_low": res.z_low,
            "z_high": res.z_high,
        }
    if x.command == "enumerate":
        c = sb.Threshold(p["c_num"], p["c_den"])
        entries = []
        for i in [*range(1, p["max_index"] + 1), math.inf]:
            h = sb.frontier_strategy(p["alpha"], p["beta"], c, i)
            entry = {
                "index": _label(i),
                "strategy": sb.format_strategy(h),
                "length": h.length,
                "prefix_successes": h.prefix.count(sb.Action.SUCCESS),
            }
            if h.cycle is not None:
                entry["cycle_length"] = len(h.cycle)
                entry["cycle_successes"] = h.cycle.count(sb.Action.SUCCESS)
            entries.append(entry)
        return {"strategies": entries}
    if x.command == "evaluate":
        h = sb.parse_strategy(p["strategy"])
        return {"strategy": sb.format_strategy(h), "delta": p["delta"], "payoff": sb.payoff(h, p["delta"])}
    if x.command == "oracle":
        c = sb.Threshold(p["c_num"], p["c_den"])
        value = sb.dp_value(p["alpha"], p["beta"], c, p["delta"], p["horizon"])
        return {"mode": "dp", "value": value, "horizon": p["horizon"]}
    if x.command == "thresholds":
        roots = [sb.breakeven_discount(n) for n in range(1, p["n_max"] + 1)]
        return {"roots": [{"n": r.n, "z": r.z, "residual": r.residual} for r in roots]}
    # simulate
    c = sb.Threshold(p["c_num"], p["c_den"])
    delta = p.get("delta")
    if "strategy" in p:
        h = sb.parse_strategy(p["strategy"])
        traj = sb.play_strategy(p["alpha"], p["beta"], c, h, delta, p["max_periods"])
        source: dict = {"strategy": p["strategy"]}
    else:
        cfg = sb.GuesserConfig(p["guesser_p"], p["seed"])
        traj = sb.play_guesser(p["alpha"], p["beta"], c, cfg, delta, p["max_periods"])
        source = {"guesser_p": p["guesser_p"], "seed": p["seed"]}
    records = [
        {
            "period": r.period,
            "action": r.action.value,
            "mean_num": r.posterior_mean.numerator,
            "mean_den": r.posterior_mean.denominator,
            "crossed": r.crossed,
        }
        for r in traj.records
    ]
    return {
        **source,
        "records": records,
        "terminated": traj.terminated,
        "termination_period": traj.termination_period,
        "discounted_payoff": traj.discounted_payoff,
    }


def cli_validators() -> dict:
    """JSON Schema validators for the envelope and each command's result.

    Imports jsonschema, so it is called only after the timed loop.
    """
    import jsonschema

    schemas = proc.ROOT / "docs" / "schemas"
    return {
        name: jsonschema.Draft202012Validator(
            json.loads((schemas / f"{name}.schema.json").read_text(encoding="utf-8"))
        )
        for name in ("envelope", *CLI_COMMANDS)
    }


def check_cli_mix(sb, x: CliCall, out, validators: dict) -> None:
    code, stdout, _, _ = out
    _require(code == 0, f"{' '.join(x.argv)} exited {code}")
    doc = json.loads(stdout)
    validators["envelope"].validate(doc)
    validators[x.command].validate(doc["result"])
    _require(doc["command"] == x.command, "envelope names another command")
    _require(doc["version"] == sb.__version__, "envelope version differs from the library")
    if x.command == "sweep":
        p = x.params
        sweep = Sweep(p["alpha"], p["beta"], p["m"], p["delta_min"], p["step"], x.points, x.argv)
        _check_sweep_rows(sb, sweep, doc["result"]["rows"])
        return
    expected = _cli_reference(sb, x)
    _require(doc["result"] == expected, f"{x.command} result differs from the library reference")


# --------------------------------------------------------------------------


class Workload(NamedTuple):
    build: Callable  # (sandbag module, seed) -> inputs
    op: Callable  # (sandbag module, input, tracer or None) -> output; the timed part
    check: Callable  # (sandbag module, input, output[, validators]) -> None, raises on error
    spawns: bool  # ops are child processes, checked after the timed loop


WORKLOADS = {
    "cli_mix": Workload(build_cli_mix, op_cli_mix, check_cli_mix, True),
    "large_prior": Workload(build_large_prior, op_large_prior, check_large_prior, False),
    "oracle_xcheck": Workload(build_oracle_xcheck, op_oracle_xcheck, check_oracle_xcheck, False),
    "delta_sweep": Workload(build_delta_sweep, op_delta_sweep, check_delta_sweep, False),
}
