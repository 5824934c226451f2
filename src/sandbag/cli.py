"""Command line front end.

Every subcommand emits a JSON envelope {command, params, result,
version} by default, or flat CSV rows with --format csv. Results go to
stdout unless --out is given; an existing output file is refused
without --force. Exit codes: 0 success, 2 usage or validation error,
3 resource guard tripped (oracle horizon too deep, sweep grid too fine).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Sequence

from . import __version__
from .belief import Action, Threshold
from .oracle import LimitExceededError, dp_value, exhaustive_best, value_iteration
from .payoff import breakeven_discount, payoff
from .solver import OptimalKind, ProblemInstance, classify
from .sim import GuesserConfig, play_guesser, play_strategy
from .strategy import format_strategy, frontier_strategy, parse_strategy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LIMIT = 3
SWEEP_LIMIT = 100_000  # most delta points one sweep may classify


def _successes(runs) -> int:
    return sum(n for a, n in runs if a is Action.SUCCESS)


def index_label(index) -> str:
    return "hinf" if index == math.inf else f"h{index}"


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH", help="write to file instead of stdout")
    p.add_argument("--force", action="store_true", help="overwrite an existing --out file")


def _add_prior_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=int, required=True, help="prior success pseudo-count")
    p.add_argument("--beta", type=int, required=True, help="prior failure pseudo-count")


def _add_cutoff_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c-num", type=int, required=True, help="cutoff numerator")
    p.add_argument("--c-den", type=int, required=True, help="cutoff denominator")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="sandbag",
        description="Optimal failure scheduling against a Beta-Bernoulli monitor",
    )
    root.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="classify the optimal family member")
    _add_prior_args(p)
    p.add_argument("--m", type=int, required=True, help="cutoff is 1/(m+1)")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tie-tol", type=float, default=1e-9)
    _add_output_args(p)

    p = sub.add_parser("enumerate", help="list frontier family members")
    _add_prior_args(p)
    _add_cutoff_args(p)
    p.add_argument("--max-index", type=int, required=True)
    _add_output_args(p)

    p = sub.add_parser("evaluate", help="discounted payoff of a strategy string")
    p.add_argument("--strategy", required=True, help='e.g. "ssfss" or "ssfs(fs)*"')
    p.add_argument("--delta", type=float, required=True)
    _add_output_args(p)

    p = sub.add_parser("oracle", help="brute-force or DP value of the game")
    _add_prior_args(p)
    _add_cutoff_args(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=("exhaustive", "dp", "vi"), default="dp")
    p.add_argument("--horizon", type=int, help="required for exhaustive and dp modes")
    p.add_argument("--tol", type=float, default=1e-10, help="vi stopping tolerance")
    _add_output_args(p)

    p = sub.add_parser("thresholds", help="breakeven discount roots z(1)..z(n)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_output_args(p)

    p = sub.add_parser("simulate", help="play a schedule or an i.i.d. guesser forward")
    _add_prior_args(p)
    _add_cutoff_args(p)
    p.add_argument("--strategy", help="fixed schedule to play")
    p.add_argument("--guesser-p", type=float, help="i.i.d. success probability")
    p.add_argument("--seed", type=int, help="RNG seed (required with --guesser-p)")
    p.add_argument("--max-periods", type=int, required=True)
    p.add_argument("--delta", type=float, help="also report the discounted payoff")
    _add_output_args(p)

    p = sub.add_parser("sweep", help="classify across a grid of discount factors")
    _add_prior_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta-min", type=float, required=True)
    p.add_argument("--delta-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    _add_output_args(p)

    return root


def _cmd_solve(args) -> tuple[dict[str, Any], tuple[list[str], list[list[Any]]]]:
    inst = ProblemInstance(args.alpha, args.beta, args.m, args.delta)
    result = classify(inst, tie_tol=args.tie_tol)
    c = inst.threshold
    members = []
    indices = []
    payoffs = {}
    for i in result.members:
        label = index_label(i)
        members.append(format_strategy(frontier_strategy(args.alpha, args.beta, c, i)))
        indices.append(label)
        payoffs[label] = result.payoffs[i]
    payload = {
        "kind": result.kind.value,
        "members": members,
        "indices": indices,
        "payoffs": payoffs,
        "z_low": result.z_low,
        "z_high": result.z_high,
    }
    header = ["kind", "index", "strategy", "payoff", "z_low", "z_high"]
    rows = [
        [result.kind.value, idx, s, payoffs[idx], result.z_low, result.z_high]
        for idx, s in zip(indices, members)
    ]
    return payload, (header, rows)


def _cmd_enumerate(args) -> tuple[dict[str, Any], tuple[list[str], list[list[Any]]]]:
    if args.max_index < 1:
        raise ValueError("--max-index must be at least 1")
    c = Threshold(args.c_num, args.c_den)
    entries = []
    rows = []
    for i in [*range(1, args.max_index + 1), math.inf]:
        x = frontier_strategy(args.alpha, args.beta, c, i)
        text = format_strategy(x)
        successes = _successes(x.prefix_runs)
        entry: dict[str, Any] = {
            "index": index_label(i),
            "strategy": text,
            "length": x.length,
            "prefix_successes": successes,
        }
        cycle_length: Any = ""
        if x.cycle_runs is not None:
            cycle_length = sum(n for _, n in x.cycle_runs)
            entry["cycle_length"] = cycle_length
            entry["cycle_successes"] = _successes(x.cycle_runs)
        entries.append(entry)
        rows.append(
            [
                index_label(i),
                text,
                "" if x.length is None else x.length,
                successes,
                cycle_length,
            ]
        )
    header = ["index", "strategy", "length", "prefix_successes", "cycle_length"]
    return {"strategies": entries}, (header, rows)


def _cmd_evaluate(args) -> tuple[dict[str, Any], tuple[list[str], list[list[Any]]]]:
    x = parse_strategy(args.strategy)
    value = payoff(x, args.delta)
    payload = {"strategy": format_strategy(x), "delta": args.delta, "payoff": value}
    return payload, (["strategy", "delta", "payoff"], [[args.strategy, args.delta, value]])


def _cmd_oracle(args) -> tuple[dict[str, Any], tuple[list[str], list[list[Any]]]]:
    c = Threshold(args.c_num, args.c_den)
    payload: dict[str, Any] = {"mode": args.mode}
    if args.mode == "vi":
        value = value_iteration(args.alpha, args.beta, c, args.delta, tol=args.tol)
        payload.update(value=value, tol=args.tol)
        best = ""
        horizon: Any = ""
    else:
        if args.horizon is None:
            raise ValueError(f"--horizon is required for mode {args.mode}")
        horizon = args.horizon
        if args.mode == "exhaustive":
            res = exhaustive_best(args.alpha, args.beta, c, args.delta, args.horizon)
            value = res.value
            best = "".join(a.value for a in res.best_sequence)
            payload.update(value=value, horizon=horizon, best_sequence=best)
        else:
            value = dp_value(args.alpha, args.beta, c, args.delta, args.horizon)
            best = ""
            payload.update(value=value, horizon=horizon)
    header = ["mode", "horizon", "value", "best_sequence"]
    return payload, (header, [[args.mode, horizon, value, best]])


def _cmd_thresholds(args) -> tuple[dict[str, Any], tuple[list[str], list[list[Any]]]]:
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    roots = [breakeven_discount(n, tol=args.tol) for n in range(1, args.n_max + 1)]
    payload = {"roots": [{"n": r.n, "z": r.z, "residual": r.residual} for r in roots]}
    rows = [[r.n, r.z, r.residual] for r in roots]
    return payload, (["n", "z", "residual"], rows)


def _cmd_simulate(args) -> tuple[dict[str, Any], tuple[list[str], list[list[Any]]]]:
    c = Threshold(args.c_num, args.c_den)
    if (args.strategy is None) == (args.guesser_p is None):
        raise ValueError("exactly one of --strategy and --guesser-p is required")
    if args.strategy is not None:
        x = parse_strategy(args.strategy)
        traj = play_strategy(args.alpha, args.beta, c, x, args.delta, args.max_periods)
        source: dict[str, Any] = {"strategy": args.strategy}
    else:
        if args.seed is None:
            raise ValueError("--seed is required with --guesser-p")
        cfg = GuesserConfig(args.guesser_p, args.seed)
        traj = play_guesser(args.alpha, args.beta, c, cfg, args.delta, args.max_periods)
        source = {"guesser_p": args.guesser_p, "seed": args.seed}
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
    payload = {
        **source,
        "records": records,
        "terminated": traj.terminated,
        "termination_period": traj.termination_period,
        "discounted_payoff": traj.discounted_payoff,
    }
    header = ["period", "action", "mean_num", "mean_den", "crossed"]
    rows = [[r["period"], r["action"], r["mean_num"], r["mean_den"], r["crossed"]] for r in records]
    return payload, (header, rows)


def _cmd_sweep(args) -> tuple[dict[str, Any], tuple[list[str], list[list[Any]]]]:
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise ValueError("--step must be positive and finite")
    if not 0.0 < args.delta_min < args.delta_max < 1.0:
        raise ValueError("need 0 < --delta-min < --delta-max < 1")
    # a grid point passes the test below only if delta_min + i*step is at
    # most delta_max + 1.5e-12 (end tolerance plus rounding), so this bounds
    # the point count before any point is classified
    points = (args.delta_max - args.delta_min + 2e-12) / args.step + 1
    if points > SWEEP_LIMIT:
        raise LimitExceededError(
            f"sweep grid has about {points:.3g} points, limit is {SWEEP_LIMIT}"
        )
    rows_out = []
    for i in range(int(points)):
        # index-based grid avoids compounding float error across steps; the
        # round keeps grid points like 0.55 + 0.05 from printing as 0.600...01
        delta = round(args.delta_min + i * args.step, 12)
        if delta > args.delta_max + 1e-12:
            break
        d = min(delta, args.delta_max)
        inst = ProblemInstance(args.alpha, args.beta, args.m, d)
        res = classify(inst)
        if res.kind is OptimalKind.UNIQUE:
            regime = index_label(res.members[0])
        else:
            regime = "tie"
        best = max(res.payoffs.values())
        rows_out.append(
            {
                "delta": d,
                "regime": regime,
                "best_payoff": best,
                "z_low": res.z_low,
                "z_high": res.z_high,
            }
        )
    header = ["delta", "regime", "best_payoff", "z_low", "z_high"]
    rows = [[r["delta"], r["regime"], r["best_payoff"], r["z_low"], r["z_high"]] for r in rows_out]
    return {"rows": rows_out}, (header, rows)


_HANDLERS = {
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "evaluate": _cmd_evaluate,
    "oracle": _cmd_oracle,
    "thresholds": _cmd_thresholds,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}

_PARAM_SKIP = {"command", "format", "out", "force"}


def render(args, payload: dict[str, Any], csv_data: tuple[list[str], list[list[Any]]]) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header, rows = csv_data
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    params = {
        k: v for k, v in vars(args).items() if k not in _PARAM_SKIP and v is not None
    }
    envelope = {
        "command": args.command,
        "params": params,
        "result": payload,
        "version": __version__,
    }
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _write_output(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    import os

    if os.path.exists(args.out) and not args.force:
        raise ValueError(f"refusing to overwrite existing file {args.out} (use --force)")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, csv_data = _HANDLERS[args.command](args)
        _write_output(args, render(args, payload, csv_data))
    except LimitExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
