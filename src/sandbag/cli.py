"""Command line front end.

Every subcommand emits a JSON envelope {command, params, result,
version} by default, or flat CSV rows with --format csv. Each handler
returns its payload and its table, the list of row dicts it reports;
the CSV columns are fields of those rows, named in one map beside
``render``. The JSON text is the same bytes as
``json.dumps(envelope, indent=2, sort_keys=True)``, with flat parts
written by the C encoder. Results go to stdout unless --out is given;
an existing output file is refused without --force.

Exit codes: 0 success, 2 usage or validation error, 3 input over a
hard cap, checked before the work starts:
- more than ROW_LIMIT (100,000) rows: enumerate --max-index + 1,
  thresholds --n-max, simulate --max-periods, sweep grid points;
- a strategy word longer than WORD_LIMIT (10^7 actions) in solve or
  enumerate;
- an oracle horizon above 25 (exhaustive) or 500 (dp), a tree search
  above 6,000,000 nodes, or value iteration above 5,000,000 estimated
  state updates.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Any, Sequence

from . import __version__
from .belief import Action, LimitExceededError, Threshold
from .payoff import breakeven_discount, payoff
from .solver import OptimalKind, ProblemInstance, classify
from .strategy import Strategy, format_strategy, frontier_strategy, parse_strategy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LIMIT = 3
ROW_LIMIT = 100_000  # most rows one command may produce
WORD_LIMIT = 10**7  # most actions in one strategy word a command may print


def _successes(runs) -> int:
    return sum(n for a, n in runs if a is Action.SUCCESS)


def _check_rows(what: str, rows: float) -> None:
    if rows > ROW_LIMIT:
        raise LimitExceededError(f"{what} would give {rows:.6g} rows, limit is {ROW_LIMIT}")


def _format_capped(x: Strategy) -> str:
    actions = sum(n for _, n in x.prefix_runs) + sum(n for _, n in x.cycle_runs or ())
    if actions > WORD_LIMIT:
        raise LimitExceededError(f"strategy word has {actions} actions, limit is {WORD_LIMIT}")
    return format_strategy(x)


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


Table = list[dict[str, Any]]


def _cmd_solve(args) -> tuple[dict[str, Any], Table]:
    inst = ProblemInstance(args.alpha, args.beta, args.m, args.delta)
    result = classify(inst, tie_tol=args.tie_tol)
    c = inst.threshold
    rows = [
        {
            "kind": result.kind.value,
            "index": index_label(i),
            "strategy": _format_capped(frontier_strategy(args.alpha, args.beta, c, i)),
            "payoff": result.payoffs[i],
            "z_low": result.z_low,
            "z_high": result.z_high,
        }
        for i in result.members
    ]
    payload = {
        "kind": result.kind.value,
        "members": [r["strategy"] for r in rows],
        "indices": [r["index"] for r in rows],
        "payoffs": {r["index"]: r["payoff"] for r in rows},
        "z_low": result.z_low,
        "z_high": result.z_high,
    }
    return payload, rows


def _cmd_enumerate(args) -> tuple[dict[str, Any], Table]:
    if args.max_index < 1:
        raise ValueError("--max-index must be at least 1")
    _check_rows("--max-index", args.max_index + 1)
    c = Threshold(args.c_num, args.c_den)
    entries = []
    for i in [*range(1, args.max_index + 1), math.inf]:
        x = frontier_strategy(args.alpha, args.beta, c, i)
        entry: dict[str, Any] = {
            "index": index_label(i),
            "strategy": _format_capped(x),
            "length": x.length,
            "prefix_successes": _successes(x.prefix_runs),
        }
        if x.cycle_runs is not None:
            entry["cycle_length"] = sum(n for _, n in x.cycle_runs)
            entry["cycle_successes"] = _successes(x.cycle_runs)
        entries.append(entry)
    return {"strategies": entries}, entries


def _cmd_evaluate(args) -> tuple[dict[str, Any], Table]:
    x = parse_strategy(args.strategy)
    value = payoff(x, args.delta)
    payload = {"strategy": format_strategy(x), "delta": args.delta, "payoff": value}
    return payload, [payload]


def _cmd_oracle(args) -> tuple[dict[str, Any], Table]:
    from . import oracle

    c = Threshold(args.c_num, args.c_den)
    payload: dict[str, Any] = {"mode": args.mode}
    if args.mode == "vi":
        value = oracle.value_iteration(args.alpha, args.beta, c, args.delta, tol=args.tol)
        payload.update(value=value, tol=args.tol)
    elif args.horizon is None:
        raise ValueError(f"--horizon is required for mode {args.mode}")
    elif args.mode == "exhaustive":
        res = oracle.exhaustive_best(args.alpha, args.beta, c, args.delta, args.horizon)
        best = "".join(a.value for a in res.best_sequence)
        payload.update(value=res.value, horizon=args.horizon, best_sequence=best)
    else:
        value = oracle.dp_value(args.alpha, args.beta, c, args.delta, args.horizon)
        payload.update(value=value, horizon=args.horizon)
    return payload, [payload]


def _cmd_thresholds(args) -> tuple[dict[str, Any], Table]:
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    _check_rows("--n-max", args.n_max)
    roots = [breakeven_discount(n, tol=args.tol) for n in range(1, args.n_max + 1)]
    rows = [{"n": r.n, "z": r.z, "residual": r.residual} for r in roots]
    return {"roots": rows}, rows


def _cmd_simulate(args) -> tuple[dict[str, Any], Table]:
    from . import sim

    c = Threshold(args.c_num, args.c_den)
    if (args.strategy is None) == (args.guesser_p is None):
        raise ValueError("exactly one of --strategy and --guesser-p is required")
    _check_rows("--max-periods", args.max_periods)
    if args.strategy is not None:
        x = parse_strategy(args.strategy)
        traj = sim.play_strategy(args.alpha, args.beta, c, x, args.delta, args.max_periods)
        source: dict[str, Any] = {"strategy": args.strategy}
    else:
        if args.seed is None:
            raise ValueError("--seed is required with --guesser-p")
        cfg = sim.GuesserConfig(args.guesser_p, args.seed)
        traj = sim.play_guesser(args.alpha, args.beta, c, cfg, args.delta, args.max_periods)
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
    return payload, records


def _cmd_sweep(args) -> tuple[dict[str, Any], Table]:
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise ValueError("--step must be positive and finite")
    if not 0.0 < args.delta_min < args.delta_max < 1.0:
        raise ValueError("need 0 < --delta-min < --delta-max < 1")
    # a grid point passes the test below only if delta_min + i*step is at
    # most delta_max + 1.5e-12 (end tolerance plus rounding), so this bounds
    # the point count before any point is classified
    points = (args.delta_max - args.delta_min + 2e-12) / args.step + 1
    _check_rows("the sweep grid", points)
    rows = []
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
        rows.append(
            {
                "delta": d,
                "regime": regime,
                "best_payoff": best,
                "z_low": res.z_low,
                "z_high": res.z_high,
            }
        )
    return {"rows": rows}, rows


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


# the CSV form of each command: these fields of its table rows, in this order
_CSV_COLUMNS = {
    "solve": ("kind", "index", "strategy", "payoff", "z_low", "z_high"),
    "enumerate": ("index", "strategy", "length", "prefix_successes", "cycle_length"),
    "evaluate": ("strategy", "delta", "payoff"),
    "oracle": ("mode", "horizon", "value", "best_sequence"),
    "thresholds": ("n", "z", "residual"),
    "simulate": ("period", "action", "mean_num", "mean_den", "crossed"),
    "sweep": ("delta", "regime", "best_payoff", "z_low", "z_high"),
}


_SCALARS = (str, int, float, type(None))  # bool is an int


def _flat(values) -> bool:
    return all(isinstance(v, _SCALARS) for v in values)


def _dumps(obj: Any, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with ``pad`` after each
    newline. CPython's C encoder runs only without ``indent``, so a flat
    container, or a list of flat non-empty dicts (a table), is encoded in
    one C call with the newline and indent in its item separator."""
    inner = pad + "  "
    is_dict = isinstance(obj, dict)
    if not (obj and (is_dict or isinstance(obj, (list, tuple)))):
        return json.dumps(obj)  # a scalar or an empty container: one line
    if _flat(obj.values() if is_dict else obj):
        s = json.JSONEncoder(sort_keys=True, separators=(",\n" + inner, ": ")).encode(obj)
        return f"{s[0]}\n{inner}{s[1:-1]}\n{pad}{s[-1]}"
    if is_dict and not all(isinstance(k, str) for k in obj):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    if not is_dict and all(isinstance(r, dict) and r and _flat(r.values()) for r in obj):
        # "},\n" + row + "{" can only be a row boundary: an encoded string
        # holds no raw newline, and a flat row holds no nested "}"
        row = inner + "  "
        s = json.JSONEncoder(sort_keys=True, separators=(",\n" + row, ": ")).encode(obj)
        s = s[2:-2].replace(f"}},\n{row}{{", f"\n{inner}}},\n{inner}{{\n{row}")
        return f"[\n{inner}{{\n{row}{s}\n{inner}}}\n{pad}]"
    if is_dict:
        parts = [f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in sorted(obj.items())]
    else:
        parts = [_dumps(v, inner) for v in obj]
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{closing}"


def render(args, payload: dict[str, Any], table: Table) -> str:
    if args.format == "csv":
        import csv

        columns = _CSV_COLUMNS[args.command]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(k) for k in columns] for row in table)
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
    return _dumps(envelope) + "\n"


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
        payload, table = _HANDLERS[args.command](args)
        _write_output(args, render(args, payload, table))
    except LimitExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
