"""Command line front end.

Every subcommand emits a JSON envelope {command, params, result,
version} by default, or flat CSV rows with --format csv. Each handler
returns its payload and its table, the list of row dicts it reports;
the CSV columns are fields of those rows, named in one map beside
``render``. The JSON text is the same bytes as
``json.dumps(envelope, indent=2, sort_keys=True)``: flat parts are
written by the C encoder, and a table's rows are filled from one
template per key set, its constant columns encoded once and each other
column in one C call. Results go to stdout unless --out is given; an
existing output file is refused without --force.

Exit codes: 0 success, 2 usage or validation error or an --out path
that cannot be written, 3 input over a hard cap, checked before the
work starts:
- more than ROW_LIMIT (100,000) rows: thresholds --n-max, simulate
  --max-periods or a finite simulate --strategy word, sweep grid points;
- a strategy word longer than WORD_LIMIT (10^7 actions) in solve, counted
  from the member's runs before its text is built;
- more than WORD_LIMIT actions in all of enumerate's words, h^1..h^N and
  h^inf, summed from the walk before any word is built; as h^i has at
  least i actions and h^inf's cycle den, this bounds rows and --c-den too;
- an oracle horizon above 25 (exhaustive) or 500 (dp), a tree search
  above 6,000,000 nodes, or value iteration above 5,000,000 estimated
  state updates.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import operator
import sys
from typing import Any, Sequence

from . import __version__
from .belief import LimitExceededError, Threshold, split_slack
from .payoff import breakeven_discount, frontier_value, payoff
from .solver import OptimalKind, ProblemInstance, classify, regime, root_pair
from .strategy import format_strategy, frontier_strategy, parse_strategy
from .strategy import _infinite_parts, _opportunities

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LIMIT = 3
ROW_LIMIT = 100_000  # most rows one command may produce
WORD_LIMIT = 10**7  # most actions in one strategy word a command may print


def _check_rows(what: str, rows: float) -> None:
    if rows > ROW_LIMIT:
        raise LimitExceededError(f"{what} would give {rows:.6g} rows, limit is {ROW_LIMIT}")


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
    # the members are among h^1, h^2, h^3 and h^inf, each built from at most
    # three blocks of the walk at the cutoff 1/(m+1); only their text is long
    members = [frontier_strategy(args.alpha, args.beta, inst.threshold, i) for i in result.members]
    for x in members:
        actions = sum(n for _, n in x.prefix_runs + (x.cycle_runs or ()))
        if actions > WORD_LIMIT:
            raise LimitExceededError(f"strategy word has {actions} actions, limit is {WORD_LIMIT}")
    rows = [
        {
            "kind": result.kind.value,
            "index": index_label(i),
            "strategy": format_strategy(x),
            "payoff": result.payoffs[i],
            "z_low": result.z_low,
            "z_high": result.z_high,
        }
        for i, x in zip(result.members, members)
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
    c = Threshold(args.c_num, args.c_den)
    walk = _opportunities(args.alpha, args.beta, c)
    blocks = []
    total = 0  # actions in the words of h^1..h^i and h^inf
    for pos, free, pad in walk:  # reading the first block checks the prior
        if not blocks:
            total = free + pad + 1 + c.den  # h^inf: its head and a cycle of den actions
        blocks.append((pos, free, pad))
        total += pos + free + 1  # h^i
        if total > WORD_LIMIT:
            raise LimitExceededError(f"h1..h{len(blocks)} and hinf have {total} actions, "
                                     f"limit is {WORD_LIMIT}")
        if len(blocks) == args.max_index:
            break
    free, pad, counts = _infinite_parts(itertools.chain(blocks, walk), c)
    cycle = "".join(map(operator.mul, itertools.cycle("sf"), counts))
    h_inf = {"index": "hinf", "strategy": f"{'s' * free}{'f' * pad}s({cycle})*", "length": None,
             "prefix_successes": free + 1, "cycle_length": c.den, "cycle_successes": c.num}
    entries: Table = []
    word = ""  # the walk so far; h^i is word + "s"
    successes = 0
    for i, (pos, free, pad) in enumerate(blocks, 1):
        word += "s" * free
        successes += free
        entries.append({"index": f"h{i}", "strategy": word + "s", "length": pos + free + 1,
                        "prefix_successes": successes + 1})
        word += "f" * pad
    entries.append(h_inf)
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
        if x.is_finite:  # a finite word plays to its own length
            _check_rows("--strategy", x.length)
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
    # one setup per grid: (q, k), the roots and the delta check hold for every
    # point, since each is at least round(delta_min, 12) and at most delta_max
    q, k = split_slack(args.alpha, args.beta, args.m)
    if round(args.delta_min, 12) <= 0.0:
        raise ValueError("--delta-min must stay positive when rounded to 12 decimals")
    z_low, z_high = root_pair(args.m, k)
    rows = []
    for i in range(int(points)):
        # index-based grid avoids compounding float error across steps; the
        # round keeps grid points like 0.55 + 0.05 from printing as 0.600...01
        delta = round(args.delta_min + i * args.step, 12)
        if delta > args.delta_max + 1e-12:
            break
        d = min(delta, args.delta_max)
        kind, members = regime(d, z_low, z_high, k, 1e-9)  # classify's default band
        rows.append(
            {
                "delta": d,
                "regime": index_label(members[0]) if kind is OptimalKind.UNIQUE else "tie",
                "best_payoff": max([frontier_value(q, k, args.m, j, d) for j in members]),
                "z_low": z_low,
                "z_high": z_high,
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


# exact types: a subclass value takes _dumps's nested path, which prints it alike
_SCALARS = {str, int, float, bool, type(None)}
_COLUMN = json.JSONEncoder(separators=("\n", ": "))  # an encoded scalar holds no raw newline


def _flat(values) -> bool:
    return set(map(type, values)) <= _SCALARS


def _column(values: list) -> list[str]:
    """The JSON text of each value, from one C encoder call."""
    return _COLUMN.encode(values)[1:-1].split("\n")


def _table(rows: Sequence, inner: str) -> list[str] | None:
    """The text of each row of a table, or None if ``rows`` is not one: a
    table is a list of non-empty dicts with str keys and scalar values.
    Each run of rows that share a key set fills one row template. A column
    holding one object in every row of its run is encoded once, into the
    template (by identity: ``-0.0 == 0.0`` and ``True == 1`` encode
    differently); any other column is one ``_column`` call, its texts
    joined into the template's slots row by row."""
    if set(map(type, rows)) != {dict} or not all(rows):
        return None
    texts = []
    for keys, run in itertools.groupby(rows, dict.keys):
        if set(map(type, keys)) != {str}:
            return None
        run = list(run)
        fields, varying = [], []
        for key in sorted(keys):
            column = list(map(operator.itemgetter(key), run))
            if not _flat(column):
                return None
            if all(map(operator.is_, column, itertools.repeat(column[0]))):
                value = json.dumps(column[0])
            else:
                value = "\0"  # a slot: encoded keys and values hold no raw NUL
                varying.append(_column(column))
            fields.append(f"\n{inner}  {json.dumps(key)}: {value}")
        literals = ("{" + ",".join(fields) + f"\n{inner}}}").split("\0")
        parts = [itertools.repeat(literals[0], len(run))]
        for column, literal in zip(varying, literals[1:]):
            parts += [column, itertools.repeat(literal, len(run))]
        texts += map("".join, zip(*parts))
    return texts


def _dumps(obj: Any, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with ``pad`` after each
    newline. CPython's C encoder runs only without ``indent``, so a flat
    container is encoded in one C call with the newline and indent in its
    item separator, and a table (a list of flat non-empty dicts with str
    keys) is filled row by row from templates by ``_table``. Every value is
    still printed by the C encoder."""
    inner = pad + "  "
    is_dict = isinstance(obj, dict)
    if not (obj and (is_dict or isinstance(obj, (list, tuple)))):
        return json.dumps(obj)  # a scalar or an empty container: one line
    if _flat(obj.values() if is_dict else obj):
        s = json.JSONEncoder(sort_keys=True, separators=(",\n" + inner, ": ")).encode(obj)
        return f"{s[0]}\n{inner}{s[1:-1]}\n{pad}{s[-1]}"
    if is_dict and not all(isinstance(k, str) for k in obj):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    if not is_dict and (rows := _table(obj, inner)) is not None:
        return f"[\n{inner}" + f",\n{inner}".join(rows) + f"\n{pad}]"
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
    try:  # mode "x" refuses an existing file in the same call that opens it
        with open(args.out, "w" if args.force else "x", encoding="utf-8") as fh:
            fh.write(text)
    except FileExistsError:
        raise ValueError(f"refusing to overwrite existing file {args.out} (use --force)") from None
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None


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
