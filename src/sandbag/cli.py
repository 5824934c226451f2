"""Command line front end.

Every subcommand emits a JSON envelope {command, params, result,
version} by default, or flat CSV rows with --format csv. One table,
``_COMMANDS``, names each subcommand once, with its help line, what
adds its arguments, its handler and its CSV columns. A handler returns
its payload and its table, in blocks of rows: each block is a row count
and its columns, where a list holds one value per row and any other
value is shared by every row. The CSV columns are keys of those blocks,
empty in a block that lacks one. The JSON text is
``json.dumps(envelope, indent=2, sort_keys=True)`` with the handler's
table given as ``[]`` and ``_table``'s rows spliced into its line, the
same bytes: the stdlib skips CPython's C encoder whenever ``indent`` is
set, and ``_table`` prints each list column in one C call. Results go
to stdout unless --out is given; an existing output file is refused
without --force.

``build_parser`` makes the root parser and the seven subcommand help
lines on every call, with no cache; a subcommand's parser is made, with
its own arguments, when it first parses, so a command line builds only
the root parser and the parser of the command it names. ``sweep`` builds
its delta grid as a sorted column and finds its end by bisection; it
finds each run of one ``solver.regime`` answer by bisection too, as each
answer holds on one interval of delta, and prices each run by one
``payoff.frontier_value`` call per member over the whole run.

Exit codes: 0 success, 2 usage or validation error or an --out path or
stdout that cannot be written, 3 input over a hard cap. ``belief.check_cap``
checks each cap after the input rules and before the work, and prints
"error: <name> must be at most <limit>"; the README lists every cap.
"""

from __future__ import annotations

import argparse
import bisect
import io
import itertools
import json
import math
import operator
import sys
from typing import Any, Sequence

from . import __version__
from .belief import LimitExceededError, Threshold, check_cap, check_delta, check_int, check_tol
from .belief import split_slack
from .payoff import ROOT_TOL, breakeven_discount, frontier_value, payoff
from .solver import TIE_TOL, OptimalKind, ProblemInstance, classify, regime, root_pair
from .strategy import format_strategy, frontier_strategy, parse_strategy
from .strategy import _infinite_parts, _opportunities

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LIMIT = 3
ROW_LIMIT = 100_000  # most rows one command may produce
WORD_LIMIT = 10**7  # most actions in one strategy word a command may print


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


def _solve_args(p: argparse.ArgumentParser) -> None:
    _add_prior_args(p)
    p.add_argument("--m", type=int, required=True, help="cutoff is 1/(m+1)")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tie-tol", type=float, default=TIE_TOL)


def _enumerate_args(p: argparse.ArgumentParser) -> None:
    _add_prior_args(p)
    _add_cutoff_args(p)
    p.add_argument("--max-index", type=int, required=True)


def _evaluate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", required=True, help='e.g. "ssfss" or "ssfs(fs)*"')
    p.add_argument("--delta", type=float, required=True)


def _oracle_args(p: argparse.ArgumentParser) -> None:
    _add_prior_args(p)
    _add_cutoff_args(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=("exhaustive", "dp", "vi"), default="dp")
    p.add_argument("--horizon", type=int, help="required for exhaustive and dp modes")
    # value_iteration's default, written out so that parsing loads no oracle
    p.add_argument("--tol", type=float, default=1e-10, help="vi stopping tolerance")


def _thresholds_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=ROOT_TOL)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    _add_prior_args(p)
    _add_cutoff_args(p)
    p.add_argument("--strategy", help="fixed schedule to play")
    p.add_argument("--guesser-p", type=float, help="i.i.d. success probability")
    p.add_argument("--seed", type=int, help="RNG seed (required with --guesser-p)")
    p.add_argument("--max-periods", type=int, required=True)
    p.add_argument("--delta", type=float, help="also report the discounted payoff")


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _add_prior_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta-min", type=float, required=True)
    p.add_argument("--delta-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)


class _LazyParser(argparse.ArgumentParser):
    """A subcommand's parser, which is made, with its own arguments and the
    output flags, when it first parses: a command line builds the parser of
    the one command it names. Until then it only holds its settings;
    ``add_parser`` (CPython 3.10 to 3.13) stores the new parser and touches
    nothing on it."""

    def __init__(self, *, build, **kwargs):
        self._build = build
        self._kwargs = kwargs

    # argparse's subparsers action hands a subcommand's arguments to this
    # public method (CPython 3.10 to 3.13); should a release parse through a
    # private helper instead, test_bare_command_names_every_required_flag fails
    def parse_known_args(self, args=None, namespace=None):
        if self._build is not None:
            super().__init__(**self._kwargs)
            self._build(self)
            _add_output_args(self)
            self._build = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """A fresh root parser and a subcommand parser made on first use."""
    root = argparse.ArgumentParser(
        prog="sandbag",
        description="Optimal failure scheduling against a Beta-Bernoulli monitor",
    )
    root.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = root.add_subparsers(dest="command", required=True, parser_class=_LazyParser)
    for name, (text, build, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=text, build=build)
    return root


# a table: blocks of (n, columns), n >= 1 rows each over non-empty str-keyed
# columns; a list column holds one value per row, and any other value (a
# str, int, float, bool or None) is shared by every row of its block
Table = list[tuple[int, dict[str, Any]]]


def _cmd_solve(args) -> tuple[dict[str, Any], Table]:
    inst = ProblemInstance(args.alpha, args.beta, args.m, args.delta)
    result = classify(inst, tie_tol=args.tie_tol)
    # the members are among h^1, h^2, h^3 and h^inf, each built from at most
    # three blocks of the walk at the cutoff 1/(m+1); only their text is long
    members = [frontier_strategy(args.alpha, args.beta, inst.threshold, i) for i in result.members]
    for x in members:
        runs = x.prefix_runs + (x.cycle_runs or ())
        check_cap(sum(n for _, n in runs), "strategy word length", WORD_LIMIT)
    words = list(map(format_strategy, members))
    indices = list(map(index_label, result.members))
    payoffs = [result.payoffs[i] for i in result.members]
    payload = {
        "kind": result.kind.value,
        "members": words,
        "indices": indices,
        "payoffs": dict(zip(indices, payoffs)),
        "z_low": result.z_low,
        "z_high": result.z_high,
    }
    columns = {"kind": result.kind.value, "index": indices, "strategy": words,
               "payoff": payoffs, "z_low": result.z_low, "z_high": result.z_high}
    return payload, [(len(words), columns)]


def _cmd_enumerate(args) -> tuple[dict[str, Any], Table]:
    check_int(args.max_index, "--max-index", 1)
    c = Threshold(args.c_num, args.c_den)
    walk = _opportunities(args.alpha, args.beta, c)
    blocks = []
    total = 0  # actions in the words of h^1..h^i and h^inf
    for pos, free, pad in walk:  # reading the first block checks the prior
        if not blocks:
            total = free + pad + 1 + c.den  # h^inf: its head and a cycle of den actions
        blocks.append((pos, free, pad))
        total += pos + free + 1  # h^i
        check_cap(total, "total actions in all words", WORD_LIMIT)
        if len(blocks) == args.max_index:
            break
    free, pad, counts = _infinite_parts(itertools.chain(blocks, walk), c)
    cycle = "".join(map(operator.mul, itertools.cycle("sf"), counts))
    h_inf = {"index": "hinf", "strategy": f"{'s' * free}{'f' * pad}s({cycle})*", "length": None,
             "prefix_successes": free + 1, "cycle_length": c.den, "cycle_successes": c.num}
    words = []
    word = ""  # the walk so far; h^i is word + "s"
    for _, free, pad in blocks:
        word += "s" * free
        words.append(word + "s")
        word += "f" * pad
    successes = itertools.accumulate(free for _, free, _ in blocks)
    finite = {"index": [f"h{i}" for i in range(1, len(blocks) + 1)], "strategy": words,
              "length": [pos + free + 1 for pos, free, _ in blocks],
              "prefix_successes": [s + 1 for s in successes]}
    table = [(len(blocks), finite), (1, h_inf)]
    return {"strategies": table}, table


def _cmd_evaluate(args) -> tuple[dict[str, Any], Table]:
    x = parse_strategy(args.strategy)
    value = payoff(x, args.delta)
    payload = {"strategy": format_strategy(x), "delta": args.delta, "payoff": value}
    return payload, [(1, payload)]


def _cmd_oracle(args) -> tuple[dict[str, Any], Table]:
    from . import oracle

    c = Threshold(args.c_num, args.c_den)
    check_tol(args.tol, "tol", positive=True)  # it is echoed in every mode's params
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
    return payload, [(1, payload)]


def _cmd_thresholds(args) -> tuple[dict[str, Any], Table]:
    check_int(args.n_max, "--n-max", 1)
    check_cap(args.n_max, "--n-max", ROW_LIMIT)
    roots = [breakeven_discount(n, tol=args.tol) for n in range(1, args.n_max + 1)]
    n, z, residual = map(list, zip(*roots))
    table = [(len(roots), {"n": n, "z": z, "residual": residual})]
    return {"roots": table}, table


def _cmd_simulate(args) -> tuple[dict[str, Any], Table]:
    from . import sim

    c = Threshold(args.c_num, args.c_den)
    if (args.strategy is None) == (args.guesser_p is None):
        raise ValueError("exactly one of --strategy and --guesser-p is required")
    check_cap(args.max_periods, "--max-periods", ROW_LIMIT)
    if args.strategy is not None:
        x = parse_strategy(args.strategy)
        if x.is_finite:  # a finite word plays to its own length
            check_cap(x.length, "--strategy word length", ROW_LIMIT)
        traj = sim.play_strategy(args.alpha, args.beta, c, x, args.delta, args.max_periods)
        source: dict[str, Any] = {"strategy": args.strategy}
    else:
        if args.seed is None:
            raise ValueError("--seed is required with --guesser-p")
        cfg = sim.GuesserConfig(args.guesser_p, args.seed)
        traj = sim.play_guesser(args.alpha, args.beta, c, cfg, args.delta, args.max_periods)
        source = {"guesser_p": args.guesser_p, "seed": args.seed}
    period, action, mean_num, mean_den, crossed = map(list, zip(*traj.records))
    columns = {"period": period, "action": [a.value for a in action], "mean_num": mean_num,
               "mean_den": mean_den, "crossed": crossed}
    table = [(len(period), columns)]
    payload = {
        **source,
        "records": table,
        "terminated": traj.terminated,
        "termination_period": traj.termination_period,
        "discounted_payoff": traj.discounted_payoff,
    }
    return payload, table


def _cmd_sweep(args) -> tuple[dict[str, Any], Table]:
    check_tol(args.step, "--step", positive=True)
    check_delta(args.delta_min, "--delta-min")
    check_delta(args.delta_max, "--delta-max")
    if not args.delta_min < args.delta_max:
        raise ValueError("need --delta-min < --delta-max")
    # a grid point is kept below only if delta_min + i*step is at most
    # delta_max + 1.5e-12 (end tolerance plus rounding), so this count
    # bounds the points before any point is classified; the min keeps
    # int() finite when a subnormal step sends the estimate to inf
    points = int(min((args.delta_max - args.delta_min + 2e-12) / args.step + 1, ROW_LIMIT + 1))
    check_cap(points, "sweep grid points", ROW_LIMIT)
    # one setup per grid: (q, k) and the roots hold for every point, and each
    # point lies in [0, delta_max], so within check_delta's range
    q, k = split_slack(args.alpha, args.beta, args.m)
    z_low, z_high = root_pair(args.m, k)
    # index-based grid avoids compounding float error across steps; the
    # round keeps grid points like 0.55 + 0.05 from printing as 0.600...01
    grid = [round(args.delta_min + i * args.step, 12) for i in range(points)]
    # round(delta_min + i*step, 12) never falls as i grows, so the grid is
    # sorted: it keeps the points up to delta_max + 1e-12, and those past
    # delta_max print as delta_max: the grid keeps its first end points
    end = bisect.bisect_right(grid, args.delta_max + 1e-12)
    inside = bisect.bisect_right(grid, args.delta_max, 0, end)
    grid[inside:] = itertools.repeat(args.delta_max, end - inside)
    # each run of points with one regime answer is priced in one column per
    # member; a tie keeps the best member at each point
    labels, best = [], []
    start = 0
    while start < end:
        kind, members = regime(grid[start], z_low, z_high, k, TIE_TOL)
        # each answer holds on one interval of delta, in the order h1, low tie,
        # h2, high tie, h^inf: d - z is monotone in d, so each inclusive band
        # abs(d - z) <= tol is an interval, and z_low <= z_high; so the run's
        # end is the first point with another answer, found by bisection
        stop = bisect.bisect_left(
            grid, True, start + 1,
            key=lambda d: regime(d, z_low, z_high, k, TIE_TOL)[1] != members,
        )
        run = grid[start:stop]
        label = index_label(members[0]) if kind is OptimalKind.UNIQUE else "tie"
        labels += itertools.repeat(label, stop - start)
        best += map(max, zip(*[frontier_value(q, k, args.m, j, run) for j in members]))
        start = stop
    columns = {"delta": grid, "regime": labels, "best_payoff": best, "z_low": z_low,
               "z_high": z_high}
    table = [(end, columns)]
    return {"rows": table}, table


# each subcommand: its help line, what adds its own arguments, its handler
# and the fields of its table rows that its CSV form prints, in this order
_COMMANDS = {
    "solve": ("classify the optimal family member", _solve_args, _cmd_solve,
              ("kind", "index", "strategy", "payoff", "z_low", "z_high")),
    "enumerate": ("list frontier family members", _enumerate_args, _cmd_enumerate,
                  ("index", "strategy", "length", "prefix_successes", "cycle_length")),
    "evaluate": ("discounted payoff of a strategy string", _evaluate_args, _cmd_evaluate,
                 ("strategy", "delta", "payoff")),
    "oracle": ("brute-force or DP value of the game", _oracle_args, _cmd_oracle,
               ("mode", "horizon", "value", "best_sequence")),
    "thresholds": ("breakeven discount roots z(1)..z(n)", _thresholds_args, _cmd_thresholds,
                   ("n", "z", "residual")),
    "simulate": ("play a schedule or an i.i.d. guesser forward", _simulate_args, _cmd_simulate,
                 ("period", "action", "mean_num", "mean_den", "crossed")),
    "sweep": ("classify across a grid of discount factors", _sweep_args, _cmd_sweep,
              ("delta", "regime", "best_payoff", "z_low", "z_high")),
}

# a view of the handlers alone, which main looks up as a module global on
# every call, so that a tracer can wrap each handler by replacing this dict
_HANDLERS = {name: handler for name, (_, _, handler, _) in _COMMANDS.items()}

_PARAM_SKIP = {"command", "format", "out", "force"}


_COLUMN = json.JSONEncoder(separators=("\n", ": "))  # an encoded scalar holds no raw newline


def _column(values: list) -> list[str]:
    """The JSON text of each value, from one C encoder call."""
    return _COLUMN.encode(values)[1:-1].split("\n")


def _table(table: Table, inner: str) -> list[str]:
    """The text of each row of a table. Each block fills one row template
    with its keys sorted: a shared value is encoded once, into the template,
    and a list column is one ``_column`` call, its texts joined into the
    template's slots row by row."""
    texts = []
    for n, columns in table:
        fields, varying = [], []
        for key in sorted(columns):
            value = columns[key]
            if isinstance(value, list):
                varying.append(_column(value))
                value = "\0"  # a slot: encoded keys and values hold no raw NUL
            else:
                value = json.dumps(value)
            fields.append(f"\n{inner}  {json.dumps(key)}: {value}")
        literals = ("{" + ",".join(fields) + f"\n{inner}}}").split("\0")
        parts = [itertools.repeat(literals[0], n)]
        for column, literal in zip(varying, literals[1:]):
            parts += [column, itertools.repeat(literal, n)]
        texts += map("".join, zip(*parts))
    return texts


def render(args, payload: dict[str, Any], table: Table) -> str:
    if args.format == "csv":
        import csv

        _, _, _, keys = _COMMANDS[args.command]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for n, columns in table:  # a shared value, or a missing key's None, fills each row
            cells = (columns.get(k) for k in keys)
            writer.writerows(zip(*(v if isinstance(v, list) else itertools.repeat(v, n)
                                   for v in cells)))
        return buf.getvalue()
    params = {
        k: v for k, v in vars(args).items() if k not in _PARAM_SKIP and v is not None
    }
    # json.dumps is given the table as [] and its rows are spliced into that
    # line, the first "<key>": [] at result's indent after result opens (a
    # raw newline comes only from the indent, so no string can mimic them)
    key = next((k for k, v in payload.items() if v is table), None)
    envelope = {
        "command": args.command,
        "params": params,
        "result": payload if key is None else {**payload, key: []},
        "version": __version__,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if key is not None:
        slot = f"\n    {json.dumps(key)}: []"
        at = text.index(slot, text.index('\n  "result": {')) + len(slot) - 1
        rows = ",\n      ".join(_table(table, "      "))
        text = f"{text[:at]}\n      {rows}\n    {text[at:]}"
    return text + "\n"


def _write_output(args, text: str) -> None:
    if args.out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise ValueError(f"cannot write stdout: {exc.strerror or exc}") from None
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
