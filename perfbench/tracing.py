"""Span tracing for the traced benchmark run.

Each traced function of ``sandbag`` is replaced, in every module of the
package that binds it, by a wrapper that records one span per call.
Spans are aggregated in memory as they close: per name the call count,
the total time and the self time (total minus the time covered by child
spans), and per (parent, child) pair the time the child spent under that
parent. Nothing is written while the workload runs.

Two hot ``BeliefState`` methods are counted but not timed, and a few
counters (actions materialised, simulated periods, rendered bytes) are
read off return values at the same boundaries.
"""

from __future__ import annotations

import importlib
import time

# (module, function) pairs wrapped with a timed span; the span name is
# "<module>.<function>", which is also the per-layer metric prefix.
SPANNED = (
    ("payoff", "breakeven_discount"),
    ("payoff", "payoff"),
    ("payoff", "frontier_payoff"),
    ("solver", "classify"),
    ("solver", "verify_ordering"),
    ("strategy", "frontier_strategy"),
    ("strategy", "is_feasible"),
    ("strategy", "greedy_violations"),
    ("strategy", "parse_strategy"),
    ("strategy", "format_strategy"),
    ("oracle", "exhaustive_best"),
    ("oracle", "dp_value"),
    ("oracle", "value_iteration"),
    ("sim", "play_strategy"),
    ("sim", "play_guesser"),
)
CLI_SPANS = ("cli.parse", "cli.handler", "cli.render")
COUNTED_METHODS = (("belief", "BeliefState", "update"), ("belief", "BeliefState", "within_threshold"))
COUNTERS = ("strategy.actions_materialized", "sim.periods", "cli.output_bytes")
MODULES = ("belief", "strategy", "payoff", "solver", "oracle", "sim", "cli")


def _actions(strategy) -> int:
    return len(strategy.prefix) + (len(strategy.cycle) if strategy.cycle is not None else 0)


def _periods(trajectory) -> int:
    return len(trajectory.records)


def _bytes(text: str) -> int:
    return len(text.encode("utf-8"))


# counter fed from a traced function's return value
_RESULT_COUNTERS = {
    "strategy.frontier_strategy": ("strategy.actions_materialized", _actions),
    "strategy.parse_strategy": ("strategy.actions_materialized", _actions),
    "sim.play_strategy": ("sim.periods", _periods),
    "sim.play_guesser": ("sim.periods", _periods),
    "cli.render": ("cli.output_bytes", _bytes),
}


class Tracer:
    """In-memory span aggregator; see the module docstring."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], float] = {}  # (parent, child) -> seconds
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self._stack: list[list] = []  # open spans: [name, child_seconds]
        self._undo: list[tuple[object, str, object]] = []

    def record(self, name: str, fn, start: float | None = None):
        """Call ``fn()`` inside a span called ``name``.

        ``start`` lets a span begin before the call, for a phase made of
        two consecutive calls (building the parser, then parsing).
        """
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter() if start is None else start
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            stats[0] += 1
            stats[1] += dt
            stats[2] += dt - frame[1]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[1] += dt
            key = (parent[0] if parent is not None else "op", name)
            self.edges[key] = self.edges.get(key, 0.0) + dt

    def _wrap(self, name: str, fn):
        counter = _RESULT_COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            out = self.record(name, lambda: fn(*args, **kwargs))
            if counter is not None:
                counts[counter[0]] += counter[1](out)
            return out

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced names wherever the package binds them; ``uninstall`` undoes it."""
        mods = {name: importlib.import_module(f"sandbag.{name}") for name in MODULES}
        namespaces = [importlib.import_module("sandbag"), *mods.values()]
        for mod_name, fn_name in SPANNED:
            original = getattr(mods[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)
        for mod_name, cls_name, method in COUNTED_METHODS:
            cls = getattr(mods[mod_name], cls_name)
            self._patch(cls, method, self._counting(f"{mod_name}.{method}", getattr(cls, method)))
        self._install_cli(mods["cli"])

    def _counting(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _install_cli(self, cli) -> None:
        # cli.main looks these three up as module globals on every call
        build_parser = cli.build_parser
        tracer = self

        def traced_build_parser():
            start = time.perf_counter()
            parser = build_parser()
            parse_args = parser.parse_args

            def traced_parse_args(*args, **kwargs):
                return tracer.record("cli.parse", lambda: parse_args(*args, **kwargs), start)

            parser.parse_args = traced_parse_args
            return parser

        self._patch(cli, "build_parser", traced_build_parser)
        self._patch(cli, "render", self._wrap("cli.render", cli.render))
        handlers = {
            cmd: self._wrap("cli.handler", fn) for cmd, fn in cli._HANDLERS.items()
        }
        self._patch(cli, "_HANDLERS", handlers)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded, for merging across processes."""
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "edges": [[p, c, s] for (p, c), s in self.edges.items()],
            "counts": dict(self.counts),
        }


def merge(into: dict, snap: dict) -> None:
    """Add one snapshot's spans, edges and counts into an accumulator."""
    spans = into.setdefault("spans", {})
    for name, (calls, total, self_s) in snap["spans"].items():
        acc = spans.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    edges = into.setdefault("edges", {})
    for parent, child, seconds in snap["edges"]:
        edges[(parent, child)] = edges.get((parent, child), 0.0) + seconds
    counts = into.setdefault("counts", {})
    for name, n in snap["counts"].items():
        counts[name] = counts.get(name, 0) + n
