"""Benchmark for the sandbag package: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

A run imports ``sandbag`` from ``src/`` of the checkout, builds the
workload's inputs from the seed, runs ops closed-loop (one client, one op
at a time) for the given seconds, checks every output, and prints as its
last stdout line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones (see BENCHMARK.json and
perfbench/README.md). The line before it holds provenance and sample
counts. ``--self-check`` runs every workload briefly in both modes and
prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import proc
import speed
import tracing
import workloads

SETUP_SAMPLES = 12  # setup_s is the median of this many set-ups in child processes, spread over the run
SPEED_SAMPLES = 20  # speed.sample() calls spread over an untraced run; their median scales its times
IMPORT_PROBES = 5  # import.* per-layer metrics are medians over this many child processes


def import_sandbag():
    sys.path.insert(0, str(proc.SRC))
    import sandbag

    if not os.path.abspath(sandbag.__file__).startswith(str(proc.SRC) + os.sep):
        raise ImportError(f"sandbag imported from {sandbag.__file__}, not from {proc.SRC}")
    return sandbag


def setup(name: str, seed: int):
    """Import sandbag and build the inputs; return (module, inputs, seconds)."""
    t0 = time.perf_counter()
    sb = import_sandbag()
    inputs = workloads.WORKLOADS[name].build(sb, seed)
    return sb, inputs, time.perf_counter() - t0


def setup_in_child(name: str, seed: int) -> float:
    argv = [proc.PYTHON, str(proc.HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
    code, out, err, _ = proc.spawn(argv)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {err.decode(errors='replace')}")
    return json.loads(out)["setup_s"]


class Loop:
    """What one timed loop saw: per-op seconds by op index, failures, outputs."""

    def __init__(self) -> None:
        self.seconds: dict[int, float] = {}  # op index -> seconds, ops that passed
        self.busy = 0.0  # seconds inside ops, passed or failed
        self.attempted = 0
        self.failed = 0
        self.points = 0
        self.peak_rss_kb = 0  # max over child processes
        self.deferred: list[tuple[int, object, object]] = []  # (index, input, output)
        self.errors: list[str] = []
        self.trace: dict = {}  # merged child span snapshots, plus summed child wall and cli.main seconds

    def fail(self, index: int, message: str) -> None:
        self.failed += 1
        self.seconds.pop(index, None)
        if len(self.errors) < 5:
            self.errors.append(f"op {index}: {message}")


def run_op(loop: Loop, wl, sb, i: int, x, tracer=None) -> None:
    """Time one op, then check it (in process) or keep its output (child process)."""
    loop.attempted += 1
    live = tracer is not None and not wl.spawns
    if live:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out, error = wl.op(sb, x, tracer), None
    except Exception as exc:  # any exception fails the op; the run goes on
        out, error = None, exc
    dt = time.perf_counter() - t0
    if live:
        tracer.uninstall()
    loop.busy += dt
    if error is not None:
        loop.fail(i, f"{type(error).__name__}: {error}")
        return
    loop.seconds[i] = dt
    loop.points += x.points
    if wl.spawns:
        _, _, rss_kb, snap = out
        loop.peak_rss_kb = max(loop.peak_rss_kb, rss_kb or 0)
        if snap is not None:
            tracing.merge(loop.trace, snap)
            for key in ("wall_s", "main_s"):
                loop.trace[key] = loop.trace.get(key, 0.0) + snap[key]
        loop.deferred.append((i, x, out))
        return
    try:
        wl.check(sb, x, out)
    except Exception as exc:
        loop.fail(i, f"{type(exc).__name__}: {exc}")
        loop.points -= x.points


def run_loop(wl, sb, inputs, seconds: float, tracer=None, probes=()) -> tuple[Loop, Loop]:
    """Run ops closed-loop for ``seconds``.

    With a tracer every input runs twice, untraced and traced, in an
    order that alternates from one input to the next, so the tracing
    overhead is measured op by op on the same inputs. ``probes`` holds
    (function, n) pairs: each function is called n times, spread evenly
    over the run and outside every op's clock, at most one call between
    two ops, so what it measures sees the machine's slow and fast phases
    alike; the calls left over when the time is up run after the loop.
    """
    plain, traced = Loop(), Loop()
    start = time.perf_counter()
    deadline = start + seconds
    due = sorted(
        ((start + (k + 0.5) * seconds / n, fn) for fn, n in probes for k in range(n)),
        key=lambda d: d[0],
    )
    i = 0
    while time.perf_counter() < deadline:
        if due and time.perf_counter() >= due[0][0]:
            due.pop(0)[1]()
        x = inputs[i % len(inputs)]
        if tracer is None:
            run_op(plain, wl, sb, i, x)
        elif i % 2 == 0:
            run_op(plain, wl, sb, i, x)
            run_op(traced, wl, sb, i, x, tracer)
        else:
            run_op(traced, wl, sb, i, x, tracer)
            run_op(plain, wl, sb, i, x)
        i += 1
    for _, fn in due:
        fn()
    return plain, traced


def check_deferred(wl, sb, loop: Loop) -> None:
    """Validate child-process outputs; runs after the timed loop (imports jsonschema)."""
    if not loop.deferred:
        return
    validators = workloads.cli_validators()
    for i, x, out in loop.deferred:
        try:
            wl.check(sb, x, out, validators)
        except Exception as exc:
            loop.fail(i, f"{type(exc).__name__}: {exc}")
            loop.points -= x.points
    loop.deferred.clear()


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0  # no op passed: the result line says so
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(loop: Loop, setup_samples: list[float], peak_rss_mb: float, f: float = 1.0) -> dict:
    """The end-to-end metrics, with times multiplied and rates divided by the speed factor ``f``."""
    lat = list(loop.seconds.values())
    busy = max(loop.busy, 1e-9) * f
    return {
        "ops_per_s": (len(lat) / busy, "1/s"),
        "latency_p50_ms": (1e3 * f * percentile(lat, 50), "ms"),
        "latency_p90_ms": (1e3 * f * percentile(lat, 90), "ms"),
        "sweep_points_per_s": (loop.points / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (f * statistics.median(setup_samples), "s"),
    }


# --------------------------------------------------------------------------
# traced run


def import_probes() -> dict:
    """Interpreter start, and sandbag / numpy import times from ``-X importtime``."""
    bare, pkg, numpy = [], [], []
    for _ in range(IMPORT_PROBES):
        bare.append(proc.spawn([proc.PYTHON, "-c", "pass"])[3])
        code, _, err, _ = proc.spawn([proc.PYTHON, "-X", "importtime", "-c", "import sandbag"])
        if code != 0:
            raise RuntimeError("import sandbag failed in a child process")
        cumulative = {}
        for line in err.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])  # microseconds
        pkg.append(cumulative.get("sandbag", 0) / 1e3)
        numpy.append(cumulative.get("numpy", 0) / 1e3)
    return {
        "import.interpreter_ms": (1e3 * statistics.median(bare), "ms"),
        "import.sandbag_ms": (statistics.median(pkg), "ms"),
        "import.numpy_ms": (statistics.median(numpy), "ms"),
    }


LAYERS = ("import", "cli", "payoff", "solver", "strategy", "oracle", "sim")


def per_layer(untraced: Loop, traced: Loop, snap: dict, inputs, probes: dict) -> tuple[dict, dict]:
    """Per-op layer metrics from the traced loop, plus a summary for the details line."""
    n = max(len(traced.seconds), 1)
    metrics = dict(probes)
    spans = snap.get("spans", {})
    for name in (*tracing.CLI_SPANS, *(f"{m}.{f}" for m, f in tracing.SPANNED)):
        calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count/op")
        metrics[f"{name}.total_ms"] = (1e3 * total / n, "ms/op")
        metrics[f"{name}.self_ms"] = (1e3 * self_s / n, "ms/op")
    counts = snap.get("counts", {})
    metrics["strategy.actions_materialized"] = (counts.get("strategy.actions_materialized", 0) / n, "count/op")
    metrics["sim.periods"] = (counts.get("sim.periods", 0) / n, "count/op")
    metrics["cli.output_bytes"] = (counts.get("cli.output_bytes", 0) / n, "bytes/op")
    metrics["belief.update.calls"] = (counts.get("belief.update", 0) / n, "count/op")
    metrics["belief.within_threshold.calls"] = (counts.get("belief.within_threshold", 0) / n, "count/op")

    by_command: dict[str, list[float]] = {c: [] for c in workloads.CLI_COMMANDS}
    for i, dt in untraced.seconds.items():
        x = inputs[i % len(inputs)]
        if isinstance(x, workloads.CliCall):
            by_command[x.command].append(dt)
    for command, walls in by_command.items():
        metrics[f"cli.{command}.wall_p50_ms"] = (1e3 * statistics.median(walls) if walls else 0.0, "ms")

    # layer self time: spans by module; in child processes, everything outside
    # cli.main (interpreter start, imports, exit) is the import layer
    layer = {name: 0.0 for name in LAYERS}
    for name, (_, _, self_s) in spans.items():
        layer[name.split(".")[0]] += self_s
    if "wall_s" in snap:
        layer["import"] = snap["wall_s"] - snap["main_s"]
    traced_busy = sum(traced.seconds.values())
    unspanned = traced_busy - sum(layer.values())
    for name, seconds in layer.items():
        metrics[f"{name}.self_ms"] = (1e3 * seconds / n, "ms/op")
    metrics["unspanned.self_ms"] = (1e3 * unspanned / n, "ms/op")

    paired = [i for i in traced.seconds if i in untraced.seconds]
    t_on = sum(traced.seconds[i] for i in paired)
    t_off = sum(untraced.seconds[i] for i in paired)
    metrics["trace.ops"] = (len(traced.seconds), "count")
    metrics["trace.overhead_ms_per_op"] = (1e3 * (t_on - t_off) / max(len(paired), 1), "ms/op")
    metrics["trace.overhead_pct"] = (100.0 * (t_on / t_off - 1.0) if t_off else 0.0, "%")

    ranked = sorted(layer.items(), key=lambda kv: -kv[1])
    top_fns = sorted(spans.items(), key=lambda kv: -kv[1][2])[:5]
    edges = sorted(snap.get("edges", {}).items(), key=lambda kv: -kv[1])[:10]
    summary = {
        "dominant_layer": ranked[0][0] if ranked[0][1] > 0 else None,
        "layer_share": {k: round(v / traced_busy, 4) for k, v in ranked if traced_busy},
        "top_self_functions": [[k, round(1e3 * v[2] / n, 4)] for k, v in top_fns],
        "top_edges_ms_per_op": [[p, c, round(1e3 * s / n, 4)] for (p, c), s in edges],
    }
    return metrics, summary


# --------------------------------------------------------------------------


def provenance(args, load_start) -> dict:
    import hashlib
    import importlib.metadata
    import platform
    import subprocess

    def version(pkg: str):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (proc.ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=proc.ROOT, capture_output=True, text=True, timeout=30
        )
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((proc.SRC / "sandbag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "jsonschema": version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    load_start = os.getloadavg()
    t_start = time.perf_counter()
    # compile .pyc files and warm the page cache, once per install for a real user
    proc.spawn([proc.PYTHON, "-c", "import sandbag"])
    details: dict = {}
    if not args.trace:
        sb, inputs, _ = setup(args.workload, args.seed)
        samples: list[float] = []
        speeds: list[float] = []
        loop, _ = run_loop(
            wl, sb, inputs, args.seconds,
            probes=[
                (lambda: samples.append(setup_in_child(args.workload, args.seed)), SETUP_SAMPLES),
                (lambda: speeds.append(speed.sample()), SPEED_SAMPLES),
            ],
        )
        if wl.spawns:
            peak_kb = loop.peak_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        check_deferred(wl, sb, loop)
        f = speed.factor(speeds)
        metrics = end_to_end(loop, samples, peak_kb / 1024, f)
        lat = list(loop.seconds.values())
        details["speed"] = {"reference_s": speed.REFERENCE_S, "samples_s": speeds, "factor": f}
        details["wall_metrics"] = {k: v for k, (v, _) in end_to_end(loop, samples, peak_kb / 1024).items()}
        details["setup_samples_s"] = samples
        details["samples"] = len(lat)
        p90 = details["wall_metrics"]["latency_p90_ms"] / 1e3
        details["samples_above_p90"] = sum(1 for v in lat if v > p90)
        loops = [loop]
    else:
        probes = import_probes()
        sb, inputs, _ = setup(args.workload, args.seed)
        tracer = tracing.Tracer()
        remaining = args.seconds - (time.perf_counter() - t_start)
        untraced, traced = run_loop(wl, sb, inputs, max(1.0, remaining), tracer)
        snap = traced.trace
        if not wl.spawns:
            tracing.merge(snap, tracer.snapshot())
        for loop in (untraced, traced):
            check_deferred(wl, sb, loop)
        metrics, details["trace_summary"] = per_layer(untraced, traced, snap, inputs, probes)
        loops = [untraced, traced]
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    details["error_rate"] = failed / attempted if attempted else 0.0
    details["errors"] = [e for lp in loops for e in lp.errors]
    details["provenance"] = provenance(args, load_start)
    print(json.dumps(details))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


# --------------------------------------------------------------------------


def self_check() -> int:
    """Run every workload briefly in both modes and check names and units against BENCHMARK.json."""
    spec = json.loads((proc.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [proc.PYTHON, str(proc.HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                    "--seconds", "1", "--trace", str(trace)]
            code, out, err, wall = proc.spawn(argv)
            lines = out.decode().strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{w['name']} trace={trace}: exit {code}: {err.decode()[-500:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                problems.append(f"{w['name']} trace={trace}: incorrect, {lines[-2][:500]}")
            got = result["metrics"]
            for m in spec[key]:
                entry = got.get(m["name"])
                if entry is None or entry["unit"] != m["unit"]:
                    problems.append(f"{w['name']} trace={trace}: {m['name']} missing or unit differs")
                    continue
                print(f"{w['name']:14} {trace} {m['name']:42} {entry['value']:>14.6g} {entry['unit']}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{w['name']} trace={trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{w['name']:14} {trace} ran {wall:.1f} s, attempted {result['attempted']}, failed {result['failed']}")
    for p in problems:
        print(f"SELF-CHECK FAIL {p}")
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run every workload briefly")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (proc.SRC / "sandbag" / "__init__.py").is_file():
        print(f"error: no sandbag sources under {proc.SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[2]}))
        return 0
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
