"""Guards on the package's footprint: a stdlib-only import, runnable demos,
one module deciding whether a prior starts within the cutoff, one walk for
the frontier family, one regime rule and one closed form for its members,
enumerate printing its words without a Strategy, one
slotted base for the checked value types, one Strategy constructor, and each
CLI command importing only the modules it runs."""

import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sandbag

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports sandbag from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_numpy():
    proc = run_python("-c", "import sys, sandbag; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(demo):
    proc = run_python(str(ROOT / "demos" / demo))
    assert proc.returncode == 0, proc.stderr


def test_only_belief_decides_the_prior():
    import sandbag.oracle

    modules = sorted((ROOT / "src" / "sandbag").glob("*.py"))
    deciders = [p.name for p in modules if "exceeds threshold" in p.read_text()]
    assert deciders == ["belief.py"]
    assert not hasattr(sandbag.oracle, "_start_slack")


def test_only_the_generator_walks_the_family():
    """The padding rule and the block division (slack by den - num) are
    called in one function, the frontier family's walk; the only other
    divmod is split_slack's division of the start slack by m."""
    padding, divisions = set(), set()
    for p in sorted((ROOT / "src" / "sandbag").glob("*.py")):
        for fn in ast.walk(ast.parse(p.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    call = ast.unparse(node.func)
                    if call.endswith(".padding"):
                        padding.add(fn.name)
                    elif call == "divmod":
                        divisions.add((fn.name, ast.unparse(node.args[1])))
    assert padding == {"_opportunities"}
    assert divisions == {("_opportunities", "short"), ("split_slack", "m")}


def test_one_regime_rule_and_one_closed_form():
    """The tie-band comparisons ``abs(delta - z) <= tie_tol`` sit in
    ``solver.regime`` alone and the frontier family's closed form (its
    (m + 1)-period geometric terms) in ``payoff.frontier_value`` alone;
    ``classify``, ``frontier_payoff`` and ``sweep`` call them."""
    bands, forms = set(), set()
    for p in sorted((ROOT / "src" / "sandbag").glob("*.py")):
        for fn in ast.walk(ast.parse(p.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Call)
                    and ast.unparse(node.left.func) == "abs"
                    and isinstance(node.left.args[0], ast.BinOp)
                ):
                    bands.add(fn.name)
                elif isinstance(node, ast.BinOp) and ast.unparse(node.left) == "m + 1":
                    forms.add(fn.name)
                elif p.name != "payoff.py" and ast.unparse(node) in {"_geometric", "math.expm1"}:
                    forms.add(fn.name)  # pricing outside payoff.py
    assert bands == {"regime"}
    assert forms == {"frontier_value"}
    calls = {
        fn.name: {ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}
        for p in ("solver.py", "payoff.py", "cli.py")
        for fn in ast.walk(ast.parse((ROOT / "src" / "sandbag" / p).read_text()))
        if isinstance(fn, ast.FunctionDef)
    }
    assert {"regime", "frontier_value"} <= calls["classify"] & calls["_cmd_sweep"]
    assert "frontier_value" in calls["frontier_payoff"]


def test_enumerate_starts_the_walk_once(monkeypatch):
    from sandbag import cli, strategy

    starts = []
    walk = strategy._opportunities

    def counted(*args):
        starts.append(args)
        return walk(*args)

    monkeypatch.setattr(strategy, "_opportunities", counted)
    monkeypatch.setattr(cli, "_opportunities", counted)
    argv = ["enumerate", *_PRIOR, "--max-index", "40"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert starts == [(1, 3, sandbag.Threshold(1, 2))]
    strategy.frontier_strategy(1, 3, sandbag.Threshold(1, 2), 40)
    strategy.frontier_strategy(1, 3, sandbag.Threshold(1, 2), math.inf)
    assert len(starts) == 3  # and one per member built alone


def test_solve_starts_the_walk_once_per_member(monkeypatch):
    """``solve`` builds each member once and counts its word from the runs;
    no second walk checks the length. The tie at z(m) with k = 1 has three
    members, h^2, h^3 and h^inf."""
    from sandbag import cli, strategy
    from sandbag.solver import root_pair

    starts = []
    walk = strategy._opportunities

    def counted(*args):
        starts.append(args)
        return walk(*args)

    monkeypatch.setattr(strategy, "_opportunities", counted)
    monkeypatch.setattr(cli, "_opportunities", counted)
    argv = ["solve", "--alpha", "1", "--beta", "5", "--m", "2", "--delta", repr(root_pair(2, 1)[1])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert json.loads(out.getvalue())["result"]["indices"] == ["h2", "h3", "hinf"]
    assert starts == [(1, 5, sandbag.Threshold(1, 3))] * 3


def test_enumerate_formats_its_words_itself():
    """``enumerate`` prints h^inf from the walk's head counts and the cycle's
    run lengths, with no Strategy in between, and runs are no longer sliced."""
    from sandbag import cli, strategy

    tree = ast.parse((ROOT / "src" / "sandbag" / "cli.py").read_text())
    (fn,) = [n for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef) and n.name == "_cmd_enumerate"]
    names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
    assert not names & {"Strategy", "frontier_strategy", "format_strategy"}
    assert hasattr(cli, "_infinite_parts") and not hasattr(strategy, "_slice")


def test_checked_types_share_the_belief_base():
    """Every class that checks its fields in ``__new__`` derives from
    ``belief.checked``, and no NamedTuple shell is subclassed to add a check."""
    classes = [
        node
        for p in sorted((ROOT / "src" / "sandbag").glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    bases = {node.name: [ast.unparse(b) for b in node.bases] for node in classes}
    checking = {
        node.name
        for node in classes
        if any(isinstance(f, ast.FunctionDef) and f.name == "__new__" for f in node.body)
    }
    assert checking == {"Threshold", "BeliefState", "ProblemInstance", "GuesserConfig", "Strategy"}
    for name in checking:
        assert len(bases[name]) == 1 and bases[name][0].startswith(f"checked('{name}', "), name
    shells = {name for name, b in bases.items() if b == ["NamedTuple"]}
    assert not [name for name, b in bases.items() if shells.intersection(b)]


def test_checked_types_are_slotted_values():
    """Each checked type sets ``__slots__ = ()``, so its fields are its only
    state and no instance has a ``__dict__`` to cache anything in."""
    from sandbag import Action, BeliefState, GuesserConfig, ProblemInstance, Strategy, Threshold

    samples = [
        Threshold(1, 2),
        BeliefState(1, 3),
        ProblemInstance(1, 3, 1, 0.5),
        GuesserConfig(0.5, 1),
        Strategy([(Action.SUCCESS, 2)], [(Action.FAILURE, 1), (Action.SUCCESS, 1)]),
    ]
    for x in samples:
        name = type(x).__name__
        assert vars(type(x)).get("__slots__") == (), name
        assert not hasattr(x, "__dict__"), name


def test_strategy_has_one_constructor():
    """``Strategy(prefix_runs, cycle_runs)`` is the only way to build a
    schedule: ``_make``, pickle and copy reach it through ``belief.checked``'s
    base, which alone defines ``_make``, and no class defines ``__reduce__``."""
    from sandbag import strategy

    overrides = {
        (node.name, f.name)
        for p in sorted((ROOT / "src" / "sandbag").glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ClassDef)
        for f in node.body
        if isinstance(f, ast.FunctionDef) and f.name in {"_make", "__reduce__"}
    }
    assert overrides == {("Checked", "_make")}
    assert not hasattr(strategy.Strategy, "from_runs") and not hasattr(strategy, "_grouped")


# one small argv per command; which of the watched modules each may load
_WATCHED = ("dataclasses", "inspect", "sandbag.oracle", "sandbag.sim", "fractions", "random", "csv")
_PRIOR = ["--alpha", "1", "--beta", "3", "--c-num", "1", "--c-den", "2"]
_FOOTPRINTS = {
    "solve": (["solve", "--alpha", "1", "--beta", "5", "--m", "2", "--delta", "0.7"], set()),
    "enumerate": (["enumerate", *_PRIOR, "--max-index", "2"], set()),
    "evaluate": (["evaluate", "--strategy", "ssfs(fs)*", "--delta", "0.7"], set()),
    "oracle": (["oracle", *_PRIOR, "--delta", "0.5", "--horizon", "6"], {"sandbag.oracle"}),
    "thresholds": (["thresholds", "--n-max", "3"], set()),
    "simulate": (
        ["simulate", *_PRIOR, "--guesser-p", "0.5", "--seed", "1", "--max-periods", "5"],
        {"sandbag.sim", "fractions", "random"},
    ),
    "sweep": (
        ["sweep", "--alpha", "1", "--beta", "5", "--m", "2", "--delta-min", "0.5",
         "--delta-max", "0.8", "--step", "0.1"],
        set(),
    ),
    "thresholds-csv": (["thresholds", "--n-max", "3", "--format", "csv"], {"csv"}),
}
_FOOTPRINT_SCRIPT = """
import contextlib, io, sys
from sandbag import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in {watched!r} if m in sys.modules))
"""


@pytest.mark.parametrize("case", _FOOTPRINTS)
def test_command_loads_only_what_it_runs(case):
    """Each command, run in a fresh interpreter, leaves the watched modules
    it does not use unloaded. ``-S`` keeps site hooks of the environment
    (``.pth`` files) out of the count."""
    argv, expected = _FOOTPRINTS[case]
    proc = run_python("-S", "-c", _FOOTPRINT_SCRIPT.format(watched=_WATCHED), *argv)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert set(loaded) == expected


def test_package_names_resolve_lazily():
    script = """
import sys, types, sandbag
print(sorted(m for m in ("sandbag.oracle", "sandbag.sim") if m in sys.modules))
print(all(getattr(sandbag, name) is not None for name in sandbag.__all__))
print(isinstance(sandbag.payoff, types.FunctionType))
try:
    sandbag.no_such_name
except AttributeError:
    print("AttributeError")
"""
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:4] == ["[]", "True", "True", "AttributeError"]
