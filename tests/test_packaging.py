"""Guards on the package's footprint: a stdlib-only import, runnable demos,
one module deciding whether a prior starts within the cutoff, and each CLI
command importing only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    uses = [p.name for p in modules if "decompose(" in p.read_text().replace("def decompose(", "")]
    assert uses == []
    assert not hasattr(sandbag.oracle, "_start_slack")


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
