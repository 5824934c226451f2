"""Guards on the package's footprint: a stdlib-only import, runnable demos, and
one module deciding whether a prior starts within the cutoff."""

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
