"""Guards on the test run itself: a failing test is reported, and the
tests after it still run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    """Under this repo's pytest settings, a failing ``@given`` test prints its
    falsifying example and the run goes on. Hypothesis's failure report once
    raised a third-party DeprecationWarning, which ``filterwarnings = ["error"]``
    turned into an INTERNALERROR that ended the session there."""
    test_file = tmp_path / "test_planted.py"
    test_file.write_text(_PLANTED, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example" in out, out
