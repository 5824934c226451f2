"""Child processes of the benchmark: one at a time, always waited for."""

from __future__ import annotations

import atexit
import marshal
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable
CHILD_TIMEOUT_S = 60.0

# numpy's OpenBLAS starts one thread per CPU at import, and that thread spins
# for a while. On a 2-CPU host, set-up and CLI times then depend on whether
# the other CPU is free: 0.10 s when it is, 0.15 s when it is busy. sandbag
# never multiplies matrices large enough to use a second BLAS thread, so
# this process (it is imported before sandbag) and every child use one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)


def spawn(argv: list[str]) -> tuple[int, bytes, bytes, float]:
    """Run ``argv`` from the checkout root; return (exit code, stdout, stderr, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err, time.perf_counter() - t0


class _Launcher:
    """perfbench/launcher.py, running: it starts children whose peak RSS is their own."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [PYTHON, "-S", str(HERE / "launcher.py"), str(CHILD_TIMEOUT_S)],
            cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, argv: list[str]) -> tuple[int, bytes, float, int]:
        request = marshal.dumps(list(argv))
        self.proc.stdin.write(len(request).to_bytes(4, "little") + request)
        self.proc.stdin.flush()
        head = self.proc.stdout.read(4)
        if len(head) < 4:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return marshal.loads(self.proc.stdout.read(int.from_bytes(head, "little")))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


_launcher: _Launcher | None = None


def spawn_with_rss(argv: list[str]) -> tuple[int, bytes, float, int]:
    """Run ``argv`` with stderr discarded; return (exit code, stdout, wall seconds, max RSS in KiB).

    The child is started by the launcher process and reaped with
    ``os.wait4``, so the RSS is the child's own peak: a child forked from
    this process would count this process's pages too. The launcher
    starts on the first call and stops when this process exits.
    """
    global _launcher
    if _launcher is None:
        _launcher = _Launcher()
        atexit.register(_launcher.close)
    return _launcher.run(argv)
