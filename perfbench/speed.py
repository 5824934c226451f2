"""The machine's speed, read from fixed work, to report times at a reference speed.

On a shared host the speed of a vCPU drifts as other guests come and go
on the same cores: every time a run measures moved by up to 1.5x
between 30-s runs a few minutes apart, all of them together (see
perfbench/README.md). ``sample()`` times a fixed piece of work that
uses only the standard library, in the benchmark's own process: a
pure-Python loop over floats, a dict and strings, then unmarshalling
and running the module code of three standard-library modules, as an
import does. None of it calls ``sandbag``, so a change to the program
leaves it alone. A run takes samples spread over its timed loop, and
``factor()`` turns their median into the ratio by which the run's times
are scaled to the reference speed.
"""

from __future__ import annotations

import gc
import importlib.util
import marshal
import math
import statistics
import time

# a fixed constant, close to the sample() time of a 2-vCPU Intel Xeon VM
# at 2.1 GHz under Python 3.11.7 in a fast stretch; it only sets the scale
# of the reported times, so it must stay the same from commit to commit
REFERENCE_S = 0.050

_MODULES = ("argparse", "enum", "difflib")
_EXECS = 8  # runs of each module's code per sample, in rounds of _ROUND
_ROUND = 4
_LOOP = 100_000

_code: list[bytes] = []  # marshalled module code, loaded by the first sample()


def _module_code() -> list[bytes]:
    """The modules' code, read from the installed .pyc files where they exist.

    Loaded on first use, so a process that imports this module but takes
    no sample (a set-up probe) imports nothing more.
    """
    if not _code:
        _code.extend(marshal.dumps(importlib.util.find_spec(m).loader.get_code(m)) for m in _MODULES)
        for code in _code:
            exec(marshal.loads(code), {"__name__": "speed_probe"})  # imports what the modules import, once
    return _code


def sample() -> float:
    """Seconds for one pass of the fixed work."""
    codes = _module_code()
    # no automatic collection inside the clock: a full one would cost time
    # in proportion to the heap of the program the benchmark has loaded
    gc.disable()
    t0 = time.perf_counter()
    acc, counts, words = 0.0, {}, []
    for i in range(_LOOP):
        k = i & 1023
        counts[k] = counts.get(k, 0) + i
        acc += math.sqrt(i + 1.0) * 0.5
        if i % 7 == 0:
            words.append(str(i))
    words.sort()
    seconds = time.perf_counter() - t0
    for _ in range(_EXECS // _ROUND):
        # untimed: the classes the module code made sit in reference cycles;
        # free them before they add to the run's peak RSS
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(_ROUND):
            for code in codes:
                exec(marshal.loads(code), {"__name__": "speed_probe"})
        seconds += time.perf_counter() - t0
    gc.enable()
    gc.collect()
    return seconds


def factor(samples: list[float]) -> float:
    """REFERENCE_S over the median sample: times are multiplied by it, rates divided."""
    return REFERENCE_S / statistics.median(samples)
