"""Start child processes for the benchmark from a small process, one at a time.

Usage: python3 -S perfbench/launcher.py TIMEOUT_S   (driven by proc.spawn_with_rss)

Linux counts the pages a child shares with its parent at fork in the
child's maximum RSS, and keeps that count across exec. A CLI child
started by the benchmark process would report at least the benchmark's
own RSS, with sandbag, numpy and the inputs loaded. Started from this
process, which imports nothing beyond the interpreter's built-in
modules, a child reports its own peak.

Each request on stdin is a 4-byte length and a marshalled argv list.
The launcher runs it with stdout to a pipe and stderr to /dev/null,
kills it after TIMEOUT_S seconds, reaps it with wait4, and answers on
stdout with a 4-byte length and a marshalled (exit code, stdout bytes,
wall seconds, max RSS in KiB). It exits at the end of its stdin.
"""

import marshal
import os
import select
import sys
import time

TIMEOUT_S = float(sys.argv[1])
requests, replies = sys.stdin.buffer, sys.stdout.buffer


def run(argv: list[str]) -> tuple[int, bytes, float, int]:
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, w, 1),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_CLOSE, r),
        (os.POSIX_SPAWN_CLOSE, w),
    ])
    os.close(w)
    chunks, deadline, killed = [], t0 + TIMEOUT_S, False
    while True:
        left = deadline - time.perf_counter()
        if left <= 0 and not killed:
            os.kill(pid, 9)
            killed = True
        if select.select([r], [], [], max(left, 1.0))[0]:
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    os.close(r)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), b"".join(chunks), wall, usage.ru_maxrss


while True:
    head = requests.read(4)
    if len(head) < 4:
        break
    reply = marshal.dumps(run(marshal.loads(requests.read(int.from_bytes(head, "little")))))
    replies.write(len(reply).to_bytes(4, "little") + reply)
    replies.flush()
