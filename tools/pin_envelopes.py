"""Pin the bytes of every CLI envelope in one file.

    python tools/pin_envelopes.py

Runs each ``_ENVELOPE_ARGVS`` argv of ``tests/test_cli.py`` through
``sandbag.cli.main`` in process, once with ``--format json`` and once with
``--format csv``, and rewrites ``tests/golden/envelopes.json``: one SHA-256
of the run's (exit code, stdout, stderr) per argv and format. Prints each
argv whose digest changed, or was added or dropped. A change that alters
CLI bytes on purpose runs this and lists the printed argvs.

Standard library only. The argvs are read from the test file with ``ast``,
so the test and this script share one list.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_FILE = ROOT / "tests" / "test_cli.py"
PIN_FILE = ROOT / "tests" / "golden" / "envelopes.json"
FORMATS = ("json", "csv")


def envelope_argvs() -> list[tuple[str, ...]]:
    """``_ENVELOPE_ARGVS`` as written in ``tests/test_cli.py``."""
    for node in ast.parse(TEST_FILE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_ENVELOPE_ARGVS":
            return [tuple(argv) for argv in ast.literal_eval(node.value)]
    raise LookupError(f"no _ENVELOPE_ARGVS in {TEST_FILE}")


def digest(argv: list[str]) -> str:
    """SHA-256 of ``[exit code, stdout, stderr]`` as JSON, from ``cli.main(argv)``."""
    from sandbag.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    blob = json.dumps([code, out.getvalue(), err.getvalue()], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pins() -> dict[str, str]:
    """The digest of every argv in every format, keyed by the space-joined argv."""
    return {
        " ".join(argv): digest(argv)
        for argv in ([*a, "--format", fmt] for a in envelope_argvs() for fmt in FORMATS)
    }


def main() -> int:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    old = json.loads(PIN_FILE.read_text(encoding="utf-8")) if PIN_FILE.exists() else {}
    new = pins()
    PIN_FILE.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
    changed = [argv for argv in {**old, **new} if old.get(argv) != new.get(argv)]
    for argv in changed:
        print(argv)
    print(f"{len(new)} envelopes pinned, {len(changed)} changed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
