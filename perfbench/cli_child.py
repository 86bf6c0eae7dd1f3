"""Traced stand-in for ``python -m tanglekit.cli``, one cold process per op.

Usage: ``python3 perfbench/cli_child.py ARGS...`` with the same arguments
and environment as the CLI.  It times the import of ``tanglekit.cli``,
installs the tracer, calls ``tanglekit.cli.main``, and writes the span
totals as one JSON line to stderr after the CLI's own output.
"""

import json
import sys
import time
from pathlib import Path

import tracer

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    t0 = time.perf_counter()
    import tanglekit.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    where = Path(tanglekit.cli.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"tanglekit imported from {where}, not from {SRC}")
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        code = tanglekit.cli.main(sys.argv[1:])
    finally:
        uninstall()
    sys.stdout.flush()
    totals = tracer.summarize(spans.spans)
    totals["cli.import_ms"] = import_ms
    print(json.dumps(totals), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
