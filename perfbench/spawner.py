"""Launches the CLI children of a ``reproduce`` worker from a small process.

Linux keeps a process's peak resident memory across exec, so a child's
``ru_maxrss`` is at least the memory of the process that launched it.
The worker holds tanglekit, the catalog and the harness, more than the
CLI's own peak; launched from this process, which imports little, each
child reads its own peak instead.

Usage: ``python3 perfbench/spawner.py``.  Each line on stdin is a JSON
request: an argv list runs ``python -m``-style ``[sys.executable, *argv]``
in the current directory and answers ``{"code", "stdout", "stderr"}``
(outputs as latin-1 text, ``code`` null on a timeout); ``null`` answers
``{"peak_rss_mb"}``, the largest peak over the children so far.  Each
answer is one JSON line on stdout.  The process ends at end of input.
"""

import json
import resource
import subprocess
import sys

CHILD_TIMEOUT_S = 60


def answer(request):
    if request is None:
        return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    try:
        p = subprocess.run([sys.executable, *request], capture_output=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"code": None, "stdout": "", "stderr": "timed out"}
    return {"code": p.returncode, "stdout": p.stdout.decode("latin-1"),
            "stderr": p.stderr.decode("latin-1")}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(answer(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
