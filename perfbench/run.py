"""tanglekit benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reproduce|closures|colorings|algebra \
        --seed N --seconds S --trace 0|1

The benchmark imports tanglekit from the checkout's ``src`` and nowhere
else, with ``TANGLEKIT_CROSSING_BUDGET`` removed from the environment.
Inputs come from ``inputs.py`` and depend on the seed only.

``--trace 0`` measures the end-to-end metrics.  Set-up is sampled in
fresh worker processes, each timed from launch until it is ready for the
first op: at least SETUPS_MIN times, and more, up to SETUPS_MAX, while
the samples sum to less than SETUP_BUDGET_S.  The last worker then runs
the timed loop.
``--trace 1`` runs one worker and reports the per-layer metrics.  Times
are scaled to reference speed (see reference.py); the benchmark and every
process it starts run on one CPU, so that the reference and the work
share a core.

The output is one line of run information (commit, Python, CPUs, seed,
input digest, set-up samples), then, as the last line, the result:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
The exit code is 0 when a result is printed, and 2 when the checkout has
no tanglekit sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from worker import ROOT, SRC, metric_units, slowness

HERE = Path(__file__).resolve().parent
SETUPS_MIN = 5
SETUPS_MAX = 15
SETUP_BUDGET_S = 3.0
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def start_worker(cmd, env, command: str, deadline: float) -> tuple[float, bytes]:
    """Launch a worker, send it ``command`` once it is set up, and return
    its set-up time (scaled to reference speed) and its output."""
    slow = slowness(cold=True)
    launched = time.perf_counter()
    p = subprocess.Popen([*cmd, repr(launched), repr(slow)], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, cwd=ROOT, env=env, bufsize=0)
    try:
        ready, _, _ = select.select([p.stdout], [], [], deadline - time.monotonic())
        line = p.stdout.readline().split() if ready else []
        if line[:1] != [b"ready"]:
            raise WorkerError("worker did not finish set-up")
        setup_s = float(line[1])
        out, _ = p.communicate(command.encode() + b"\n",
                               timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the deadline") from None
    finally:
        if p.poll() is None:
            p.kill()
        p.wait()
    if p.returncode != 0:
        raise WorkerError(f"worker exited with code {p.returncode}")
    return setup_s, out


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    try:
        return (git / ref[5:]).read_text().strip()
    except OSError:
        return ref[5:]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tanglekit" / "__init__.py").is_file():
        print(f"error: no tanglekit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = {k: v for k, v in os.environ.items() if k != "TANGLEKIT_CROSSING_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    try:
        # the first set-up compiles bytecode; it is not a sample
        start_worker(cmd, env, "exit", deadline)
        samples = []
        while not args.trace and (len(samples) < SETUPS_MIN - 1 or (
                sum(samples) < SETUP_BUDGET_S and len(samples) < SETUPS_MAX - 1)):
            samples.append(start_worker(cmd, env, "exit", deadline)[0])
        setup_s, out = start_worker(cmd, env, "run", deadline)
    except WorkerError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    samples.append(setup_s)
    result = json.loads(out.decode().splitlines()[-1])
    metrics = dict(result["metrics"])
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if not args.trace:
        metrics["setup_s"] = statistics.median(samples)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "input_digest": inputs.digest(inputs.make_inputs(args.workload, args.seed)),
        "setup_samples_s": samples,
        "raw_ops_per_s": result.get("raw_ops_per_s"),
        "slowness": result["slowness"],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
