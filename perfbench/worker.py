"""One benchmark process: set a workload up, then run its timed loop.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE LAUNCHED
SLOWNESS``, with tanglekit importable from the repository's ``src`` only
(run.py sets the environment).  LAUNCHED is the ``time.perf_counter``
reading just before the launch and SLOWNESS the slowness for cold work
measured just before it (see reference.py).
After set-up the worker prints ``ready`` and its set-up time, and reads
one line from stdin: ``exit`` ends it (a set-up sample), ``run`` runs the
timed loop and prints one JSON line of results.  Outputs are checked
between slices of the loop, outside the timed ops, and then dropped with
their inputs, so that the harness holds no more than a slice of them in
memory.  No input is used twice: when the built inputs run out, more are
built from the seeded stream between slices.

Every workload is a closed loop with one client: the next op starts when
the previous one has finished.  With TRACE 1 the worker first runs ops
untraced for half the time, then the same number of following ops with
spans on, and reports per-layer figures per traced op.

Times are scaled to reference speed (see reference.py).  The loop
measures the reference's slowness every SLICE_S seconds and divides
each op's wall time by the mean slowness at the two ends of its slice.
In-process ops use the in-process slowness; ``reproduce`` ops, which
are cold processes, use the slowness for cold work.  Set-up is scaled in
laps: the launch, up to the worker's first lap, by the slowness for cold
work measured before it, and the rest by the in-process slowness, in
laps of about SLICE_S.

Ops import tanglekit names when they run, not at set-up, so that a
traced run sees the functions the tracer installed.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import reference
import tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
SLICE_S = 0.1
REFILL_MIN = 16

# the paper's tables: closures of the unknottable and unlinkable entries
UNKNOTTABLE = {"5_1": "-1", "6_1": "-1", "7_2": "-1", "7_14": "-1", "7_5": "0", "7_7": "0"}
UNLINKABLE = {"6_3": "0"}


def metric_units(group: str) -> dict[str, str]:
    """Metric name -> unit of the "end_to_end" or "per_layer" metrics,
    as BENCHMARK.json names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def reference_s(samples: int = 3) -> float:
    """Median wall time of the in-process reference."""
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        reference.reference()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def slowness(cold: bool = False) -> float:
    """The in-process reference's time now over its time at reference
    speed; with ``cold``, the geometric mean of that and the same ratio
    for a cold reference process (see reference.py)."""
    warm = reference_s() / reference.REFERENCE_S
    if not cold:
        return warm
    t = time.perf_counter()
    subprocess.run([sys.executable, reference.__file__], check=True,
                   timeout=CHILD_TIMEOUT_S)
    return math.sqrt(warm * (time.perf_counter() - t) / reference.COLD_REFERENCE_S)


class ScaledClock:
    """Wall time scaled to reference speed, summed over laps.

    The first lap, from the launch, is scaled by the slowness for cold
    work measured before the launch.  Each later lap ends with an in-process
    sample and is scaled by the mean of the samples at its two ends.
    Sampling time is not counted.
    """

    def __init__(self, launched: float, launch_slowness: float):
        self.total_s = 0.0
        self._last = launched
        self._launch_slowness = launch_slowness
        self._slowness: float | None = None

    def lap(self):
        now = time.perf_counter()
        slow = slowness()
        if self._slowness is None:
            self.total_s += (now - self._last) / self._launch_slowness
        else:
            self.total_s += (now - self._last) * 2 / (self._slowness + slow)
        self._slowness = slow
        self._last = time.perf_counter()

    def tick(self):
        """Lap if SLICE_S has passed since the last one."""
        if time.perf_counter() - self._last >= SLICE_S:
            self.lap()


def pinned_import():
    """Import tanglekit and insist that it comes from this checkout's src."""
    import tanglekit

    where = Path(tanglekit.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"tanglekit imported from {where}, not from {SRC}")
    from tanglekit.catalog import load_catalog

    return load_catalog()


class Workload:
    """The inputs of one run, each used once.

    Set-up builds the stream's first batch; ``refill`` builds further
    inputs from the stream between slices of the timed loop.  An item is
    (index in the stream, input, what ``build`` made of it); items are
    dropped once checked, so memory does not grow with the op count.
    """

    name = ""
    answers = 1
    cold = False  # ops start processes: scale by the slowness for cold work

    def __init__(self, seed: int, clock: ScaledClock, first: int | None = None):
        self.stream = enumerate(inputs.input_stream(self.name, seed))
        self.pending: collections.deque = collections.deque()
        self.refill(inputs.first_batch(self.name) if first is None else first, clock)

    def refill(self, count: int, clock: ScaledClock | None = None):
        for i, x in itertools.islice(self.stream, count):
            self.pending.append((i, x, self.build(x)))
            if clock is not None:
                clock.tick()

    def build(self, x):
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Reproduce(Workload):
    """Each op is one cold ``python -m tanglekit.cli --format json reproduce``."""

    name = "reproduce"
    answers = 23 * 3
    cold = True

    def __init__(self, seed: int, clock: ScaledClock, first: int | None = None):
        import tanglekit.cli  # noqa: F401  (set-up pays the CLI import)

        pinned_import()
        super().__init__(seed, clock, first)
        self.child_totals: list[dict] | None = None
        self.first_stdout: str | None = None
        self.spawner: subprocess.Popen | None = None

    def __enter__(self):
        """Start the process that launches the CLI children (spawner.py)."""
        self.spawner = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "spawner.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=CHILD_TIMEOUT_S + 5)
        finally:
            if self.spawner.poll() is None:
                self.spawner.kill()
                self.spawner.wait()
        return False

    def ask(self, request) -> dict:
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def op(self, item):
        _, argv, _ = item
        if self.child_totals is None:
            cmd = ["-m", "tanglekit.cli", *argv]
        else:
            cmd = [str(ROOT / "perfbench" / "cli_child.py"), *argv]
        p = self.ask(cmd)
        if p["code"] is None:
            raise TimeoutError(f"the CLI ran over {CHILD_TIMEOUT_S} s")
        if self.child_totals is not None:
            self.child_totals.append(json.loads(p["stderr"].splitlines()[-1]))
        return p["code"], p["stdout"]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the CLI children."""
        return self.ask(None)["peak_rss_mb"]

    def check(self, item, result):
        code, stdout = result
        if self.first_stdout is None:
            self.first_stdout = stdout
        data = json.loads(stdout)
        ok = (code == 0 and data["ok"] is True and data["diffs"] == []
              and data["schema"] == "tanglekit-report/1"
              and data["unknottable"] == UNKNOTTABLE
              and data["unlinkable"] == UNLINKABLE
              and data["splittable"] == UNLINKABLE
              and stdout == self.first_stdout)
        decided = sum(v[key]["status"] in ("yes", "no")
                      for v in data["verdicts"].values()
                      for key in ("unknottable", "unlinkable", "splittable"))
        return ok, decided


class Closures(Workload):
    """Each op is the certificate classify applies to one candidate closure."""

    name = "closures"

    def __init__(self, seed: int, clock: ScaledClock, first: int | None = None):
        pinned_import()
        super().__init__(seed, clock, first)

    @staticmethod
    def build(x):
        from tanglekit import (close_numerator, from_expression, from_rational,
                               parse_expr, tangle_sum)
        from tanglekit.fraction import frac_normalize

        t = tangle_sum(from_expression(parse_expr(x["tangle"])),
                       from_rational(frac_normalize(*x["closure"])))
        return close_numerator(t)

    @staticmethod
    def op(item):
        from tanglekit.bracket import (jones, jones_unknot, jones_unlink,
                                       linking_number, split_union_jones)
        from tanglekit.diagram import component_count, orient
        from tanglekit.quandle import determinant

        _, _, link = item
        comps = component_count(link)
        det = determinant(link)
        poly = jones(link)
        if comps == 1:
            outcome = "certified" if det == 1 and poly == jones_unknot() else "rejected"
            return comps, det, poly, outcome
        lk = linking_number(orient(link))
        union = split_union_jones(link)
        if lk != 0 or poly != union:
            outcome = "rejected"
        elif det == 0 and poly == jones_unlink(2):
            outcome = "certified"
        else:
            outcome = "inconclusive"
        return comps, det, poly, outcome

    @staticmethod
    def check(item, result):
        _, x, _ = item
        comps, det, poly, outcome = result
        re, im = inputs.gaussian_value(poly.coeffs, power_of_i=True)
        at_one, _ = inputs.gaussian_value(poly.coeffs, power_of_i=False)
        ok = (comps == x["components"] and re * re + im * im == det * det
              and at_one == (-2) ** (comps - 1))
        return ok, int(outcome != "inconclusive")


class Colorings(Workload):
    """Each op is the obstruction pass classify runs before any bracket."""

    name = "colorings"

    def __init__(self, seed: int, clock: ScaledClock, first: int | None = None):
        pinned_import()
        super().__init__(seed, clock, first)

    @staticmethod
    def build(x):
        from tanglekit import from_expression, parse_expr

        text = " + ".join(inputs.leaf_text(*pq) for pq in x["summands"])
        return from_expression(parse_expr(text))

    @staticmethod
    def op(item):
        from tanglekit.diagram import close_denominator, close_numerator, validate
        from tanglekit.quandle import coloring_fraction, determinant, monochromatic_report

        _, _, t = item
        error = validate(t)
        report = monochromatic_report(t)
        fraction = coloring_fraction(t)
        return (error, report.polychromatic_somewhere(), fraction,
                determinant(close_numerator(t)), determinant(close_denominator(t)))

    @staticmethod
    def check(item, result):
        from tanglekit.fraction import Fraction

        _, x, _ = item
        error, obstructed, fraction, det_n, det_d = result
        ok = error is None and (det_n, det_d) == inputs.montesinos_dets(x["summands"])
        if isinstance(fraction, Fraction):
            total = inputs.fraction_sum(x["summands"])
            ok = ok and (fraction.num, fraction.den) == (total.numerator, total.denominator)
        return ok, int(obstructed)


class Algebra(Workload):
    """Each op is ``parse_expr`` plus ``evaluate`` on one expression."""

    name = "algebra"
    answers = 3

    def __init__(self, seed: int, clock: ScaledClock, first: int | None = None):
        entries = pinned_import()
        from tanglekit.catalog import classify
        from tanglekit.expr import CatalogHint

        self.hints = {}
        for e in entries:
            self.hints[e.name] = CatalogHint(verdict=classify(e).verdict,
                                             essential=e.essential)
            clock.tick()
        super().__init__(seed, clock, first)

    def op(self, item):
        from tanglekit.expr import evaluate, parse_expr

        return evaluate(parse_expr(item[1]["expr"]), self.hints).verdict

    @staticmethod
    def check(item, verdict):
        x = item[1]
        parts = (verdict.unknottable, verdict.unlinkable, verdict.splittable)
        ok = True
        if x["sum_leaves"] is not None:
            for v, det in ((verdict.unknottable, 1), (verdict.unlinkable, 0)):
                if v.is_yes:
                    closure = (v.closure.num, v.closure.den)
                    ok = ok and inputs.montesinos_dets(x["sum_leaves"] + [closure])[0] == det
        return ok, sum(v.is_yes or v.is_no for v in parts)


WORKLOADS = {"reproduce": Reproduce, "closures": Closures,
             "colorings": Colorings, "algebra": Algebra}


@dataclasses.dataclass
class Loop:
    """What one closed loop measured."""

    scaled: list[float]  # per-op wall times scaled to reference speed
    failed: int
    decided: int  # decided answers of the ops that passed
    raw_s: float  # wall time of the ops, unscaled
    slowness: list[float]  # the reference's slowness over each slice


def run_ops(workload, op, seconds: float | None = None, count: int | None = None) -> Loop:
    """Closed loop over the workload's next inputs, for seconds or count ops.

    Each input is used once.  When the built inputs run out, the slice
    ends early and more are built after its check, outside the timed ops.
    """
    clock = time.perf_counter
    pending = workload.pending
    loop = Loop([], 0, 0, 0.0, [])
    n = 0
    t0 = clock()
    before = slowness(workload.cold)
    done = False
    while not done:
        raw, outcomes = [], []
        slice_end = clock() + SLICE_S
        while pending:
            item = pending.popleft()
            t = clock()
            try:
                result, error = op(item), None
            except Exception as ex:  # an op that raises is counted as failed
                result, error = None, ex
            t1 = clock()
            raw.append(t1 - t)
            outcomes.append((item, result, error))
            n += 1
            done = ((seconds is not None and t1 - t0 >= seconds)
                    or (count is not None and n >= count))
            if done or t1 >= slice_end:
                break
        after = slowness(workload.cold)
        slow = (before + after) / 2
        loop.slowness.append(slow)
        loop.scaled.extend(x / slow for x in raw)
        loop.raw_s += sum(raw)
        f, d = check_all(workload, outcomes, report=loop.failed == 0)
        loop.failed += f
        loop.decided += d
        if not pending and not done:
            workload.refill(max(REFILL_MIN, 2 * len(raw)))
            after = slowness(workload.cold)
        before = after
    return loop


def check_all(workload, outcomes, report: bool) -> tuple[int, int]:
    """Failed ops and decided answers; a check that raises is a failure.

    With ``report``, the first failure's exception goes to stderr.
    """
    failed = decided = 0
    for item, result, error in outcomes:
        if error is None:
            try:
                ok, d = workload.check(item, result)
            except Exception as ex:
                ok, d, error = False, 0, ex
            decided += d if ok else 0
        else:
            ok = False
        if not ok:
            if report and failed == 0 and error is not None:
                traceback.print_exception(error, file=sys.stderr)
            failed += 1
    return failed, decided


def percentile(values, fraction: float) -> float:
    """Inclusive-method quantile; the single value when there is one."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def plain_run(name: str, workload, seconds: float) -> dict:
    loop = run_ops(workload, workload.op, seconds=seconds)
    latencies = loop.scaled
    n = len(latencies)
    metrics = {
        "ops_per_s": n / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
        "ok_ratio": (n - loop.failed) / n,
        "decided_ratio": loop.decided / (n * workload.answers),
    }
    return {"attempted": n, "failed": loop.failed, "metrics": metrics,
            "raw_ops_per_s": n / loop.raw_s,
            "slowness": statistics.fmean(loop.slowness)}


def bare_start_ms(samples: int = 5) -> float:
    """Median time of ``python -c pass``, scaled by the cold reference."""
    times = []
    for _ in range(samples):
        before = slowness(cold=True)
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True,
                       timeout=CHILD_TIMEOUT_S)
        raw = time.perf_counter() - t
        times.append(raw * 2 / (before + slowness(cold=True)))
    return statistics.median(times) * 1e3


def traced_run(name: str, workload, seconds: float) -> dict:
    plain = run_ops(workload, workload.op, seconds=seconds / 2)
    n = len(plain.scaled)
    # build the traced ops' inputs now, so that no build is traced
    workload.refill(max(0, n - len(workload.pending)))
    extra = {}
    if name == "reproduce":
        workload.child_totals = []
        traced = run_ops(workload, workload.op, count=n)
        totals = combine(workload.child_totals)
        extra["process.start_ms"] = bare_start_ms()
    else:
        spans = tracer.Tracer()
        uninstall = tracer.install(spans)
        try:
            traced = run_ops(workload, spans.wrap("op", workload.op), count=n)
        finally:
            uninstall()
        totals = tracer.summarize(spans.spans)
    extra["trace.overhead_ratio"] = sum(traced.scaled) / sum(plain.scaled)
    # span times are raw; scale them like the op times they sit in
    speed = sum(traced.scaled) / traced.raw_s
    totals = {k: v * speed if k.endswith("_ms") else v for k, v in totals.items()}
    return {"attempted": 2 * n, "failed": plain.failed + traced.failed,
            "metrics": layer_metrics(totals, n, extra),
            "slowness": statistics.fmean(plain.slowness + traced.slowness)}


def combine(totals_list: list[dict]) -> dict:
    """Add the totals of several processes; maxima stay maxima."""
    out: dict[str, float] = {}
    for totals in totals_list:
        for key, value in totals.items():
            if key == "bracket.max_crossings":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(totals: dict, ops: int, extra: dict) -> dict:
    """Per-op values of the per-layer metrics; ratios over the whole run."""
    def ratio(a, b):
        return totals.get(a, 0) / totals[b] if totals.get(b) else 0.0

    names = metric_units("per_layer")
    out = {key: totals.get(key, 0) / ops for key in names}
    out["laurent.ops"] = totals.get("laurent.calls", 0) / ops
    out["bracket.max_crossings"] = totals.get("bracket.max_crossings", 0)
    out["bracket.distinct_ratio"] = ratio("bracket.distinct", "bracket.kauffman_bracket.calls")
    out["quandle.determinant.distinct_ratio"] = ratio("quandle.determinant.distinct",
                                                      "quandle.determinant.calls")
    out["catalog.closure_hit_ratio"] = ratio("catalog.yes_verdicts", "catalog.closures_tried")
    out.update(extra)
    return {key: out[key] for key in names}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    clock = ScaledClock(float(argv[4]), float(argv[5]))
    clock.lap()
    workload = WORKLOADS[name](seed, clock)
    clock.lap()
    print(f"ready {clock.total_s!r}", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    with workload:
        result = (traced_run if trace else plain_run)(name, workload, seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
