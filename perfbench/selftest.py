"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

import json
import subprocess
import sys
import time

import pytest

import inputs
import tracer
import worker
from worker import ROOT


def test_wrapper_returns_values_and_raises_unchanged():
    spans = tracer.Tracer()
    sentinel = object()
    error = KeyError("boom")

    def give(x, *, y):
        return sentinel if (x, y) == (1, 2) else None

    def fail():
        raise error

    assert spans.wrap("t.give", give)(1, y=2) is sentinel
    with pytest.raises(KeyError) as caught:
        spans.wrap("t.fail", fail)()
    assert caught.value is error
    assert [s[0] for s in spans.spans] == ["t.give", "t.fail"]
    assert all(s[1] <= s[2] for s in spans.spans)


def test_install_rebinds_imported_names_and_restores_them():
    import tanglekit.bracket
    import tanglekit.catalog
    import tanglekit.cli
    from tanglekit.laurent import LaurentPoly

    originals = (tanglekit.bracket.jones, tanglekit.catalog.jones, tanglekit.cli.jones,
                 tanglekit.catalog.determinant, LaurentPoly.__mul__)
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        assert tanglekit.catalog.jones is tanglekit.bracket.jones is tanglekit.cli.jones
        assert tanglekit.catalog.jones is not originals[0]
        value = tanglekit.catalog.jones(tanglekit.close_numerator(
            tanglekit.from_rational(tanglekit.parse_fraction("3"))))
    finally:
        uninstall()
    assert (tanglekit.bracket.jones, tanglekit.catalog.jones, tanglekit.cli.jones,
            tanglekit.catalog.determinant, LaurentPoly.__mul__) == originals
    assert value == originals[0](tanglekit.close_numerator(
        tanglekit.from_rational(tanglekit.parse_fraction("3"))))
    names = {s[0] for s in spans.spans}
    assert {"bracket.jones", "bracket.kauffman_bracket", "laurent.__mul__"} <= names


def _clock():
    return worker.ScaledClock(time.perf_counter(), 1.0)


def test_self_times_sum_to_traced_wall_time():
    workload = worker.Closures(3, _clock(), first=10)
    items = list(workload.pending)
    plain = worker.run_ops(workload, workload.op, count=len(items))
    assert plain.failed == 0
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        traced_op = spans.wrap("op", workload.op)
        workload.pending.extend(items)
        traced = worker.run_ops(workload, traced_op, count=len(items))
        assert traced.failed == 0
        del spans.spans[:]
        t0 = time.perf_counter()
        for item in items:
            traced_op(item)
        wall = time.perf_counter() - t0
    finally:
        uninstall()
    selfs = tracer.self_times(spans.spans)
    assert min(selfs) >= 0
    roots = [s for s in spans.spans if s[3] == -1]
    assert len(roots) == len(items)
    assert sum(selfs) == pytest.approx(sum(s[2] - s[1] for s in roots), rel=1e-9)
    overhead = sum(traced.scaled) / sum(plain.scaled) - 1  # as trace.overhead_ratio - 1
    assert 0 <= wall - sum(selfs) <= max(overhead, 0.01) * wall
    totals = tracer.summarize(spans.spans)
    # the links are distinct; component unions of two of them may coincide
    assert len(items) <= totals["bracket.distinct"] <= totals["bracket.kauffman_bracket.calls"]


@pytest.mark.parametrize("name", ["closures", "colorings", "algebra"])
def test_a_run_uses_each_input_once(name):
    workload = worker.WORKLOADS[name](4, _clock(), first=3)
    used = []

    def op(item):
        used.append(item)
        return workload.op(item)

    loop = worker.run_ops(workload, op, count=40)
    assert loop.failed == 0 and len(loop.scaled) == 40
    assert [i for i, _, _ in used] == list(range(40))
    assert [x for _, x, _ in used] == inputs.make_inputs(name, 4, count=40)
    if name != "algebra":  # small algebra expressions may be equal by value
        assert len({json.dumps(x, sort_keys=True) for _, x, _ in used}) == 40


def test_traced_run_does_not_trace_input_building():
    # three inputs built at set-up: the traced ops' inputs are built later
    result = worker.traced_run("colorings", worker.Colorings(1, _clock(), first=3), 0.3)
    assert result["failed"] == 0
    # each op makes 4 build calls: both closures and two renumberings
    assert result["metrics"]["diagram.build.calls"] == 4


@pytest.mark.parametrize("name", ["closures", "colorings"])
def test_streams_never_repeat_and_fail_when_drawn_dry(name, monkeypatch):
    batch = inputs.make_inputs(name, 6, count=3000)
    assert len({json.dumps(x, sort_keys=True) for x in batch}) == len(batch)
    monkeypatch.setattr(inputs, "MAX_DRAWS", 0)
    with pytest.raises(inputs.InputsExhausted):
        inputs.make_inputs(name, 6, count=1)


def test_spawner_reads_the_childrens_own_peak_memory():
    import resource

    import tanglekit.cli  # noqa: F401  (make this process larger than a bare child)

    workload = worker.Reproduce(1, _clock())
    with workload:
        reply = workload.ask(["-c", "print('x' * 3)"])
        peak = workload.peak_rss_mb()
    assert reply == {"code": 0, "stdout": "xxx\n", "stderr": ""}
    assert workload.spawner.returncode == 0
    assert 0 < peak < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_same_seed_gives_same_input_digest(name):
    first = inputs.digest(inputs.make_inputs(name, 11))
    assert inputs.digest(inputs.make_inputs(name, 11)) == first
    if name != "reproduce":  # its input is the bundled catalog
        assert inputs.digest(inputs.make_inputs(name, 12)) != first


def test_end_patterns_predict_the_realized_diagrams():
    from tanglekit import (close_numerator, from_expression, from_rational, parse_expr,
                           tangle_sum, validate)
    from tanglekit.diagram import component_count
    from tanglekit.fraction import frac_normalize

    for x in inputs.make_inputs("closures", 5, count=40):
        t = tangle_sum(from_expression(parse_expr(x["tangle"])),
                       from_rational(frac_normalize(*x["closure"])))
        assert validate(t) is None
        link = close_numerator(t)
        assert (link.crossing_count, component_count(link)) == (x["crossings"],
                                                                 x["components"])
    for x in inputs.make_inputs("colorings", 5, count=40):
        t = from_expression(parse_expr(" + ".join(inputs.leaf_text(*pq)
                                                  for pq in x["summands"])))
        assert validate(t) is None and t.crossing_count == x["crossings"]


@pytest.mark.parametrize("name,trace", [("algebra", 0), ("reproduce", 1)])
def test_printed_metrics_are_named_in_benchmark_json(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == named
