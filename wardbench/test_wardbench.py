"""The benchmark's own tests: output check, span arithmetic, smoke runs.

Run with ``PYTHONPATH=src python -m pytest -q wardbench``.  The smoke runs
start a real cell process on loopback and take a few seconds each.
"""

import json
from array import array

import pytest

from wardbench import run
from wardbench.check import check_subscriber
from wardbench.generator import Rig, RuleDense
from wardbench.tracing import SpanSet, Tracer, self_times
from wardbench.workloads import WORKLOADS

A, B = 101, 202                                  # two senders


def _published():
    return {(A, 1): ("health.hr", {"hr": 70.0}),
            (A, 2): ("health.hr", {"hr": 71.0}),
            (A, 3): ("health.hr", {"hr": 72.0}),
            (B, 1): ("health.temp", {"celsius": 36.8})}


def _deliver(keys, published, overrides=None):
    """Deliveries of ``keys`` in order; ``overrides`` alters attributes."""
    overrides = overrides or {}
    return [(key, published[key][0], overrides.get(key, published[key][1]))
            for key in keys]


def test_check_passes_exact_delivery():
    published = _published()
    result = check_subscriber("s", published, _deliver(
        [(A, 1), (B, 1), (A, 2), (A, 3)], published), published)
    assert result.failed == 0 and result.delivered == 4


@pytest.mark.parametrize("keys, overrides, kind", [
    ([(A, 1), (A, 3), (B, 1)], {}, "missing"),                 # a gap
    ([(A, 1), (A, 2), (A, 2), (A, 3), (B, 1)], {}, "duplicated"),
    ([(A, 2), (A, 1), (A, 3), (B, 1)], {}, "reordered"),
    ([(A, 1), (A, 2), (A, 3), (B, 1)], {(A, 2): {"hr": 99.0}}, "altered"),
])
def test_check_flags_injected_fault(keys, overrides, kind):
    published = _published()
    result = check_subscriber("s", published,
                              _deliver(keys, published, overrides), published)
    assert getattr(result, kind) == 1
    assert result.failed == 1
    assert result.notes == [f"s: 1 {kind}"]


def test_check_allows_optional_and_flags_unexpected():
    published = _published()
    required = {(A, 1)}
    deliveries = _deliver([(A, 1), (A, 2), (B, 1)], published)
    result = check_subscriber("s", published, deliveries, required,
                              allowed={(A, 2)}.__contains__)
    assert result.unexpected == 1 and result.failed == 1


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS


def test_self_times_subtract_direct_children():
    # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3);
    # d [20, 21) is a second root, outside the window.
    names = ["root", "a", "b", "c"]
    spans = SpanSet(names,
                    name_ids=array("i", [0, 1, 3, 2, 0]),
                    parents=array("i", [-1, 0, 1, 0, -1]),
                    starts=array("d", [0.0, 1.0, 2.0, 5.0, 20.0]),
                    ends=array("d", [10.0, 4.0, 3.0, 9.0, 21.0]))
    totals = self_times(spans, (0.0, 15.0))
    assert totals.self_s == {"root": 3.0, "a": 2.0, "b": 4.0, "c": 1.0}
    assert self_times(spans).self_s["root"] == 4.0
    assert totals.count("root") == 1


def test_nested_same_name_spans_count_one_call():
    spans = SpanSet(["m"], array("i", [0, 0]), array("i", [-1, 0]),
                    array("d", [0.0, 1.0]), array("d", [4.0, 2.0]))
    totals = self_times(spans)
    assert totals.self_s["m"] == 4.0
    assert totals.count("m") == 1


def test_tracer_records_parent_links():
    ticks = iter(range(100))

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer(lambda: float(next(ticks)))
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    assert Layer().outer() == 2
    assert list(tracer.span_parent) == [-1, 0]
    assert [tracer.names[i] for i in tracer.span_name] == ["outer", "inner"]
    assert list(tracer.span_start) == [0.0, 1.0]
    assert list(tracer.span_end) == [3.0, 2.0]


@pytest.mark.parametrize("workload", ["ward-capacity", "alarm-fanout"])
def test_smoke_run_passes_output_check(workload):
    outcome = run.measure(workload, seed=0, seconds=1.0)
    verdict = run.verdict(outcome)
    assert verdict.correct and verdict.failed == 0, verdict.notes
    metrics = run.end_to_end([outcome])
    assert set(metrics) == set(run.END_TO_END_UNITS) | {"latency_p99_ms"}
    assert all(value > 0 for value in metrics.values())


def test_smoke_rule_dense_churn_off_equals_reference():
    rig = Rig("rule-dense")
    traffic = RuleDense(rig, seed=0, seconds=1.0, churn=False)
    try:
        traffic.setup()
        traffic.start()
        traffic.run_until(rig.sched.now() + 1.5)
        traffic.stop()
        assert traffic.drain()
    finally:
        assert rig.close() == 0
    expected = traffic.expected_alerts()
    # No rule changes, so every possible alert is a required one.
    assert all(required == allowed for required, allowed in expected)
    assert sum(len(required) for required, _ in expected) > 0
    result = traffic.check()
    assert result.failed == 0, result.notes


def test_smoke_traced_run_reports_every_layer(tmp_path):
    spans_path = tmp_path / "spans.bin"
    outcome = run.measure("ward-capacity", seed=0, seconds=1.0,
                          spans=spans_path)
    assert run.verdict(outcome).correct
    metrics = run.per_layer(outcome, SpanSet.load(str(spans_path)))
    layers = set(run.PER_LAYER_UNITS) - {
        "cell.busy_share", "generator.busy_share", "generator.lag_p99_ms",
        "trace.overhead", *run.UNBOUNDED_UNITS}
    assert set(metrics) == layers
    assert metrics["transport.udp.datagrams_per_event"] == pytest.approx(
        4.0, rel=0.1)
    assert metrics["core.bus.encode_reuse"] == pytest.approx(1.0)
    assert metrics["transport.packets.decode_us"] > 0
