"""The repo benchmark: the deployed cell over real loopback UDP.

Usage (from the root of a checkout)::

    python3 wardbench/run.py --workload W --seed N --seconds S --trace 0|1

``--workload`` is ``ward-capacity``, ``alarm-fanout`` or ``rule-dense``
(see :mod:`wardbench.workloads`).  The cell runs as its own process
(:mod:`wardbench.cell`); this process is the load generator.

With ``--trace 0`` the run makes :data:`ROUNDS` rounds.  Each launches and
sets up a fresh cell, warms up, measures ``--seconds / ROUNDS``, drains and
checks every delivery against the seeded input; every metric is the median
round.  With ``--trace 1`` it makes one untraced round of ``--seconds``,
then one on a cell whose layer entry points are wrapped
(:mod:`wardbench.tracing`), and reports per-layer metrics over the traced
window, the tracing overhead, and the load attribution of the untraced
twin.

Human-readable lines go first; the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"wardbench: no cell source under {ROOT / 'src'}; run it from "
             f"a checkout of the repository")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from wardbench import procfs  # noqa: E402
from wardbench.generator import TRAFFIC, Rig, Traffic  # noqa: E402
from wardbench.tracing import SpanSet, self_times  # noqa: E402
from wardbench.workloads import WORKLOADS  # noqa: E402

#: Rounds per untraced run.  Each round launches and sets up a fresh cell
#: and measures ``--seconds / ROUNDS``; the run reports the median round,
#: so one slow process start or host hiccup moves one round, not the run.
ROUNDS = 3
WARMUP_S = 1.0
#: A delivery later than this after its due time misses the deadline.
DEADLINE_S = 0.050
SCRATCH = ROOT / ".wardbench"

#: Healthz counters whose window deltas go on the meta line of every run.
WINDOW_COUNTERS = (("transport", "datagrams_received"),
                   ("transport", "datagrams_sent"),
                   ("channels", "retransmissions"), ("channels", "duplicates"),
                   ("edge", "quench_advisories"), ("edge", "payloads_shed"))

END_TO_END_UNITS = {
    "throughput_eps": "events/s", "latency_p50_ms": "ms",
    "cell_cpu_us_per_event": "us", "setup_s": "s", "cell_peak_rss_mb": "MB",
}
#: Measured on every run but not bounded: on a shared 2-vCPU host their
#: run-to-run spread is wider than any bound the benchmark may set (p99),
#: or they are 0 on a healthy run (the ratios).  Untraced runs print them
#: and put them on the meta line; traced runs report them as per-layer
#: metrics of the untraced twin.
UNBOUNDED_UNITS = {"latency_p99_ms": "ms", "failed_ratio": "ratio",
                   "deadline_miss_ratio": "ratio"}


@dataclass
class Window:
    """Counter readings at both ends of one measured window."""

    start: float = 0.0
    end: float = 0.0
    health: list[dict] = field(default_factory=list)
    cell_cpu: list[float] = field(default_factory=list)
    generator_cpu: list[float] = field(default_factory=list)
    rcvbuf_errors: list[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def delta(self, *path: str) -> float:
        """Healthz counter delta over the window (0 when absent)."""
        values = []
        for snapshot in self.health:
            node = snapshot
            for part in path:
                node = node.get(part, {}) if isinstance(node, dict) else {}
            values.append(node if isinstance(node, (int, float)) else 0)
        return values[1] - values[0]


@dataclass
class Outcome:
    """One measured round: its window, final healthz and exit state."""

    traffic: Traffic
    window: Window
    final_health: dict
    drained: bool
    cell_exit: int
    setup_s: float


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def measure(workload: str, seed: int, seconds: float,
            spans: Path | None = None) -> Outcome:
    """One round: launch and set up a cell, warm up, measure ``seconds``,
    drain, check, stop.

    The generator's ledger grows to millions of objects; a full cyclic
    collection over it stalls the generator for hundreds of ms, which
    would show up as cell latency.  Nothing in the ledger is cyclic, so
    the collector is off while the rig runs.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _measure(workload, seed, seconds, spans)
    finally:
        if gc_was_enabled:
            gc.enable()


def _measure(workload: str, seed: int, seconds: float,
             spans: Path | None) -> Outcome:
    rig = Rig(workload, spans)
    traffic = TRAFFIC[workload](rig, seed, seconds)
    try:
        traffic.setup()
        sched, cell = rig.sched, rig.cell
        window = Window()
        traffic.start()
        traffic.run_until(sched.now() + WARMUP_S)
        window.health.append(cell.healthz())
        window.cell_cpu.append(procfs.tree_cpu_seconds(cell.pid))
        window.generator_cpu.append(procfs.cpu_seconds(os.getpid()))
        window.rcvbuf_errors.append(procfs.udp_rcvbuf_errors())
        cell.command("mark")
        window.start = sched.now()
        traffic.run_until(window.start + seconds)
        window.end = sched.now()
        cell.command("mark")
        window.cell_cpu.append(procfs.tree_cpu_seconds(cell.pid))
        window.generator_cpu.append(procfs.cpu_seconds(os.getpid()))
        window.rcvbuf_errors.append(procfs.udp_rcvbuf_errors())
        window.peak_rss_mb = procfs.tree_peak_rss_mb(cell.pid)
        window.health.append(cell.healthz())
        traffic.stop()
        drained = traffic.drain()
        final_health = cell.healthz()
    finally:
        cell_exit = rig.close()
    return Outcome(traffic, window, final_health, drained, cell_exit,
                   rig.setup_s)


def _window_samples(traffic: Traffic, window: Window) -> tuple[list, int]:
    """Latencies of deliveries due in the window (all latency subscribers),
    and how many of them reached the completion subscriber."""
    published = traffic.ledger.published
    deliveries = traffic.ledger.deliveries

    def in_window(key) -> bool:
        record = published.get(key)        # the check flags unknown keys
        return record is not None and window.start <= record.due < window.end

    latencies = [arrival - published[key].due
                 for name in traffic.latency_subscribers
                 for key, _t, _a, arrival in deliveries.get(name, ())
                 if in_window(key)]
    completed = sum(1 for key, _t, _a, _arrival
                    in deliveries.get(traffic.completion, ())
                    if in_window(key))
    return latencies, completed


def round_metrics(outcome: Outcome) -> dict:
    """Throughput, cell CPU, set-up time and memory of one round.

    Throughput counts events due in the window that reached the
    completion subscriber (by the end of the drain), so an event is
    credited to the window it was offered in.
    """
    window = outcome.window
    _, completed = _window_samples(outcome.traffic, window)
    events = published_in_window(outcome.traffic, window)
    cpu = window.cell_cpu[1] - window.cell_cpu[0]
    return {
        "throughput_eps": completed / window.seconds,
        "cell_cpu_us_per_event": cpu / max(1, events) * 1e6,
        "setup_s": outcome.setup_s,
        "cell_peak_rss_mb": window.peak_rss_mb,
    }


def end_to_end(outcomes: list[Outcome]) -> dict:
    """The end-to-end metrics of a run: the median round for throughput,
    CPU, set-up and memory; latency percentiles over the pooled samples of
    every round, which weighs every stall the rounds saw."""
    rounds = [round_metrics(outcome) for outcome in outcomes]
    latencies = sorted(latency for outcome in outcomes
                       for latency in _window_samples(outcome.traffic,
                                                      outcome.window)[0])
    return {
        "throughput_eps": statistics.median(
            r["throughput_eps"] for r in rounds),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        **{name: statistics.median(r[name] for r in rounds)
           for name in ("cell_cpu_us_per_event", "setup_s",
                        "cell_peak_rss_mb")},
    }


def published_in_window(traffic: Traffic, window: Window) -> int:
    return sum(1 for record in traffic.ledger.published.values()
               if window.start <= record.due < window.end)


def deadline_miss_ratio(traffic: Traffic) -> float:
    """Share of expected latency-subscriber deliveries that arrived later
    than :data:`DEADLINE_S` after due, or never."""
    ledger = traffic.ledger
    expected = len(ledger.published) * len(traffic.latency_subscribers)
    on_time = 0
    for name in traffic.latency_subscribers:
        seen = set()
        for key, _t, _a, arrival in ledger.deliveries.get(name, ()):
            if key not in seen and key in ledger.published:
                seen.add(key)
                if arrival - ledger.published[key].due <= DEADLINE_S:
                    on_time += 1
    return (expected - on_time) / max(1, expected)


@dataclass
class Verdict:
    correct: bool
    attempted: int
    failed: int
    notes: list[str]


def management_events(baseline: dict, final: dict) -> int:
    """Membership events the cell itself published on its bus between two
    healthz snapshots.

    Discovery publishes one event per admission, roam, silence and
    recovery, two per purge (state change and purge), and one per
    lifecycle change: into DEGRADED or DRAINING (counted by discovery) and
    into HEALTHY (a first heartbeat, or a degraded member heard again),
    which is inferred from the change in healthy members.
    """
    def delta(name: str) -> int:
        return final["discovery"][name] - baseline["discovery"][name]

    def healthy(snapshot: dict) -> int:
        return sum(1 for member in snapshot["members"]
                   if member["lifecycle"] == "healthy")

    left_healthy = delta("degradations") + delta("drains")
    into_healthy = max(0, healthy(final) - healthy(baseline) + left_healthy)
    return (delta("admissions") + delta("roams") + delta("recoveries")
            + delta("silences") + 2 * delta("purges") + left_healthy
            + into_healthy)


def combine(verdicts: list[Verdict]) -> Verdict:
    return Verdict(
        correct=all(v.correct for v in verdicts),
        attempted=sum(v.attempted for v in verdicts),
        failed=sum(v.failed for v in verdicts),
        notes=[f"round {index}: {note}" for index, v in enumerate(verdicts)
               for note in v.notes])


def verdict(outcome: Outcome) -> Verdict:
    """Run the output check and the healthz cross-checks."""
    traffic = outcome.traffic
    result = traffic.check()
    notes = list(result.notes)
    baseline, final = traffic.baseline, outcome.final_health
    published = final["bus"]["published"] - baseline["bus"]["published"]
    generated = len(traffic.ledger.published)
    management = management_events(baseline, final)
    counters_agree = published == generated + management
    if not counters_agree:
        notes.append(f"healthz bus.published delta {published} != "
                     f"{generated} events the generator published + "
                     f"{management} membership events")
    shed = final["edge"]["payloads_shed"] - baseline["edge"]["payloads_shed"]
    if shed:
        notes.append(f"deploy.edge.payloads_shed: {shed}")
    if not outcome.drained:
        notes.append("deliveries still outstanding after the drain timeout")
    if outcome.cell_exit != 0:
        notes.append(f"cell exited with code {outcome.cell_exit}")
    # Every shed payload held at least one delivery, which the check then
    # finds missing; count any shed the check could not see on top.
    failed = (result.failed + traffic.ledger.refused
              + max(0, shed - result.missing))
    return Verdict(
        correct=(result.wrong == 0 and counters_agree
                 and outcome.cell_exit == 0),
        attempted=result.expected + traffic.ledger.refused,
        failed=failed, notes=notes)


def load_attribution(outcome: Outcome) -> dict:
    window, traffic = outcome.window, outcome.traffic
    lags = sorted(traffic.lags)
    return {
        "cell.busy_share": (window.cell_cpu[1] - window.cell_cpu[0])
        / window.seconds,
        "generator.busy_share": (window.generator_cpu[1]
                                 - window.generator_cpu[0]) / window.seconds,
        "generator.lag_p99_ms": percentile(lags, 0.99) * 1e3 if lags else 0.0,
    }


_CONTROL = ("BEACON", "ANNOUNCE", "JOIN_REQ", "JOIN_ACK", "JOIN_NAK",
            "HEARTBEAT", "LEAVE", "LEAVE_INTENT")


def per_layer(outcome: Outcome, spans: SpanSet) -> dict:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json:
    self time per call or per event, packet counts, and healthz deltas
    over the same window."""
    window = outcome.window
    lo, hi = spans.marks[0], spans.marks[1]
    totals = self_times(spans, (lo, hi))
    counts = spans.window_counts()
    events = max(1, published_in_window(outcome.traffic, window))
    received = window.delta("transport", "datagrams_received")
    sent = window.delta("transport", "datagrams_sent")

    def per_call(name: str) -> float:
        calls = totals.count(name)
        return totals.self_us(name) / calls if calls else 0.0

    def per_event(name: str) -> float:
        return totals.self_us(name) / events

    packets = sum(value for key, value in counts.items()
                  if key.startswith(("decode.", "encode.")))
    control = sum(counts.get(f"{side}.{ptype}", 0)
                  for side in ("decode", "encode") for ptype in _CONTROL)
    encodes = counts.get("deliver_encodes", 0)
    ingests = totals.count("core.proxy.ingest")
    # Channel counters in healthz cover live channels only and drop when a
    # member's channel is reset, so the reliable layer is counted at the
    # packet boundary: every DATA transmission is one encode, every DATA
    # arrival one decode, every first delivery one ingest.  Payloads queued
    # across a window boundary can tip a difference below 0; it is floored.
    reliable_sends = totals.count("transport.reliability.send")
    return {
        "transport.udp.datagrams_per_event": (received + sent) / events,
        "transport.udp.rcvbuf_drops": (window.rcvbuf_errors[1]
                                       - window.rcvbuf_errors[0]),
        "transport.udp.recv_us": (totals.self_us("transport.udp.recv")
                                  / max(1, received)),
        "transport.udp.send_us": per_call("transport.udp.send"),
        "transport.udp.datagrams_per_wakeup": (
            received / max(1, totals.count("transport.udp.recv"))),
        "transport.packets.decode_us": per_call("transport.packets.decode"),
        "transport.packets.encode_us": per_call("transport.packets.encode"),
        "transport.reliability.handle_us": per_call(
            "transport.reliability.handle"),
        "transport.reliability.send_us": per_call(
            "transport.reliability.send"),
        "transport.reliability.acks_per_event": (
            counts.get("encode.ACK", 0) / events),
        "transport.reliability.retransmit_ratio": (
            max(0, counts.get("encode.DATA", 0) - reliable_sends)
            / max(1, reliable_sends)),
        "transport.reliability.duplicate_ratio": (
            max(0, counts.get("decode.DATA", 0) - ingests) / max(1, ingests)),
        "discovery.control_share": control / max(1, packets),
        "discovery.control_per_s": control / window.seconds,
        "core.proxy.ingest_us": per_call("core.proxy.ingest"),
        "core.proxy.events_per_payload": events / max(1, ingests),
        "core.proxy.deliver_us": per_call("core.proxy.deliver"),
        "core.bus.dispatch_us": per_event("core.bus.dispatch"),
        "core.bus.encode_us": (totals.self_us("core.bus.encode")
                               / encodes if encodes else 0.0),
        "core.bus.encode_reuse": (totals.count("core.bus.encode") / encodes
                                  if encodes else 0.0),
        "matching.match_us": per_event("matching.match"),
        "matching.subscribe_us": per_call("matching.subscribe"),
        "core.sharding.plan_us": per_event("core.sharding.plan"),
        "core.workers.execute_us": per_event("core.workers.execute"),
        "core.workers.ipc_bytes_per_event": (
            (window.delta("workers", "ipc_bytes_out")
             + window.delta("workers", "ipc_bytes_in")) / events),
        "core.workers.inline_fallbacks": window.delta(
            "workers", "inline_fallbacks"),
        "deploy.edge.quench_advisories": window.delta(
            "edge", "quench_advisories"),
        "deploy.edge.payloads_shed": window.delta("edge", "payloads_shed"),
        "deploy.edge.sweep_us": per_call("deploy.edge.sweep"),
    }


PER_LAYER_UNITS = {
    "transport.udp.datagrams_per_event": "count",
    "transport.udp.rcvbuf_drops": "count",
    "transport.udp.recv_us": "us",
    "transport.udp.send_us": "us",
    "transport.udp.datagrams_per_wakeup": "count",
    "transport.packets.decode_us": "us",
    "transport.packets.encode_us": "us",
    "transport.reliability.handle_us": "us",
    "transport.reliability.send_us": "us",
    "transport.reliability.acks_per_event": "count",
    "transport.reliability.retransmit_ratio": "ratio",
    "transport.reliability.duplicate_ratio": "ratio",
    "discovery.control_share": "ratio",
    "discovery.control_per_s": "1/s",
    "core.proxy.ingest_us": "us",
    "core.proxy.events_per_payload": "count",
    "core.proxy.deliver_us": "us",
    "core.bus.dispatch_us": "us",
    "core.bus.encode_us": "us",
    "core.bus.encode_reuse": "count",
    "matching.match_us": "us",
    "matching.subscribe_us": "us",
    "core.sharding.plan_us": "us",
    "core.workers.execute_us": "us",
    "core.workers.ipc_bytes_per_event": "bytes",
    "core.workers.inline_fallbacks": "count",
    "deploy.edge.quench_advisories": "count",
    "deploy.edge.payloads_shed": "count",
    "deploy.edge.sweep_us": "us",
    "cell.busy_share": "ratio",
    "generator.busy_share": "ratio",
    "generator.lag_p99_ms": "ms",
    "trace.overhead": "ratio",
    **UNBOUNDED_UNITS,
}


def trace_overhead(untraced: dict, traced: dict, closed_loop: bool) -> float:
    """1 - traced/untraced throughput on a closed loop.  On the open loop
    the schedule fixes throughput, so the same share is taken of cell CPU
    per event: 1 - untraced/traced."""
    if closed_loop:
        return 1.0 - traced["throughput_eps"] / untraced["throughput_eps"]
    return 1.0 - (untraced["cell_cpu_us_per_event"]
                  / traced["cell_cpu_us_per_event"])


def host_metadata(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loopback": True}


def round_meta(outcome: Outcome) -> dict:
    window = outcome.window
    return {"setup_s": outcome.setup_s,
            "published": len(outcome.traffic.ledger.published),
            "window_published": published_in_window(outcome.traffic, window),
            "window_counters": {
                f"{section}.{name}": window.delta(section, name)
                for section, name in WINDOW_COUNTERS},
            "udp_rcvbuf_drops": (window.rcvbuf_errors[1]
                                 - window.rcvbuf_errors[0]),
            **end_to_end([outcome]), **load_attribution(outcome)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    meta = host_metadata(args)

    if args.trace:
        untraced = measure(args.workload, args.seed, args.seconds)
        SCRATCH.mkdir(exist_ok=True)
        spans_path = SCRATCH / f"spans-{os.getpid()}.bin"
        try:
            traced = measure(args.workload, args.seed, args.seconds,
                             spans_path)
            spans = SpanSet.load(str(spans_path))
        finally:
            spans_path.unlink(missing_ok=True)
        outcomes = [untraced, traced]
        check = combine([verdict(untraced), verdict(traced)])
        metrics = per_layer(traced, spans)
        metrics.update(load_attribution(untraced))
        untraced_e2e = end_to_end([untraced])
        metrics["trace.overhead"] = trace_overhead(
            untraced_e2e, end_to_end([traced]),
            closed_loop=args.workload != "alarm-fanout")
        metrics["latency_p99_ms"] = untraced_e2e["latency_p99_ms"]
        metrics["failed_ratio"] = check.failed / max(1, check.attempted)
        metrics["deadline_miss_ratio"] = deadline_miss_ratio(untraced.traffic)
        units = PER_LAYER_UNITS
    else:
        outcomes = [measure(args.workload, args.seed, args.seconds / ROUNDS)
                    for _ in range(ROUNDS)]
        check = combine([verdict(outcome) for outcome in outcomes])
        measured = end_to_end(outcomes)
        metrics = {name: measured[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
        meta["unbounded"] = {
            "latency_p99_ms": measured["latency_p99_ms"],
            "failed_ratio": check.failed / max(1, check.attempted),
            "deadline_miss_ratio": statistics.median(
                deadline_miss_ratio(outcome.traffic) for outcome in outcomes)}
        for name, value in meta["unbounded"].items():
            print(f"{name:40s} {value:14.4f} {UNBOUNDED_UNITS[name]}"
                  f" (unbounded)")
    meta["rounds"] = [round_meta(outcome) for outcome in outcomes]
    meta["check_notes"] = check.notes

    for name, value in metrics.items():
        print(f"{name:40s} {value:14.4f} {units[name]}")
    for note in check.notes:
        print(f"check: {note}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": check.correct, "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
