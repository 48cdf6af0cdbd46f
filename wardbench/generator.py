"""The load generator: one process, one selector, connectionless devices.

Every device is a :class:`~repro.deploy.harness.LoopbackDevice` with its own
UDP socket, registered on one shared
:class:`~repro.sim.kernel.RealtimeScheduler`.  The generator adds no
threads and opens no TCP connection per device; its only TCP traffic is the
healthz reads around (never inside) the measured window.

Wall-clock time comes from the scheduler (``RealtimeScheduler.now``), the
same monotonic clock the cell process stamps its spans with.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.events import Event
from repro.deploy import make_devices, read_healthz
from repro.deploy.harness import LoopbackDevice
from repro.errors import TransportError
from repro.matching.engine import BruteForceMatcher
from repro.matching.filters import Filter, Subscription
from repro.sim.kernel import RealtimeScheduler

from wardbench import workloads as wl
from wardbench.check import CheckResult, Key, check_subscriber

CELL_SCRIPT = Path(__file__).resolve().parent / "cell.py"
JOIN_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 10.0
#: Time of an event that has not happened (yet).
NEVER = float("inf")
STOP_TIMEOUT_S = 20.0


class SetupError(RuntimeError):
    """The cell or its devices did not reach the ready state."""


class CellProcess:
    """The cell launcher as a child process, driven over its stdin."""

    def __init__(self, workload: str, spans: Path | None) -> None:
        command = [sys.executable, str(CELL_SCRIPT), "--workload", workload]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(STOP_TIMEOUT_S)
            raise SetupError(f"cell exited during launch "
                             f"(code {self.proc.returncode})")
        hello = json.loads(line)
        self.pid: int = hello["pid"]
        self.address = tuple(hello["address"])
        self.healthz_address = tuple(hello["healthz"])

    def healthz(self) -> dict:
        return read_healthz(self.healthz_address, timeout_s=10.0)

    def command(self, text: str) -> None:
        self.proc.stdin.write(text.encode("ascii") + b"\n")
        self.proc.stdin.flush()

    def stop(self) -> int:
        """Ask the cell to stop; kill it if it does not.  Returns the code."""
        if self.proc.poll() is None:
            try:
                self.command("stop")
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(STOP_TIMEOUT_S)
        self.proc.stdout.close()
        return self.proc.returncode


@dataclass
class Published:
    event_type: str
    attrs: dict
    due: float
    sent: float


@dataclass
class Ledger:
    """What the generator published and what each subscriber received."""

    published: dict[Key, Published] = field(default_factory=dict)
    #: subscriber name -> [(key, type, attrs, arrival)] in arrival order.
    deliveries: dict[str, list] = field(default_factory=dict)
    refused: int = 0

    def record_publish(self, event: Event | None, due: float, now: float
                       ) -> Key | None:
        if event is None:
            self.refused += 1                 # quenched or disconnected
            return None
        key = (event.sender, event.seqno)
        self.published[key] = Published(event.type, dict(event.attributes),
                                        due, now)
        return key

    def receiver(self, name: str, clock: Callable[[], float],
                 then: Callable[[Key, float], None] | None = None
                 ) -> Callable[[Event], None]:
        """A subscription callback that records each delivery once.

        BusClient calls every matching local callback with the same Event
        object; a holder with several matching rules still got one
        delivery, so repeats of the object just recorded are skipped.
        """
        log = self.deliveries.setdefault(name, [])
        last: list = [None]

        def on_event(event: Event) -> None:
            if event is last[0]:
                return
            last[0] = event
            now = clock()
            key = (event.sender, event.seqno)
            log.append((key, event.type, event.attributes, now))
            if then is not None:
                then(key, now)

        return on_event

    def published_view(self) -> dict[Key, tuple[str, dict]]:
        return {key: (record.event_type, record.attrs)
                for key, record in self.published.items()}


class Rig:
    """One cell process plus its devices, up to the ready state."""

    def __init__(self, workload: str, spans: Path | None = None) -> None:
        self.workload = workload
        self.spans = spans
        self.sched = RealtimeScheduler()
        self.cell: CellProcess | None = None
        self.devices: list[LoopbackDevice] = []
        self.started_at = self.ready_at = 0.0

    def launch(self) -> None:
        """Start the cell process; set-up time counts from here."""
        self.started_at = self.sched.now()
        self.cell = CellProcess(self.workload, self.spans)

    def add_devices(self, count: int, prefix: str) -> list[LoopbackDevice]:
        devices = make_devices(self.sched, self.cell.address, count,
                               name_prefix=prefix)
        self.devices.extend(devices)
        return devices

    def pump_until(self, condition: Callable[[], bool], timeout_s: float,
                   what: str, step_s: float = 0.02) -> None:
        deadline = self.sched.now() + timeout_s
        while not condition():
            if self.sched.now() > deadline:
                raise SetupError(f"timed out waiting for {what}")
            if self.cell.proc.poll() is not None:
                raise SetupError(f"cell exited while waiting for {what}")
            self.sched.run_for(step_s)

    def join_all(self) -> int:
        """Start every device; wait for joins and bus proxies.  Returns the
        cell's subscription count before any device subscribes."""
        for device in self.devices:
            device.start()
        self.pump_until(lambda: all(d.joined for d in self.devices),
                        JOIN_TIMEOUT_S, "device joins")
        snapshot: dict = {}

        def proxies_live() -> bool:
            snapshot.update(self.cell.healthz())
            return snapshot["bus"]["members_active"] >= len(self.devices)

        self.pump_until(proxies_live, JOIN_TIMEOUT_S, "bus proxies",
                        step_s=0.05)
        return snapshot["bus"]["subscriptions_active"]

    def wait_subscriptions(self, target: int) -> dict:
        snapshot: dict = {}

        def active() -> bool:
            snapshot.update(self.cell.healthz())
            return snapshot["bus"]["subscriptions_active"] >= target

        self.pump_until(active, JOIN_TIMEOUT_S, "subscriptions", step_s=0.05)
        self.ready_at = self.sched.now()
        return snapshot

    @property
    def setup_s(self) -> float:
        return self.ready_at - self.started_at

    def close(self) -> int:
        for device in self.devices:
            try:
                device.close()
            except TransportError:
                pass
        return self.cell.stop() if self.cell is not None else 0


def _ban_per_sensor(rate_per_s: float, seconds: float) -> int:
    """Events each sensor needs at ``rate_per_s`` for the whole ward; a
    stream that still runs out is cycled (seqnos stay unique)."""
    return int(rate_per_s / wl.SENSORS * seconds) + 64


class Traffic:
    """A workload's traffic: subscribe, publish, drain, check.

    Inputs are generated in the constructor, before the rig launches its
    cell, so that ``setup_s`` times the cell and its devices only.
    """

    #: Name of the subscriber whose deliveries mark an event complete.
    completion: str = ""
    #: Subscribers whose deliveries are latency samples.
    latency_subscribers: tuple[str, ...] = ()

    def __init__(self, rig: Rig, seed: int, seconds: float) -> None:
        self.rig = rig
        self.sched = rig.sched
        self.seed = seed
        self.seconds = seconds
        self.ledger = Ledger()
        self.running = False
        #: How late each scheduled publish or churn tick ran (seconds).
        self.lags: list[float] = []
        self.baseline: dict = {}

    # -- phases ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def run_until(self, deadline: float) -> None:
        self.sched.run_for(max(0.0, deadline - self.sched.now()))

    def stop(self) -> None:
        self.running = False

    def drained(self) -> bool:
        raise NotImplementedError

    def drain(self) -> bool:
        deadline = self.sched.now() + DRAIN_TIMEOUT_S
        while not self.drained() and self.sched.now() < deadline:
            self.sched.run_for(0.02)
        # Let deliveries racing the last completion land.
        self.sched.run_for(0.2)
        return self.drained()

    def check(self) -> CheckResult:
        raise NotImplementedError



class WardCapacity(Traffic):
    completion = "logger"
    latency_subscribers = ("logger",)

    def __init__(self, rig: Rig, seed: int, seconds: float) -> None:
        super().__init__(rig, seed, seconds)
        # Inputs for twice the capacity measured on a 2-vCPU host.
        self.streams = wl.sensor_streams(
            seed, wl.SENSORS, _ban_per_sensor(12000.0, seconds + 3))
        self.next_index = [0] * wl.SENSORS

    def setup(self) -> None:
        rig = self.rig
        rig.launch()
        self.sensors = rig.add_devices(wl.SENSORS, "sensor")
        (self.logger,) = rig.add_devices(1, "logger")
        base = rig.join_all()
        self.by_sender = {sensor.service_id: index
                          for index, sensor in enumerate(self.sensors)}
        self.logger.subscribe(Filter.for_type_prefix("health"),
                              self.ledger.receiver("logger", self.sched.now,
                                                   self._on_delivered))
        self.outstanding = 0
        self.baseline = rig.wait_subscriptions(base + 1)

    def _publish(self, index: int) -> None:
        stream = self.streams[index]
        event_type, attrs = stream[self.next_index[index] % len(stream)]
        self.next_index[index] += 1
        now = self.sched.now()
        event = self.sensors[index].publish(event_type, attrs)
        if self.ledger.record_publish(event, now, now) is not None:
            self.outstanding += 1

    def start(self) -> None:
        self.running = True
        for slot in range(wl.WARD_OUTSTANDING):
            self._publish(slot % wl.SENSORS)

    def _on_delivered(self, key: Key, _now: float) -> None:
        self.outstanding -= 1
        if self.running:
            self._publish(self.by_sender[key[0]])

    def drained(self) -> bool:
        return self.outstanding <= 0

    def check(self) -> CheckResult:
        published = self.ledger.published_view()
        log = self.ledger.deliveries["logger"]
        return check_subscriber("logger", published,
                                ((k, t, a) for k, t, a, _ in log), published)


class AlarmFanout(Traffic):
    completion = "station-0"

    def __init__(self, rig: Rig, seed: int, seconds: float) -> None:
        super().__init__(rig, seed, seconds)
        self.streams = wl.sensor_streams(
            seed, wl.SENSORS, _ban_per_sensor(wl.FANOUT_RATE, seconds + 3))

    def setup(self) -> None:
        rig = self.rig
        rig.launch()
        self.sensors = rig.add_devices(wl.SENSORS, "sensor")
        self.stations = rig.add_devices(wl.STATIONS, "station")
        base = rig.join_all()
        self.latency_subscribers = tuple(
            f"station-{index}" for index in range(wl.STATIONS))
        for index, station in enumerate(self.stations):
            station.subscribe(Filter.for_type_prefix("health"),
                              self.ledger.receiver(f"station-{index}",
                                                   self.sched.now))
        self.baseline = rig.wait_subscriptions(base + wl.STATIONS)
        self.sent = 0

    def start(self) -> None:
        self.running = True
        self.next_due = self.first_due = self.sched.now()
        self.per_tick = wl.FANOUT_RATE * wl.FANOUT_TICK_S

    def _tick(self, due: float) -> None:
        now = self.sched.now()
        self.lags.append(now - due)
        # Whole events per tick, carrying the fraction so the rate is exact.
        target = int(round((due - self.first_due) / wl.FANOUT_TICK_S
                           * self.per_tick + self.per_tick))
        while self.sent < target:
            index = self.sent % wl.SENSORS
            stream = self.streams[index]
            event_type, attrs = stream[(self.sent // wl.SENSORS) % len(stream)]
            event = self.sensors[index].publish(event_type, attrs)
            self.ledger.record_publish(event, due, now)
            self.sent += 1

    def run_until(self, deadline: float) -> None:
        while True:
            now = self.sched.now()
            if now >= deadline:
                return
            while self.running and self.next_due <= now:
                self._tick(self.next_due)
                self.next_due += wl.FANOUT_TICK_S
            wake = min(deadline, self.next_due) if self.running else deadline
            self.sched.run_for(max(0.0, wake - self.sched.now()))

    def drained(self) -> bool:
        expected = len(self.ledger.published)
        return all(len(self.ledger.deliveries[name]) >= expected
                   for name in self.latency_subscribers)

    def check(self) -> CheckResult:
        published = self.ledger.published_view()
        result = CheckResult()
        for name in self.latency_subscribers:
            log = self.ledger.deliveries[name]
            result.add(check_subscriber(name, published,
                                        ((k, t, a) for k, t, a, _ in log),
                                        published))
        return result


@dataclass
class RuleRecord:
    """One band rule's life at a holder, in generator time."""

    holder: int
    rule: wl.BandRule
    sub_id: int
    add_sent: float
    add_confirmed: float = NEVER
    remove_sent: float = NEVER
    remove_confirmed: float = NEVER


class RuleDense(Traffic):
    completion = "logger"
    latency_subscribers = ("logger",)

    def __init__(self, rig: Rig, seed: int, seconds: float,
                 churn: bool = True) -> None:
        super().__init__(rig, seed, seconds)
        self.churn = churn
        # Packs for about three times the measured ~270 ev/s.
        per_gateway = int(800 / wl.GATEWAYS * (seconds + 3)) + 64
        self.streams = wl.pack_streams(seed, wl.GATEWAYS, per_gateway)
        self.next_index = [0] * wl.GATEWAYS
        self.initial_rules = wl.holder_rules(seed)
        self.churn_rules = wl.churn_rules(
            seed, int(wl.CHURN_PER_S * (seconds + 3)) + 8)

    def setup(self) -> None:
        rig = self.rig
        rig.launch()
        self.gateways = rig.add_devices(wl.GATEWAYS, "gateway")
        self.holders = rig.add_devices(wl.HOLDERS, "holder")
        (self.logger,) = rig.add_devices(1, "logger")
        base = rig.join_all()
        self.records: list[RuleRecord] = []
        self.live: list[deque[RuleRecord]] = [deque() for _ in self.holders]
        self.unconfirmed: list[list[RuleRecord]] = [[] for _ in self.holders]
        self.holder_callbacks = [
            self.ledger.receiver(f"holder-{index}", self.sched.now)
            for index in range(wl.HOLDERS)]
        self.logger.subscribe(Filter.where(wl.PACK_TYPE),
                              self.ledger.receiver("logger", self.sched.now,
                                                   self._on_pack))
        now = self.sched.now()
        for index, rules in enumerate(self.initial_rules):
            for rule in rules:
                self._add_rule(index, rule, now)
        self.baseline = self.rig.wait_subscriptions(base + 1 + wl.RULES)
        ready = self.sched.now()
        for record in self.records:
            record.add_confirmed = ready
        for pending in self.unconfirmed:
            pending.clear()
        self.batch_of: dict[Key, int] = {}
        self.remaining: dict[int, int] = {}
        self.batch_gateway: dict[int, int] = {}
        self.next_batch = 0
        self.churned = 0

    def _add_rule(self, holder: int, rule: wl.BandRule, now: float) -> None:
        sub_id = self.holders[holder].subscribe(rule.to_filter(),
                                                self.holder_callbacks[holder])
        record = RuleRecord(holder, rule, sub_id, now)
        self.records.append(record)
        self.live[holder].append(record)
        self.unconfirmed[holder].append(record)

    def _send_batch(self, gateway: int) -> None:
        stream = self.streams[gateway]
        start = self.next_index[gateway]
        items = [stream[(start + offset) % len(stream)]
                 for offset in range(wl.PACKS_PER_BATCH)]
        self.next_index[gateway] += wl.PACKS_PER_BATCH
        now = self.sched.now()
        events = self.gateways[gateway].client.publish_batch(items)
        if not events:
            self.ledger.refused += len(items)
            return
        batch = self.next_batch
        self.next_batch += 1
        for event in events:
            key = self.ledger.record_publish(event, now, now)
            self.batch_of[key] = batch
        self.remaining[batch] = len(events)
        self.batch_gateway[batch] = gateway

    def start(self) -> None:
        self.running = True
        for slot in range(wl.BATCHES_OUTSTANDING):
            self._send_batch(slot % wl.GATEWAYS)
        if self.churn:
            self.churn_start = self.sched.now()
            self._schedule_churn()

    def _schedule_churn(self) -> None:
        due = self.churn_start + self.churned / wl.CHURN_PER_S
        self.sched.call_at(due, self._churn_tick, due)

    def _confirm(self, holder: int, now: float) -> None:
        """Everything the holder sent is acknowledged by now, hence
        processed by the cell."""
        channel = self.holders[holder].endpoint.existing_channel(
            self.rig.cell.address)
        if channel is not None and channel.unacked_count():
            return
        for record in self.unconfirmed[holder]:
            if record.remove_sent < NEVER:
                record.remove_confirmed = now
            record.add_confirmed = min(record.add_confirmed, now)
        self.unconfirmed[holder].clear()

    def _churn_tick(self, due: float) -> None:
        if not self.running or self.churned >= len(self.churn_rules):
            return
        now = self.sched.now()
        self.lags.append(now - due)
        holder = self.churned % wl.HOLDERS
        self._confirm(holder, now)
        old = self.live[holder].popleft()
        self.holders[holder].client.unsubscribe(old.sub_id)
        old.remove_sent = now
        self.unconfirmed[holder].append(old)
        self._add_rule(holder, self.churn_rules[self.churned], now)
        self.churned += 1
        self._schedule_churn()

    def _on_pack(self, key: Key, _now: float) -> None:
        batch = self.batch_of.get(key)
        if batch is None:
            return
        self.remaining[batch] -= 1
        if self.remaining[batch] == 0:
            del self.remaining[batch]
            if self.running:
                self._send_batch(self.batch_gateway[batch])

    def drained(self) -> bool:
        return not self.remaining

    def drain(self) -> bool:
        done = super().drain()
        now = self.sched.now()
        for holder in range(wl.HOLDERS):
            self._confirm(holder, now)
        return done

    def check(self) -> CheckResult:
        published = self.ledger.published_view()
        logger_log = self.ledger.deliveries["logger"]
        result = check_subscriber("logger", published,
                                  ((k, t, a) for k, t, a, _ in logger_log),
                                  published)
        for holder, (required, allowed) in enumerate(self.expected_alerts()):
            log = self.ledger.deliveries.get(f"holder-{holder}", [])
            result.add(check_subscriber(
                f"holder-{holder}", published,
                ((k, t, a) for k, t, a, _ in log), required,
                allowed.__contains__))
        return result

    def expected_alerts(self) -> list[tuple[set[Key], set[Key]]]:
        """Per holder: packs it must be alerted on, and packs it may be.

        Each pack is matched once, at some cell time between its publish
        and its arrival at the logger.  A rule is surely live then if its
        subscribe was acknowledged before the publish and its unsubscribe
        not sent before the logger's arrival; it may be live if its
        subscribe was sent before that arrival and its unsubscribe not
        acknowledged before the publish.  Matching itself is the repo's
        reference :class:`BruteForceMatcher`, over every rule ever held.
        """
        reference: dict[str, BruteForceMatcher] = {}
        for index, record in enumerate(self.records):
            matcher = reference.setdefault(record.rule.patient,
                                           BruteForceMatcher())
            matcher.subscribe(Subscription(index + 1, 0,
                                           [record.rule.to_filter()]))
        arrivals = {key: now for key, _t, _a, now in
                    self.ledger.deliveries["logger"]}
        expected = [(set(), set()) for _ in range(wl.HOLDERS)]
        for key, record in self.ledger.published.items():
            matcher = reference.get(record.attrs["patient"])
            if matcher is None:
                continue
            published_at = record.sent
            matched_by = arrivals.get(key, NEVER)
            for sub_id in matcher.match_batch_ids([record.attrs])[0]:
                rule = self.records[sub_id - 1]
                required, allowed = expected[rule.holder]
                if (rule.add_confirmed <= published_at
                        and rule.remove_sent >= matched_by):
                    required.add(key)
                if (rule.add_sent <= matched_by
                        and rule.remove_confirmed >= published_at):
                    allowed.add(key)
        return expected


TRAFFIC: dict[str, type[Traffic]] = {
    "ward-capacity": WardCapacity,
    "alarm-fanout": AlarmFanout,
    "rule-dense": RuleDense,
}
