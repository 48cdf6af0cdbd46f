"""The three workloads and their seeded inputs.

Every input is a pure function of ``--seed``.  The cell receives only the
generated events and subscriptions.

* ``ward-capacity`` (closed loop): 8 sensors publish the
  ``ban_monitoring_mix`` one event per datagram, a ward logger subscribes to
  ``health*``, and 32 events are outstanding across the ward.  Fan-out 1
  and trivial matching leave the per-datagram path: socket I/O, codec,
  reliable channel, ingest, dispatch and deliver encode.
* ``alarm-fanout`` (open loop): the same mix at 600 ev/s on a 5 ms
  schedule, delivered to 8 nurse stations.  It loads the deliver side at
  nominal load, where latency is what a ward notices.
* ``rule-dense`` (closed loop): 2 gateways publish BATCH frames of 16
  full 8-vital packs against 10k per-patient band-alert rules held by 4
  rule holders, on a cell with 4 shards and 2 match workers, while the
  holders replace 50 rules/s.  Matching, plan building and worker IPC do
  almost all of the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.workloads import ban_monitoring_mix
from repro.matching.filters import Constraint, Filter, Op
from repro.sim.rng import RngRegistry
from repro.transport.wire import Value


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: Cell layout (CellConfig.shards, ServerConfig.workers).
    shards: int = 1
    workers: int = 0


WORKLOADS = {spec.name: spec for spec in (
    WorkloadSpec("ward-capacity"),
    WorkloadSpec("alarm-fanout"),
    WorkloadSpec("rule-dense", shards=4, workers=2),
)}

SENSORS = 8
STATIONS = 8
WARD_OUTSTANDING = 32
FANOUT_RATE = 600.0
FANOUT_TICK_S = 0.005
GATEWAYS = 2
HOLDERS = 4
PACKS_PER_BATCH = 16
BATCHES_OUTSTANDING = 4
RULES = 10_000
PATIENTS = 50
CHURN_PER_S = 50.0
PACK_TYPE = "vitals.pack"

#: The vitals and value ranges of the band-rule/vitals-pack shape in
#: ``benchmarks/bench_workers.py``, fixed here so the benchmark's inputs
#: do not move when that bench does.
VITALS = ("hr", "temp", "spo2", "bp_sys", "bp_dia", "resp", "glucose",
          "battery")
VITAL_RANGES = {"hr": (40, 180), "temp": (35.0, 42.0), "spo2": (80, 100),
                "bp_sys": (90, 200), "bp_dia": (50, 130), "resp": (8, 40),
                "glucose": (50, 250), "battery": (0, 100)}
#: Normal readings per vital (mean, standard deviation).  Rules sit
#: 2.5-5 deviations out, so normal packs rarely trip them.
VITAL_NORMS = {"hr": (75.0, 8.0), "temp": (36.8, 0.3), "spo2": (96.0, 1.5),
               "bp_sys": (120.0, 10.0), "bp_dia": (78.0, 7.0),
               "resp": (16.0, 2.5), "glucose": (100.0, 15.0),
               "battery": (60.0, 12.0)}

Stream = list[tuple[str, dict[str, Value]]]


def sensor_streams(seed: int, sensors: int, per_sensor: int) -> list[Stream]:
    """One ``ban_monitoring_mix`` stream per sensor."""
    registry = RngRegistry(seed)
    return [ban_monitoring_mix(registry.fork(f"sensor-{index}"), per_sensor)
            for index in range(sensors)]


def _patient(index: int) -> str:
    return f"p{index:03d}"


def pack_streams(seed: int, gateways: int, per_gateway: int) -> list[Stream]:
    """Full 8-vital packs with distinct float readings, per gateway."""
    streams = []
    for gateway in range(gateways):
        rng = RngRegistry(seed).stream(f"packs-{gateway}")
        stream: Stream = []
        for _ in range(per_gateway):
            attrs: dict[str, Value] = {"patient": _patient(
                rng.randrange(PATIENTS))}
            for vital in VITALS:
                lo, hi = VITAL_RANGES[vital]
                mean, sd = VITAL_NORMS[vital]
                attrs[vital] = min(hi, max(lo, rng.gauss(mean, sd)))
            stream.append((PACK_TYPE, attrs))
        streams.append(stream)
    return streams


@dataclass(frozen=True)
class BandRule:
    """``patient == P and lo < vital < hi``: one per-patient band alert."""

    patient: str
    vital: str
    lo: float
    hi: float

    def to_filter(self) -> Filter:
        return Filter([Constraint("patient", Op.EQ, self.patient),
                       Constraint(self.vital, Op.GT, self.lo),
                       Constraint(self.vital, Op.LT, self.hi)])


def band_rule(rng: random.Random, vital: str) -> BandRule:
    """A 2%-of-range band placed in one tail of the vital's normal range."""
    lo, hi = VITAL_RANGES[vital]
    mean, sd = VITAL_NORMS[vital]
    width = (hi - lo) * 0.02
    offset = rng.uniform(2.5, 5.0) * sd
    if rng.random() < 0.5:
        band_lo = mean + offset
    else:
        band_lo = mean - offset - width
    return BandRule(_patient(rng.randrange(PATIENTS)), vital, band_lo,
                    band_lo + width)


def holder_rules(seed: int) -> list[list[BandRule]]:
    """The initial 10k rules, dealt round-robin to the holders."""
    rng = RngRegistry(seed).stream("rules")
    rules: list[list[BandRule]] = [[] for _ in range(HOLDERS)]
    for index in range(RULES):
        vital = VITALS[index % len(VITALS)]
        rules[index % HOLDERS].append(band_rule(rng, vital))
    return rules


def churn_rules(seed: int, count: int) -> list[BandRule]:
    """Replacement rules, in the order the churn installs them."""
    rng = RngRegistry(seed).stream("churn")
    return [band_rule(rng, VITALS[index % len(VITALS)])
            for index in range(count)]
