"""In-memory span recording around the cell's layer entry points.

The traced launcher (:mod:`wardbench.cell`) wraps each layer's public entry
point at class level before the cell starts.  Every call becomes one span:
name, start, end and the span that was open when it began (its parent).
The cell is single-threaded, so one stack of open spans gives the tree.

Spans live in flat arrays while the cell runs and are written out once, at
exit; :func:`self_times` then turns them into per-layer self time.  A
span's self time is its duration minus the part of it its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import Counter
from typing import Callable, Sequence

#: Each traced entry point: (module, class, attribute, span name).
#: Attributes of one class that share a span name are one layer call,
#: e.g. ``Proxy.deliver`` and ``Proxy.deliver_batch``.
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.transport.udp", "UdpTransport", "on_readable",
     "transport.udp.recv"),
    ("repro.transport.base", "Transport", "send", "transport.udp.send"),
    ("repro.transport.packets", "Packet", "decode",
     "transport.packets.decode"),
    ("repro.transport.packets", "Packet", "encode",
     "transport.packets.encode"),
    ("repro.transport.reliability", "ReliableChannel", "handle_packet",
     "transport.reliability.handle"),
    ("repro.transport.reliability", "ReliableChannel", "send",
     "transport.reliability.send"),
    ("repro.core.proxy", "Proxy", "on_payload", "core.proxy.ingest"),
    ("repro.core.proxy", "Proxy", "deliver", "core.proxy.deliver"),
    ("repro.core.proxy", "Proxy", "deliver_batch", "core.proxy.deliver"),
    ("repro.core.bus", "EventBus", "publish", "core.bus.dispatch"),
    ("repro.core.bus", "EventBus", "publish_batch", "core.bus.dispatch"),
    ("repro.core.bus", "DeliverMemo", "deliver_frame", "core.bus.encode"),
    ("repro.matching.engine", "MatchingEngine", "match", "matching.match"),
    ("repro.matching.engine", "MatchingEngine", "match_batch_ids",
     "matching.match"),
    ("repro.matching.engine", "MatchingEngine", "subscribe",
     "matching.subscribe"),
    ("repro.matching.engine", "MatchingEngine", "unsubscribe",
     "matching.subscribe"),
    ("repro.core.sharding", "ShardedMatcher", "build_plans",
     "core.sharding.plan"),
    ("repro.core.sharding", "ShardedMatcher", "merge_plan_results",
     "core.sharding.plan"),
    ("repro.core.workers", "WorkerPoolExecutor", "execute",
     "core.workers.execute"),
    ("repro.deploy.edge", "BackpressureGuard", "sweep", "deploy.edge.sweep"),
)


class Tracer:
    """Records spans for wrapped callables; one instance per cell process."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        #: Free-form event counts (e.g. decoded packets by type); the
        #: launcher snapshots them at each window mark.
        self.counts: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, owner: type, attr: str, name: str,
             on_result: Callable[[object], None] | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Works for plain methods and classmethods defined on ``owner``;
        subclasses that do not override ``attr`` inherit the wrapper.
        """
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        name_id = self.name_id(name)
        clock = self.clock
        stack = self._stack
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def dump(self, path: str, marks: Sequence[float],
             mark_counts: Sequence[dict[str, int]]) -> None:
        """Write the spans (binary arrays) plus a JSON header to ``path``."""
        header = json.dumps({
            "names": self.names, "spans": len(self.span_start),
            "marks": list(marks), "mark_counts": list(mark_counts),
        }).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(len(header).to_bytes(8, "little"))
            handle.write(header)
            for column in (self.span_name, self.span_parent, self.span_start,
                           self.span_end):
                column.tofile(handle)


def install(tracer: Tracer) -> None:
    """Wrap every entry point; decoded and encoded packets are counted by
    :class:`~repro.transport.packets.PacketType` (``decode.<TYPE>`` and
    ``encode.<TYPE>``), and standalone DELIVER encodes as ``deliver_encodes``.
    """
    from repro.core import protocol
    from repro.transport.packets import Packet

    counts = tracer.counts
    for module_name, class_name, attr, name in ENTRY_POINTS:
        owner = getattr(importlib.import_module(module_name), class_name)
        on_result = None
        if owner is Packet and attr == "decode":
            def on_result(packet) -> None:
                counts["decode." + packet.type.name] += 1
        tracer.wrap(owner, attr, name, on_result)

    # Packet.encode returns bytes, so its type is read from the instance.
    traced_encode = Packet.encode

    def counted_encode(self):
        counts["encode." + self.type.name] += 1
        return traced_encode(self)

    Packet.encode = counted_encode

    # DeliverMemo reuses one encoding across a fan-out; the module-level
    # encoder runs once per memo miss, which is what encode_reuse divides.
    original_frame = protocol.deliver_frame

    def counted_frame(event):
        counts["deliver_encodes"] += 1
        return original_frame(event)

    protocol.deliver_frame = counted_frame


class SpanSet:
    """Spans read back from a :meth:`Tracer.dump` file (or built in tests)."""

    def __init__(self, names: Sequence[str], name_ids: Sequence[int],
                 parents: Sequence[int], starts: Sequence[float],
                 ends: Sequence[float], marks: Sequence[float] = (),
                 mark_counts: Sequence[dict[str, int]] = ()) -> None:
        self.names = list(names)
        self.name_ids = name_ids
        self.parents = parents
        self.starts = starts
        self.ends = ends
        self.marks = list(marks)
        self.mark_counts = list(mark_counts)

    @classmethod
    def load(cls, path: str) -> "SpanSet":
        with open(path, "rb") as handle:
            size = int.from_bytes(handle.read(8), "little")
            header = json.loads(handle.read(size).decode("utf-8"))
            count = header["spans"]
            columns = []
            for typecode in ("i", "i", "d", "d"):
                column = array(typecode)
                column.fromfile(handle, count)
                columns.append(column)
        return cls(header["names"], *columns, marks=header["marks"],
                   mark_counts=header["mark_counts"])

    def window_counts(self) -> dict[str, int]:
        """Count deltas between the first two marks."""
        if len(self.mark_counts) < 2:
            return {}
        first, last = self.mark_counts[0], self.mark_counts[1]
        return {key: last.get(key, 0) - first.get(key, 0)
                for key in set(first) | set(last)}


class LayerTotals:
    """Self time and call counts per span name over a time window."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        #: Spans not nested inside a span of the same name.
        self.calls: dict[str, int] = {}

    def self_us(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1e6

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)


def self_times(spans: SpanSet, window: tuple[float, float] | None = None
               ) -> LayerTotals:
    """Sum each span name's self time over spans that start in ``window``.

    Self time is duration minus the time covered by direct children.
    Children always start after, and end before, their parent (one
    thread, one stack), so the covered time is the sum of their
    durations.
    """
    count = len(spans.starts)
    child_s = [0.0] * count
    starts, ends, parents = spans.starts, spans.ends, spans.parents
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            child_s[parent] += ends[index] - starts[index]
    lo, hi = window if window is not None else (float("-inf"), float("inf"))
    totals = LayerTotals()
    names, name_ids = spans.names, spans.name_ids
    self_s = [0.0] * len(names)
    calls = [0] * len(names)
    for index in range(count):
        if not lo <= starts[index] < hi:
            continue
        name_id = name_ids[index]
        self_s[name_id] += ends[index] - starts[index] - child_s[index]
        parent = parents[index]
        if parent < 0 or name_ids[parent] != name_id:
            calls[name_id] += 1
    for name_id, name in enumerate(names):
        totals.self_s[name] = self_s[name_id]
        totals.calls[name] = calls[name_id]
    return totals

