"""Cell launcher: one ``CellServer`` on loopback UDP, as its own process.

Run by :mod:`wardbench.run`, never by hand::

    python3 wardbench/cell.py --workload ward-capacity [--spans FILE]

It prints one JSON line with the cell's addresses and pid, then serves
until stdin says ``stop`` or closes.  ``mark`` on stdin records a window
boundary.  With ``--spans`` the launcher wraps the layer entry points of
:data:`wardbench.tracing.ENTRY_POINTS` before the cell starts and writes
the recorded spans to FILE at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.deploy import CellServer, ServerConfig  # noqa: E402
from repro.sim.kernel import RealtimeScheduler  # noqa: E402
from repro.smc.cell import CellConfig  # noqa: E402

from wardbench.tracing import Tracer, install  # noqa: E402
from wardbench.workloads import WORKLOADS  # noqa: E402


class StdinControl:
    """Selector pollable for the launcher's command pipe."""

    def __init__(self, server: CellServer, tracer: Tracer | None) -> None:
        self.server = server
        self.tracer = tracer
        self.marks: list[float] = []
        self.mark_counts: list[dict[str, int]] = []
        self._buffer = b""

    def fileno(self) -> int:
        return sys.stdin.fileno()

    def on_readable(self) -> None:
        chunk = os.read(self.fileno(), 4096)
        if not chunk:
            self.server.stop()
            return
        self._buffer += chunk
        *lines, self._buffer = self._buffer.split(b"\n")
        for line in lines:
            command = line.strip()
            if command == b"mark":
                self.marks.append(self.server.scheduler.now())
                if self.tracer is not None:
                    self.mark_counts.append(dict(self.tracer.counts))
            elif command == b"stop":
                self.server.stop()


def build_server(workload: str, scheduler: RealtimeScheduler) -> CellServer:
    spec = WORKLOADS[workload]
    return CellServer(ServerConfig(
        cell=CellConfig(cell_name=f"wardbench-{workload}",
                        shards=spec.shards),
        discovery_port=0, workers=spec.workers), scheduler=scheduler)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--spans", default=None,
                        help="trace the cell and write its spans here")
    args = parser.parse_args()

    scheduler = RealtimeScheduler()
    tracer = None
    if args.spans is not None:
        tracer = Tracer(scheduler.now)
        install(tracer)
    server = build_server(args.workload, scheduler)
    control = StdinControl(server, tracer)
    server.start()
    server.scheduler.register_pollable(control)
    print(json.dumps({"pid": os.getpid(), "address": list(server.address),
                      "healthz": list(server.healthz_address)}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.close()
    if tracer is not None:
        tracer.dump(args.spans, control.marks, control.mark_counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
