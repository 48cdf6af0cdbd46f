#!/usr/bin/env python3
"""Deployment mode: the SMC cell on real UDP sockets and wall-clock time.

Every other example runs on the virtual clock — the Simulator dispatches
timers instantly and SimTransport moves datagrams in-process.  This one
runs the *same* cell (same EventBus, same DiscoveryService, same policy
and autonomic planes) on the paper's actual deployment configuration:
real UDP sockets with OS-chosen ports, driven by a RealtimeScheduler
whose selector loop interleaves wall-clock timers with socket reads.
That symmetry is the point of the scheduler abstraction: nothing in the
protocol stack knows which clock it is on.

What this demo stands up, all on loopback:

* a :class:`~repro.deploy.server.CellServer` — the cell core with edge
  admission (capacity NAKs), per-peer backpressure sweeps and a healthz
  TCP endpoint serving live JSON snapshots;
* N :class:`~repro.deploy.harness.LoopbackDevice` clients, each with its
  own real UDP socket, joining by rendezvous (loopback has no broadcast
  domain; the server's directed beacons keep them fed after admission);
* a pub/sub workload: every device publishes heart-rate vitals, one
  subscriber device holds an alert rule, and the tachycardia events flow
  device → cell → matching engine → proxy → device over real sockets.

Run:  PYTHONPATH=src python examples/udp_cell.py [--clients N]
          [--duration SECONDS] [--batch N] [--shards N] [--workers N]
          [--selftest]

``--batch N`` makes every sensor coalesce N readings into one BATCH
frame (the client-harness half of the batch pipeline); ``--shards`` /
``--workers`` stand the cell up on a sharded bus with that many match
worker processes.  ``--selftest`` asserts full membership and a
throughput floor, then drains the cell with polite LEAVEs — this is what
the CI smoke job runs with 100 clients.
"""

import argparse
import sys
import time

from repro.deploy import CellServer, ServerConfig, make_devices, read_healthz
from repro.matching.filters import Filter
from repro.smc.cell import CellConfig


def build_server(max_members: int, shards: int = 1,
                 workers: int = 0) -> CellServer:
    config = ServerConfig(
        cell=CellConfig(
            cell_name="udp-ward",
            beacon_period_s=0.2,
            heartbeat_period_s=0.2,
            purge_after_s=8.0,
            sweep_period_s=0.25,
            shards=shards,
        ),
        discovery_port=0,          # OS-chosen: no collisions between runs
        max_members=max_members,
        guard_period_s=0.25,
        workers=workers,
    )
    return CellServer(config)


def wait_until(server: CellServer, condition, timeout_s: float) -> bool:
    """Pump the run loop until ``condition()`` holds (or the deadline)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        server.run_for(0.05)
        if condition():
            return True
    return condition()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=10,
                        help="device sockets to join (default 10)")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="publishing phase length in seconds")
    parser.add_argument("--batch", type=int, default=0,
                        help="readings each sensor coalesces into one "
                             "BATCH frame (0 = one packet per reading)")
    parser.add_argument("--shards", type=int, default=1,
                        help="matching shards on the cell core")
    parser.add_argument("--workers", type=int, default=0,
                        help="match worker processes (requires --shards > 1)")
    parser.add_argument("--selftest", action="store_true",
                        help="assert membership and throughput, exit 1 on "
                             "failure (CI mode)")
    args = parser.parse_args()

    server = build_server(max_members=args.clients + 1,
                          shards=args.shards, workers=args.workers)
    server.start()
    print(f"cell core on udp {server.address[0]}:{server.address[1]}, "
          f"healthz on http://{server.healthz_address[0]}:"
          f"{server.healthz_address[1]}/")

    # One extra device acts as the nurse display: it subscribes to the
    # alert rule every sensor's vitals are matched against.
    devices = make_devices(server.scheduler, server.address,
                           args.clients + 1, announce_retry_s=0.2,
                           batch=args.batch)
    sensors, display = devices[:-1], devices[-1]
    for device in devices:
        device.start()

    if not wait_until(server, lambda: all(d.joined for d in devices),
                      timeout_s=30.0):
        joined = sum(d.joined for d in devices)
        print(f"FAIL: only {joined}/{len(devices)} devices joined",
              file=sys.stderr)
        return 1
    # Proxy creation rides the New Member event; wait for the bus side.
    wait_until(server, lambda: len(server.cell.bus.members()) == len(devices),
               timeout_s=10.0)
    print(f"{len(devices)} devices joined "
          f"({len(server.cell.bus.members())} proxies live)")

    alerts: list = []
    display.subscribe(Filter.where("vitals.hr", hr=(">", 120)),
                      alerts.append)
    wait_until(server,
               lambda: server.cell.bus.stats.subscriptions_active >= 1,
               timeout_s=5.0)

    # Publishing phase: every sensor alternates normal and tachycardic
    # readings; only the latter should reach the display.  With --batch,
    # readings buffer client-side and ride BATCH frames.
    deadline = time.monotonic() + args.duration
    beat = 0
    while time.monotonic() < deadline:
        for index, sensor in enumerate(sensors):
            hr = 140.0 if (beat + index) % 2 == 0 else 80.0
            sensor.publish("vitals.hr", {"hr": hr, "patient": sensor.name})
        beat += 1
        server.run_for(0.02)
    for sensor in sensors:
        sensor.flush()                     # partial buffers out the door
    # ClientStats counts what actually left each socket, batched or not.
    published = sum(sensor.client.stats.published for sensor in sensors)
    # Drain phase: let retransmissions and deliveries settle.
    expected_alerts = published // 2       # every other reading is > 120
    wait_until(server, lambda: len(alerts) >= expected_alerts,
               timeout_s=10.0)

    snapshot = read_healthz(server.healthz_address,
                            pump=lambda: server.run_for(0.2))
    rate = published / max(args.duration, 1e-9)
    print(f"published {published} events in {args.duration:.1f}s "
          f"({rate:.0f}/s), {len(alerts)} alerts delivered")
    print(f"healthz: members={snapshot['member_count']} "
          f"bus.matched={snapshot['bus']['matched']} "
          f"channels.retransmissions="
          f"{snapshot['channels']['retransmissions']}")
    if "workers" in snapshot:
        pool = snapshot["workers"]
        print(f"workers: alive={sum(pool['alive'])}/{pool['workers']} "
              f"plans={pool['plans']} respawns={pool['respawns']} "
              f"ipc_out={pool['ipc_bytes_out']}B "
              f"events={pool['worker_events']}")

    failures = []
    if args.selftest:
        if snapshot["member_count"] != len(devices):
            failures.append(f"membership {snapshot['member_count']} != "
                            f"{len(devices)}")
        if published < 50:
            failures.append(f"throughput floor: published only {published} "
                            f"events in {args.duration:.1f}s")
        if len(alerts) < expected_alerts:
            failures.append(f"deliveries: {len(alerts)} alerts < "
                            f"{expected_alerts} expected")

    # Clean shutdown: polite LEAVEs drain the membership table.
    for device in devices:
        device.leave()
    wait_until(server, lambda: len(server.cell.discovery.table) == 0,
               timeout_s=10.0)
    remaining = len(server.cell.discovery.table)
    print(f"after LEAVE drain: {remaining} members remain")
    if args.selftest and remaining:
        failures.append(f"{remaining} members survived the LEAVE drain")

    for device in devices:
        device.close()
    server.close()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if args.selftest:
        print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
