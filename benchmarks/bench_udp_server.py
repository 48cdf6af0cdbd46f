"""Deployment-mode harness: 100+ real client sockets against one cell.

Unlike the simulation benchmarks, this one runs on the wall clock and
real loopback UDP — it is the measurement the paper's prototype chapter
describes, scaled to the deployment layer: N devices (each with its own
socket) join a :class:`~repro.deploy.server.CellServer` by rendezvous,
publish vitals through the bus, survive a degraded/recovery cycle, and
leave.  Assertions are deliberately conservative (loopback on a loaded
CI box), but the membership count and the throughput floor are hard:
the deployment layer must sustain at least 100 concurrent members
through the full discovery lifecycle.
"""

import time

import pytest

from repro.core.events import MEMBER_STATE_TYPE
from repro.deploy import CellServer, ServerConfig, make_devices, read_healthz
from repro.discovery.lifecycle import LifecycleState
from repro.matching.filters import Filter
from repro.smc.cell import CellConfig

CLIENTS = 100
JOIN_TIMEOUT_S = 60.0
PUBLISH_WINDOW_S = 2.0
THROUGHPUT_FLOOR_EPS = 200.0      # events/s; loopback does thousands


@pytest.fixture
def server():
    config = ServerConfig(
        cell=CellConfig(cell_name="bench-ward",
                        beacon_period_s=0.2, heartbeat_period_s=0.2,
                        purge_after_s=4.0,
                        sweep_period_s=0.2),
        discovery_port=0,
        max_members=CLIENTS + 1,
        guard_period_s=0.25,
    )
    cell_server = CellServer(config)
    cell_server.start()
    yield cell_server
    cell_server.close()


def pump(server, condition, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        server.run_for(0.05)
        if condition():
            return True
    return condition()


def test_hundred_clients_full_lifecycle(server, benchmark):
    devices = make_devices(server.scheduler, server.address, CLIENTS,
                           announce_retry_s=0.25, beacon_timeout_s=30.0)
    subscriber = make_devices(server.scheduler, server.address, 1,
                              name_prefix="display",
                              announce_retry_s=0.25,
                              beacon_timeout_s=30.0)[0]
    all_devices = devices + [subscriber]
    try:
        # -- join: every socket through announce -> admit ------------------
        join_started = time.monotonic()
        for device in all_devices:
            device.start()
        assert pump(server, lambda: all(d.joined for d in all_devices),
                    JOIN_TIMEOUT_S), (
            f"only {sum(d.joined for d in all_devices)}/{len(all_devices)} "
            f"joined within {JOIN_TIMEOUT_S}s")
        join_s = time.monotonic() - join_started
        assert pump(server,
                    lambda: len(server.cell.bus.members()) == len(all_devices),
                    10.0), "proxies missing after join"

        got = []
        subscriber.subscribe(Filter.where("vitals.hr", hr=(">", 120)),
                             got.append)
        assert pump(server,
                    lambda: server.cell.bus.stats.subscriptions_active >= 1,
                    5.0)

        # -- publish window ------------------------------------------------
        published = 0
        deadline = time.monotonic() + PUBLISH_WINDOW_S
        while time.monotonic() < deadline:
            for device in devices:
                if device.publish("vitals.hr",
                                  {"hr": 140.0, "patient": device.name}):
                    published += 1
            server.run_for(0.02)
        assert pump(server, lambda: len(got) >= published, 20.0), (
            f"delivered {len(got)}/{published} within the drain window")
        rate = published / PUBLISH_WINDOW_S
        assert rate >= THROUGHPUT_FLOOR_EPS, (
            f"throughput floor: {rate:.0f} ev/s < {THROUGHPUT_FLOOR_EPS}")

        # -- healthz over real TCP ----------------------------------------
        snapshot = read_healthz(server.healthz_address,
                                pump=lambda: server.run_for(0.2))
        assert snapshot["member_count"] == len(all_devices)
        assert snapshot["bus"]["matched"] >= published
        assert snapshot["edge"]["capacity_rejections"] == 0

        # -- silence -> DEGRADED -> recovery ------------------------------
        quiet = devices[0]
        transitions = []
        server.cell.bus.subscribe_local(
            Filter.where(MEMBER_STATE_TYPE, member=int(quiet.service_id)),
            lambda e: transitions.append((e.get("previous"), e.get("state"))))
        quiet.agent._cancel_timers()           # mute heartbeats only
        table = server.cell.discovery.table
        assert pump(server,
                    lambda: (record := table.get(quiet.service_id)) is not None
                    and record.lifecycle is LifecycleState.DEGRADED,
                    10.0), "muted device never went DEGRADED"
        quiet.agent._start_heartbeats(0.2)     # resume before purge
        assert pump(server,
                    lambda: (record := table.get(quiet.service_id)) is not None
                    and record.lifecycle is LifecycleState.HEALTHY,
                    10.0), "degraded device never recovered"
        assert pump(server, lambda: ("degraded", "healthy") in transitions,
                    10.0), f"no DEGRADED -> HEALTHY event: {transitions}"

        # -- polite drain: LEAVE all, then one purge by timeout -----------
        straggler = devices[1]
        straggler.agent._cancel_timers()       # goes silent, gets purged
        for device in all_devices:
            if device is not straggler:
                device.leave()
        assert pump(server, lambda: len(table) == 0, 30.0), (
            f"{len(table)} members remain after drain")
        assert server.cell.discovery.stats.purges == len(all_devices)
        assert server.cell.discovery.stats.leaves == len(all_devices) - 1

        benchmark.extra_info["clients"] = len(all_devices)
        benchmark.extra_info["join_s"] = round(join_s, 2)
        benchmark.extra_info["publish_rate_eps"] = round(rate, 0)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    finally:
        for device in all_devices:
            device.close()
