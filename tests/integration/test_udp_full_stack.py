"""The full SMC stack over real UDP sockets on loopback.

This is the paper's actual deployment configuration (Section IV): UDP
datagrams, OS-chosen ports, broadcast on a known discovery port (stood in
by a peer list on loopback).  Driven by polling so the test stays
single-threaded; wall-clock timers come from the RealtimeScheduler.
"""

import time

import pytest

from repro.core.bus import EventBus
from repro.core.bootstrap import ProxyBootstrap
from repro.core.client import BusClient
from repro.discovery.agent import AgentConfig, DiscoveryAgent
from repro.discovery.service import DiscoveryConfig, DiscoveryService
from repro.matching.filters import Filter
from repro.sim.kernel import RealtimeScheduler
from repro.transport.endpoint import PacketEndpoint
from repro.transport.udp import UdpTransport


@pytest.fixture
def udp_cell():
    """A cell core + two device transports, all on real loopback UDP."""
    scheduler = RealtimeScheduler()
    core_t = UdpTransport()
    dev_t = UdpTransport()
    sub_t = UdpTransport()
    # Loopback has no broadcast: the device list stands in for the domain.
    core_t.set_broadcast_peers([dev_t.local_address, sub_t.local_address])

    core_ep = PacketEndpoint(core_t, scheduler)
    bus = EventBus(scheduler, name="udp-cell-bus")
    bootstrap = ProxyBootstrap(bus, core_ep)
    discovery = DiscoveryService(
        bus, core_ep, scheduler,
        DiscoveryConfig(cell_name="udp-cell", beacon_period_s=0.05,
                        heartbeat_period_s=0.05,
                        purge_after_s=30.0, sweep_period_s=0.5))

    transports = [core_t, dev_t, sub_t]

    def pump(condition, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            scheduler.run_for(0.01)
            for transport in transports:
                transport.poll()
            if condition():
                return True
        return False

    yield scheduler, bus, discovery, dev_t, sub_t, pump
    for transport in transports:
        transport.close()


class TestUdpFullStack:
    def test_discovery_and_pubsub_over_real_sockets(self, udp_cell):
        scheduler, bus, discovery, dev_t, sub_t, pump = udp_cell
        discovery.start()

        dev_ep = PacketEndpoint(dev_t, scheduler)
        sub_ep = PacketEndpoint(sub_t, scheduler)
        dev_agent = DiscoveryAgent(dev_ep, scheduler,
                                   AgentConfig(name="dev",
                                               device_type="service",
                                               announce_retry_s=0.05))
        sub_agent = DiscoveryAgent(sub_ep, scheduler,
                                   AgentConfig(name="sub",
                                               device_type="service",
                                               announce_retry_s=0.05))
        dev_client = BusClient(dev_ep, scheduler, bus_address=None)
        sub_client = BusClient(sub_ep, scheduler, bus_address=None)
        dev_agent.on_joined = lambda cell, addr: setattr(
            dev_client, "bus_address", addr)
        sub_agent.on_joined = lambda cell, addr: setattr(
            sub_client, "bus_address", addr)
        dev_agent.start()
        sub_agent.start()

        assert pump(lambda: dev_agent.joined and sub_agent.joined), \
            "devices failed to join over UDP"
        # Proxy creation rides a call_soon callback; give the loop a turn.
        assert pump(lambda: len(bus.members()) == 2), "proxies not created"

        got = []
        sub_client.subscribe(Filter.where("health.hr", hr=(">", 100)),
                             got.append)
        assert pump(lambda: bus.stats.subscriptions_active >= 1)

        dev_client.publish("health.hr", {"hr": 140.0, "patient": "p"})
        dev_client.publish("health.hr", {"hr": 80.0, "patient": "p"})
        dev_client.publish("health.hr", {"hr": 150.0, "patient": "p"})
        assert pump(lambda: len(got) == 2), f"got {len(got)} events"
        assert [e.get("hr") for e in got] == [140.0, 150.0]
        discovery.stop()

    def test_leave_over_real_sockets(self, udp_cell):
        scheduler, bus, discovery, dev_t, sub_t, pump = udp_cell
        discovery.start()
        dev_ep = PacketEndpoint(dev_t, scheduler)
        agent = DiscoveryAgent(dev_ep, scheduler,
                               AgentConfig(name="dev", device_type="service",
                                           announce_retry_s=0.05))
        agent.start()
        assert pump(lambda: agent.joined)
        member = dev_ep.service_id
        assert pump(lambda: bus.is_member(member))
        agent.stop()          # polite LEAVE
        assert pump(lambda: not bus.is_member(member))
        discovery.stop()
