"""SMC federation: import, aggregation, loops, duplicates, purge survival."""

import pytest

from repro.devices.actuators import ManualSensor
from repro.devices.protocols import HeartRateProtocol
from repro.errors import FederationError
from repro.matching.filters import Constraint, Filter, Op
from repro.sim.hosts import LAPTOP_PROFILE, PDA_PROFILE, SENSOR_PROFILE
from repro.smc.cell import CellConfig, SelfManagedCell
from repro.smc.federation import FederationLink, aggregate_filters
from repro.transport.endpoint import PacketEndpoint
from repro.transport.simnet import SimTransport


class TestAggregation:
    def test_covered_filters_dropped(self):
        broad = Filter([Constraint("type", Op.PREFIX, "health.")])
        narrow = Filter([Constraint("type", Op.EQ, "health.hr")])
        assert aggregate_filters([narrow, broad]) == [broad]
        assert aggregate_filters([broad, narrow]) == [broad]

    def test_unrelated_filters_kept(self):
        a = Filter.where("health.hr")
        b = Filter.where("smc.member.new")
        assert set(aggregate_filters([a, b])) == {a, b}

    def test_duplicates_collapse(self):
        a = Filter.where("health.hr")
        assert aggregate_filters([a, Filter.where("health.hr")]) == [a]


@pytest.fixture
def two_cells(sim, simnet):
    """patient cell + clinic cell + a sensor in the patient cell."""
    simnet.add_node("pda-a", profile=PDA_PROFILE)
    simnet.add_node("pc-b", profile=LAPTOP_PROFILE)
    cell_a = SelfManagedCell(SimTransport(simnet, "pda-a"), sim,
                             CellConfig(cell_name="patient",
                                        patient="p-1", purge_after_s=4.0))
    cell_b = SelfManagedCell(SimTransport(simnet, "pc-b"), sim,
                             CellConfig(cell_name="clinic", patient="-"))

    def endpoint(name):
        simnet.add_node(name, profile=SENSOR_PROFILE)
        return PacketEndpoint(SimTransport(simnet, name), sim)

    sensor = ManualSensor(endpoint("hr-1"), sim, "hr-1", "sensor.hr",
                          target_cell="patient")
    link = FederationLink(cell_b, endpoint("fed-link"), sim,
                          [Filter.where("health.hr")],
                          peer_cell_name="patient")
    cell_a.start()
    cell_b.start()
    sensor.start()
    link.start()
    sim.run(4.0)
    assert link.connected and sensor.joined
    return cell_a, cell_b, sensor, link


class TestImport:
    def test_matching_events_imported_with_metadata(self, sim, two_cells):
        cell_a, cell_b, sensor, link = two_cells
        got = []
        cell_b.subscribe(Filter.where("health.hr"), got.append)
        sensor.send_reading(HeartRateProtocol("p-1").encode_reading(140.0))
        sim.run(sim.now() + 8.0)
        assert len(got) == 1
        event = got[0]
        assert event.get("hr") == 140.0
        assert event.get("fed.path") == "patient>clinic"
        assert event.get("fed.origin")
        assert link.stats.imported == 1

    def test_non_matching_events_stay_home(self, sim, two_cells):
        cell_a, cell_b, sensor, link = two_cells
        got = []
        cell_b.subscribe(Filter.for_type_prefix("health."), got.append)
        cell_a.publisher("svc").publish("health.temp", {"celsius": 37.0})
        sim.run(sim.now() + 5.0)
        assert got == []

    def test_no_import_loop_between_peered_cells(self, sim, simnet,
                                                 two_cells):
        cell_a, cell_b, sensor, link_ab = two_cells
        # Peer the other way too: patient imports hr events from clinic.
        simnet.add_node("fed-link-2", profile=SENSOR_PROFILE)
        link_ba = FederationLink(
            cell_a, PacketEndpoint(SimTransport(simnet, "fed-link-2"), sim),
            sim, [Filter.where("health.hr")], peer_cell_name="clinic")
        link_ba.start()
        sim.run(sim.now() + 6.0)
        assert link_ba.connected

        before_a = cell_a.bus.stats.published
        sensor.send_reading(HeartRateProtocol("p-1").encode_reading(150.0))
        sim.run(sim.now() + 15.0)
        # The event visited the clinic once and was NOT re-imported home.
        assert link_ba.stats.suppressed_loops >= 1
        # No publication storm in the patient cell.
        assert cell_a.bus.stats.published - before_a < 10

    def test_duplicate_suppression_by_origin(self, sim, two_cells):
        cell_a, cell_b, sensor, link = two_cells
        got = []
        cell_b.subscribe(Filter.where("health.hr"), got.append)
        # Inject the same origin event twice through the import callback
        # (as two redundant paths would).
        from repro.core.events import Event
        from repro.ids import service_id_from_name
        event = Event("health.hr", {"hr": 99.0},
                      service_id_from_name("origin-x"), 7, 0.0)
        link._on_imported(event)
        link._on_imported(event)
        sim.run(sim.now() + 1.0)    # cells keep beaconing: bounded run
        assert len(got) == 1
        assert link.stats.suppressed_duplicates == 1

    def test_link_needs_imports(self, sim, two_cells, simnet):
        cell_a, cell_b, *_ = two_cells
        simnet.add_node("empty-link", profile=SENSOR_PROFILE)
        with pytest.raises(FederationError):
            FederationLink(cell_b,
                           PacketEndpoint(SimTransport(simnet, "empty-link"),
                                          sim),
                           sim, [])

    def test_survives_purge_and_rejoin(self, sim, simnet, two_cells):
        cell_a, cell_b, sensor, link = two_cells
        got = []
        cell_b.subscribe(Filter.where("health.hr"), got.append)

        # Partition the link node from the patient cell long enough to be
        # purged, then heal.
        simnet.set_link_blocked("pda-a", "fed-link", True)
        sim.run(sim.now() + 10.0)
        assert not cell_a.bus.is_member(link.client.service_id)
        simnet.set_link_blocked("pda-a", "fed-link", False)
        sim.run(sim.now() + 10.0)
        assert link.connected

        sensor.send_reading(HeartRateProtocol("p-1").encode_reading(155.0))
        sim.run(sim.now() + 10.0)
        assert [e.get("hr") for e in got] == [155.0]
