"""Tests for ``nway(2)`` mirroring with read failover.

The paper scopes reliability out (§4.1, pointing at NRD [13] and RRMP
[15] for mirroring/parity); the redundancy layer's ``nway(2)`` policy
is that mirroring: synchronous writes to both copies and read failover
on top of the HPBD protocol.
"""

from __future__ import annotations

import pytest

from repro import HPBD, ScenarioConfig, TestswapWorkload, run_scenario
from repro.hpbd import HPBDClient, HPBDServer
from repro.kernel import Node
from repro.kernel.blockdev import Bio, READ, WRITE
from repro.simulator import Event, SimulationError
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def mirrored(sim, fabric):
    node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
    # 2 servers; each holds its 16 MiB share + the other's 16 MiB replica.
    servers = [
        HPBDServer(sim, fabric, f"mem{i}", store_bytes=32 * MiB,
                   stats=node.stats)
        for i in range(2)
    ]
    client = HPBDClient(
        sim, node, servers, total_bytes=32 * MiB, redundancy="nway(2)"
    )
    sim.run(until=sim.spawn(client.connect()))
    return node, servers, client


def do_io(sim, client, op, sector, nsectors):
    done = Event(sim)

    def proc(sim):
        client.queue.submit_bio(
            Bio(op=op, sector=sector, nsectors=nsectors, done=done)
        )
        client.queue.unplug()
        yield done
        return sim.now

    return sim.run(until=sim.spawn(proc(sim)))


class TestMirroredWrites:
    def test_write_lands_on_both_servers(self, sim, mirrored):
        _node, servers, client = mirrored
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        # Primary copy on server 0 (chunk 0), replica on server 1.
        assert servers[0].ramdisk.pages_stored == 1
        assert servers[1].ramdisk.pages_stored == 1
        # Replica lives in server 1's replica area (behind its share).
        t, _ = servers[1].ramdisk.read(16 * MiB, PAGE_SIZE)
        assert t[0] is not None

    def test_mirrored_write_doubles_physical_requests(self, sim, mirrored):
        _node, _servers, client = mirrored
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        assert client.stats.get("hpbd0.physical_requests").count == 2

    def test_buffer_released_only_after_both_acks(self, sim, mirrored):
        _node, _servers, client = mirrored
        do_io(sim, client, WRITE, sector=0, nsectors=256)
        assert client.pool.allocated_bytes == 0
        client.pool.check_invariants()

    def test_reads_are_not_duplicated(self, sim, mirrored):
        _node, _servers, client = mirrored
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        before = client.stats.get("hpbd0.physical_requests").count
        do_io(sim, client, READ, sector=0, nsectors=8)
        assert client.stats.get("hpbd0.physical_requests").count == before + 1

    def test_requires_two_servers(self, sim, fabric):
        node = Node(sim, fabric, "c", mem_bytes=16 * MiB)
        srv = HPBDServer(sim, fabric, "m", store_bytes=32 * MiB)
        with pytest.raises(ValueError, match="at least 2 servers"):
            HPBDClient(sim, node, [srv], total_bytes=8 * MiB,
                       redundancy="nway(2)")

    def test_store_must_cover_replica_area(self, sim, fabric):
        node = Node(sim, fabric, "c", mem_bytes=16 * MiB)
        servers = [
            HPBDServer(sim, fabric, f"m{i}", store_bytes=16 * MiB)
            for i in range(2)
        ]
        with pytest.raises(ValueError, match="replica"):
            HPBDClient(sim, node, servers, total_bytes=32 * MiB,
                       redundancy="nway(2)")


class TestReadFailover:
    def test_failed_primary_read_served_by_replica(self, sim, mirrored):
        """Shrink the primary's RamDisk after the write (simulating the
        primary losing its store); the read must transparently fail over
        to the replica and return the data."""
        _node, servers, client = mirrored
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        # Break the primary: its store "loses" everything.
        servers[0].ramdisk.size = 0
        t = do_io(sim, client, READ, sector=0, nsectors=8)
        assert t > 0  # completed despite the failure
        assert client.stats.get("hpbd0.failovers").count == 1
        assert servers[0].stats.get("mem0.errors").count == 1

    def test_double_failure_raises(self, sim, mirrored):
        _node, servers, client = mirrored
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        servers[0].ramdisk.size = 0
        servers[1].ramdisk.size = 0

        done = Event(sim)

        def proc(sim):
            client.queue.submit_bio(
                Bio(op=READ, sector=0, nsectors=8, done=done)
            )
            client.queue.unplug()
            yield done

        sim.spawn(proc(sim))
        with pytest.raises(SimulationError, match="server error"):
            sim.run()


class TestMirrorEndToEnd:
    def test_full_scenario_with_mirroring(self):
        cfg = ScenarioConfig(
            [TestswapWorkload(size_bytes=24 * MiB)],
            HPBD(nservers=2, redundancy="nway(2)"),
            mem_bytes=16 * MiB,
            swap_bytes=32 * MiB,
            mem_reserved_bytes=2 * MiB,
        )
        result = run_scenario(cfg)
        assert result.swapout_pages > 0

    def test_mirroring_overhead_visible_but_bounded(self):
        def run(mirror):
            cfg = ScenarioConfig(
                [TestswapWorkload(size_bytes=24 * MiB)],
                HPBD(nservers=2,
                     redundancy="nway(2)" if mirror else "none"),
                mem_bytes=16 * MiB,
                swap_bytes=32 * MiB,
                mem_reserved_bytes=2 * MiB,
            )
            return run_scenario(cfg)

        plain = run(False)
        mirrored = run(True)
        # Mirroring doubles outbound data; with HPBD's headroom the
        # run-time cost stays small but must not be negative.
        ratio = mirrored.slowdown_vs(plain)
        assert 1.0 <= ratio < 1.6
        assert (
            mirrored.network_bytes["rdma_read"]
            > 1.8 * plain.network_bytes["rdma_read"]
        )


class TestFailoverWithRegisterOnFly:
    @pytest.fixture
    def mirrored_otf(self, sim, fabric):
        """Mirrored pair using per-request registration (no pool)."""
        node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
        servers = [
            HPBDServer(sim, fabric, f"mem{i}", store_bytes=32 * MiB,
                       stats=node.stats)
            for i in range(2)
        ]
        client = HPBDClient(
            sim, node, servers, total_bytes=32 * MiB,
            redundancy="nway(2)", register_on_fly=True,
        )
        sim.run(until=sim.spawn(client.connect()))
        return node, servers, client

    def test_read_failover_targets_the_request_mr(self, sim, mirrored_otf):
        """Regression: the retry path used to address the registration
        pool unconditionally; under register-on-the-fly the data lives
        in the per-request MR and the pool entry is None — the failover
        must advertise the MR's addr/rkey instead."""
        _node, servers, client = mirrored_otf
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        servers[0].ramdisk.size = 0  # break the primary
        t = do_io(sim, client, READ, sector=0, nsectors=8)
        assert t > 0
        assert client.stats.get("hpbd0.failovers").count == 1
        client.audit_teardown()
        assert sim.monitors.summary() == []

    def test_mirrored_write_with_register_on_fly(self, sim, mirrored_otf):
        _node, servers, client = mirrored_otf
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        assert servers[0].ramdisk.pages_stored == 1
        assert servers[1].ramdisk.pages_stored == 1


class TestFailoverSpans:
    def test_rtt_span_excludes_the_failed_attempt(self, sim, fabric):
        """Regression: the failover read used to keep the original
        ``sent_at``, so the hpbd.rtt span swallowed the failed first
        round trip.  Now the dead time gets its own hpbd.failover span
        and the rtt span covers only the replica attempt."""
        sim.enable_tracing()
        node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
        servers = [
            HPBDServer(sim, fabric, f"mem{i}", store_bytes=32 * MiB,
                       stats=node.stats)
            for i in range(2)
        ]
        client = HPBDClient(sim, node, servers, total_bytes=32 * MiB,
                            redundancy="nway(2)")
        sim.run(until=sim.spawn(client.connect()))
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        servers[0].ramdisk.size = 0
        do_io(sim, client, READ, sector=0, nsectors=8)
        failed = [s for s in sim.trace.spans if s.cat == "hpbd.failover"]
        assert len(failed) == 1
        rid = failed[0].args["req_id"]
        rtts = [
            s for s in sim.trace.spans
            if s.cat == "hpbd.rtt" and s.args["req_id"] == rid
        ]
        assert len(rtts) == 1
        # The replica attempt starts only after the failure is detected.
        assert rtts[0].start >= failed[0].end
        # And the failover span covers exactly the failed first attempt.
        assert failed[0].args["server"] == 0
        assert rtts[0].args["server"] == 1
