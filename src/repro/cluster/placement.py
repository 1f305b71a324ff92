"""Placement policies: where a tenant's swap area lands on the fleet.

A policy turns (tenant, total_bytes, fleet free-capacity view) into a
device-ordered chunk map that :class:`repro.hpbd.striping.
ChunkMapDistribution` consumes.  Chunk ``server_offset``\\s are compact
per server — the admission layer reserves one contiguous extent per
(tenant, server) sized to that server's share, and the server relocates
it by the registered area base — so a policy only decides *shares* and
*interleaving*, never absolute store addresses.

Policies:

* ``blocking``     — the paper's §4.2.5 layout: equal contiguous chunks
  over the alive servers, in index order;
* ``least_loaded`` — greedy bin-packing of fixed granules onto the
  server with the most free capacity (levels a heterogeneously loaded
  fleet);
* ``hash``         — consistent-hash sharding of granules by
  ``crc32(tenant:granule)`` (placement stable under tenant churn).
"""

from __future__ import annotations

import zlib

from ..hpbd.striping import Chunk, group_chunk_maps
from ..redundancy.policy import RedundancyPolicy, ShardGroup
from ..units import MiB, PAGE_SIZE
from .registry import CapacityError, FleetRegistry

__all__ = ["plan_placement", "plan_group", "DEFAULT_GRANULE_BYTES"]

#: granule for the interleaving policies; falls back to a page when the
#: area is not MiB-aligned.
DEFAULT_GRANULE_BYTES = MiB


def _granule(total_bytes: int, granule_bytes: int | None) -> int:
    g = DEFAULT_GRANULE_BYTES if granule_bytes is None else granule_bytes
    if g <= 0 or g % PAGE_SIZE:
        raise ValueError(f"bad granule {g}")
    if total_bytes % g:
        g = PAGE_SIZE
    if total_bytes % g:
        raise ValueError(
            f"area of {total_bytes} B is not page-aligned"
        )
    return g


def _coalesce(assignment: list[tuple[int, int]]) -> list[Chunk]:
    """Turn (server, nbytes) runs in device order into chunks with
    compact per-server offsets."""
    chunks: list[Chunk] = []
    next_offset: dict[int, int] = {}
    pos = 0
    for server, nbytes in assignment:
        soff = next_offset.get(server, 0)
        if (
            chunks
            and chunks[-1].server == server
            and chunks[-1].server_offset + chunks[-1].nbytes == soff
        ):
            last = chunks[-1]
            chunks[-1] = Chunk(
                last.start, last.nbytes + nbytes, server, last.server_offset
            )
        else:
            chunks.append(Chunk(pos, nbytes, server, soff))
        next_offset[server] = soff + nbytes
        pos += nbytes
    return chunks


def _alive_with_room(registry: FleetRegistry) -> list[int]:
    alive = [
        i
        for i in range(len(registry.servers))
        if registry.alive[i] and registry.free_bytes(i) > 0
    ]
    # Quarantine is advisory: avoid fail-slow servers while a healthy
    # candidate remains, but a limping server still beats a NACK.
    healthy = [i for i in alive if not registry.quarantined[i]]
    return healthy or alive


def _blocking(
    tenant: str, total_bytes: int, registry: FleetRegistry
) -> list[Chunk]:
    servers = _alive_with_room(registry)
    if not servers:
        raise CapacityError("no alive server with free capacity")
    n = len(servers)
    base = total_bytes // n
    base -= base % PAGE_SIZE
    assignment: list[tuple[int, int]] = []
    placed = 0
    for k, server in enumerate(servers):
        nbytes = total_bytes - placed if k == n - 1 else base
        if nbytes <= 0:
            continue
        if nbytes > registry.free_bytes(server):
            raise CapacityError(
                f"server {server}: blocking share of {nbytes} B does not "
                f"fit ({registry.free_bytes(server)} B free)"
            )
        assignment.append((server, nbytes))
        placed += nbytes
    return _coalesce(assignment)


def _least_loaded(
    tenant: str,
    total_bytes: int,
    registry: FleetRegistry,
    granule_bytes: int | None,
) -> list[Chunk]:
    servers = _alive_with_room(registry)
    if not servers:
        raise CapacityError("no alive server with free capacity")
    g = _granule(total_bytes, granule_bytes)
    free = {i: registry.free_bytes(i) for i in servers}
    assignment: list[tuple[int, int]] = []
    for _ in range(total_bytes // g):
        # Most free capacity first; index order breaks ties so the map
        # is deterministic.
        best = max(servers, key=lambda i: (free[i], -i))
        if free[best] < g:
            raise CapacityError(
                f"fleet out of capacity placing {total_bytes} B "
                f"for {tenant} (granule {g})"
            )
        assignment.append((best, g))
        free[best] -= g
    return _coalesce(assignment)


def _hash(
    tenant: str,
    total_bytes: int,
    registry: FleetRegistry,
    granule_bytes: int | None,
) -> list[Chunk]:
    servers = _alive_with_room(registry)
    if not servers:
        raise CapacityError("no alive server with free capacity")
    g = _granule(total_bytes, granule_bytes)
    free = {i: registry.free_bytes(i) for i in servers}
    assignment: list[tuple[int, int]] = []
    for gi in range(total_bytes // g):
        key = zlib.crc32(f"{tenant}:{gi}".encode())
        server = servers[key % len(servers)]
        if free[server] < g:
            raise CapacityError(
                f"server {server}: hash shard for {tenant} does not fit"
            )
        assignment.append((server, g))
        free[server] -= g
    return _coalesce(assignment)


def plan_group(
    policy: RedundancyPolicy,
    tenant: str,
    total_bytes: int,
    registry: FleetRegistry,
) -> tuple[list[Chunk], list[Chunk], ShardGroup]:
    """Plan a redundancy group: which servers hold which shard role.

    Returns ``(data_chunks, parity_chunks, group)`` — the data chunks
    cover the device exactly (what :class:`~repro.hpbd.striping.
    ChunkMapDistribution` routes requests by), the parity chunks are the
    redundancy copies' store extents, and the group records the
    role-to-server map the driver and the repair manager share.

    Pure planning, like :func:`plan_placement`: nothing is reserved.
    ``rs(k,m)`` picks the first k+m alive servers with room (healthy
    before quarantined, index order — deterministic); ``nway(r)``
    replicates over the whole alive fleet as a ring (copy j of server
    i's chunk on server i+j at store offset ``j * share``).
    """
    if total_bytes <= 0 or total_bytes % PAGE_SIZE:
        raise ValueError(f"bad area size {total_bytes}")
    if policy.kind == "rs":
        width = policy.width
        if total_bytes % policy.k:
            raise CapacityError(
                f"area of {total_bytes} B does not stripe over "
                f"k={policy.k} data shards"
            )
        share = total_bytes // policy.k
        if share % PAGE_SIZE:
            raise CapacityError(
                f"rs({policy.k},{policy.m}) shard of {share} B is not "
                f"page-aligned"
            )
        candidates = [
            i for i in _alive_with_room(registry)
            if registry.free_bytes(i) >= share
        ]
        if len(candidates) < width:
            # Quarantined-but-alive servers still beat a NACK.
            candidates = [
                i
                for i in range(len(registry.servers))
                if registry.alive[i] and registry.free_bytes(i) >= share
            ]
        if len(candidates) < width:
            raise CapacityError(
                f"rs({policy.k},{policy.m}) group needs {width} servers "
                f"with {share} B free; only {len(candidates)} qualify"
            )
        members = candidates[:width]
        group = ShardGroup(policy=policy, servers=members, share_bytes=share)
        data_chunks, parity_chunks = group_chunk_maps(group, total_bytes)
        return data_chunks, parity_chunks, group
    if policy.kind == "nway":
        n = len(registry.servers)
        r = policy.m + 1
        if n < r:
            raise CapacityError(
                f"nway({r}) ring needs at least {r} servers, fleet has {n}"
            )
        if not all(registry.alive):
            raise CapacityError("nway placement needs every server alive")
        if total_bytes % n:
            raise CapacityError(
                f"area of {total_bytes} B does not divide over the "
                f"{n}-server ring"
            )
        share = total_bytes // n
        if share % PAGE_SIZE:
            raise CapacityError(
                f"nway({r}) chunk of {share} B is not page-aligned"
            )
        need = share * r
        short = [i for i in range(n) if registry.free_bytes(i) < need]
        if short:
            raise CapacityError(
                f"nway({r}) shares of {need} B do not fit servers {short}"
            )
        ring = list(range(n))
        group = ShardGroup(policy=policy, servers=ring, share_bytes=share)
        data_chunks, parity_chunks = group_chunk_maps(group, total_bytes)
        return data_chunks, parity_chunks, group
    raise ValueError(f"plan_group got non-redundant policy {policy.label}")


def plan_placement(
    policy: str,
    tenant: str,
    total_bytes: int,
    registry: FleetRegistry,
    granule_bytes: int | None = None,
) -> list[Chunk]:
    """Plan a tenant's chunk map under ``policy``.

    Pure planning — nothing is reserved; the admission layer turns the
    plan into registry reservations (and may re-plan on failure).
    Raises :class:`CapacityError` when the plan cannot fit the fleet's
    current free capacity.
    """
    if total_bytes <= 0 or total_bytes % PAGE_SIZE:
        raise ValueError(f"bad area size {total_bytes}")
    if policy == "blocking":
        return _blocking(tenant, total_bytes, registry)
    if policy == "least_loaded":
        return _least_loaded(tenant, total_bytes, registry, granule_bytes)
    if policy == "hash":
        return _hash(tenant, total_bytes, registry, granule_bytes)
    raise ValueError(f"unknown placement policy {policy!r}")
