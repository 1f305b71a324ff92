"""Memory registration: protection domains, memory regions, keys.

InfiniBand requires every buffer touched by the HCA to be *registered*
(pinned + entered into the HCA's translation table).  Registration is the
costly operation Fig. 3 measures and the reason HPBD copies pages through
a pre-registered pool instead of registering on the fly (§4.1).

Addresses here are simulated: each node owns a flat 64-bit address space
and regions are ``[addr, addr+length)`` intervals.  The registry checks
every RDMA target against the registered intervals, so a protocol bug
that would have corrupted memory on real hardware fails loudly here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..simulator import SimulationError

__all__ = ["AccessFlags", "MemoryRegion", "ProtectionDomain", "RemoteKeyError"]


class RemoteKeyError(SimulationError):
    """An RDMA operation referenced an invalid or out-of-bounds key."""


class AccessFlags:
    """Bitmask access rights for a memory region."""

    LOCAL_WRITE = 0x1
    REMOTE_READ = 0x2
    REMOTE_WRITE = 0x4
    ALL = LOCAL_WRITE | REMOTE_READ | REMOTE_WRITE


_key_counter = itertools.count(1)


@dataclass
class MemoryRegion:
    """A registered ``[addr, addr + length)`` interval.

    ``lkey`` authorizes local use, ``rkey`` remote RDMA.  Once
    :meth:`invalidate` is called (deregistration) any further use is an
    error — catching use-after-free of pool buffers.
    """

    addr: int
    length: int
    access: int
    node: str
    lkey: int = field(default_factory=lambda: next(_key_counter))
    rkey: int = field(default_factory=lambda: next(_key_counter))
    valid: bool = True

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"region length must be positive, got {self.length}")
        if self.addr < 0:
            raise ValueError(f"negative address {self.addr}")

    @property
    def end(self) -> int:
        return self.addr + self.length

    def contains(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.end

    def check_remote(self, addr: int, length: int, write: bool) -> None:
        """Validate an incoming RDMA against this region."""
        if not self.valid:
            raise RemoteKeyError(f"rkey {self.rkey}: region deregistered")
        needed = AccessFlags.REMOTE_WRITE if write else AccessFlags.REMOTE_READ
        if not self.access & needed:
            op = "write" if write else "read"
            raise RemoteKeyError(f"rkey {self.rkey}: remote {op} not permitted")
        if not self.contains(addr, length):
            raise RemoteKeyError(
                f"rkey {self.rkey}: [{addr}, {addr + length}) outside "
                f"[{self.addr}, {self.end})"
            )

    def invalidate(self) -> None:
        self.valid = False


class ProtectionDomain:
    """Groups regions and QPs of one consumer; resolves rkeys.

    One PD per HPBD endpoint (client driver instance / server daemon).
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self._regions: dict[int, MemoryRegion] = {}  # rkey -> region
        self._next_addr = 0x1000_0000  # fake VA allocator for this PD

    def allocate_va(self, length: int, align: int = 4096) -> int:
        """Hand out a fresh simulated virtual address range."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        addr = -(-self._next_addr // align) * align
        self._next_addr = addr + length
        return addr

    def register(
        self, addr: int, length: int, access: int = AccessFlags.ALL
    ) -> MemoryRegion:
        """Create a region (timing is charged by the HCA, not here)."""
        mr = MemoryRegion(addr=addr, length=length, access=access, node=self.node)
        self._regions[mr.rkey] = mr
        return mr

    def deregister(self, mr: MemoryRegion) -> None:
        if self._regions.pop(mr.rkey, None) is None:
            raise RemoteKeyError(f"rkey {mr.rkey} not registered with this PD")
        mr.invalidate()

    def resolve_rkey(self, rkey: int) -> MemoryRegion:
        mr = self._regions.get(rkey)
        if mr is None:
            raise RemoteKeyError(f"unknown rkey {rkey}")
        return mr

    @property
    def registered_bytes(self) -> int:
        return sum(mr.length for mr in self._regions.values())
