"""CPU time accounting: a node's processors as a counted resource.

The testbed nodes are dual 2.66 GHz Xeons.  A single swapping application
leaves one CPU for kernel threads and interrupt work — so host overhead
mostly *adds latency*, not contention.  With two application instances
(Fig. 9) both CPUs are busy and kernel work starts to contend; modelling
CPUs as a plain counted resource reproduces that shift without a real
scheduler.
"""

from __future__ import annotations

from ..simulator import Resource, Simulator

__all__ = ["CPUSet"]


class CPUSet:
    """``ncpus`` identical processors; ``run(cost)`` occupies one."""

    def __init__(self, sim: Simulator, ncpus: int, name: str = "cpus") -> None:
        if ncpus < 1:
            raise ValueError(f"need at least one CPU, got {ncpus}")
        self.sim = sim
        self.ncpus = ncpus
        self._res = Resource(sim, ncpus, name=name)
        self.busy_usec = 0.0

    def run(self, cost: float):
        """Execute ``cost`` µs of work on any CPU; generator, use
        ``yield from``.  FIFO under contention."""
        if cost < 0:
            raise ValueError(f"negative CPU cost {cost}")
        if cost == 0:
            return
        res = self._res
        if not res.acquire_inline():
            yield res.acquire()
        try:
            yield self.sim.timeout(cost)
            self.busy_usec += cost
        finally:
            res.release()

    @property
    def in_use(self) -> int:
        return self._res.in_use

    def utilization(self) -> float:
        return self._res.utilization()
