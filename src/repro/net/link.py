"""Ports and the switched fabric: where serialization happens.

The paper's testbed is a 144-port non-blocking IB switch, so the only
contention points are the host ports (HCA/NIC + its PCI-X bus).  We model
each node's port as a full-duplex pair of unit resources (``tx`` and
``rx``); a transfer occupies ``src.tx`` and ``dst.rx`` for the
serialization time, then the payload arrives one wire latency later.

This is what makes the multi-server results (Fig. 10) honest: no matter
how many memory servers exist, every page still crosses the single client
port, so striping cannot beat the port bandwidth — the paper's argument
for the non-striped blocking distribution.
"""

from __future__ import annotations

from ..simulator import Event, Resource, Simulator, StatsRegistry, WaitQueue

__all__ = ["Port", "Fabric"]


class Port:
    """A full-duplex network attachment point for one node.

    Fault-injection state (see :mod:`repro.faults`): a port can be
    taken *down* (transfers park until it comes back) or *degraded*
    (latency/serialization multipliers).  Both default to the identity,
    so a healthy port behaves bit-for-bit as before.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.tx = Resource(sim, 1, name=f"{name}.tx")
        self.rx = Resource(sim, 1, name=f"{name}.rx")
        self.bytes_out = 0
        self.bytes_in = 0
        self.up = True
        self.latency_mult = 1.0
        self.byte_time_mult = 1.0
        self._up_wq = WaitQueue(sim, name=f"{name}.up")

    # -- fault-injection hooks (no-ops unless a FaultPlan drives them) ----

    def set_down(self) -> None:
        """Link flap: park new transfers until :meth:`set_up`."""
        self.up = False

    def set_up(self) -> None:
        self.up = True
        self._up_wq.wake_all()

    def degrade(self, latency_mult: float = 1.0, byte_time_mult: float = 1.0) -> None:
        """Scale this port's latency and serialization time."""
        if latency_mult < 1.0 or byte_time_mult < 1.0:
            raise ValueError("degradation multipliers must be >= 1")
        self.latency_mult = latency_mult
        self.byte_time_mult = byte_time_mult

    def restore(self) -> None:
        self.latency_mult = 1.0
        self.byte_time_mult = 1.0

    def __repr__(self) -> str:
        return f"<Port {self.name} out={self.bytes_out} in={self.bytes_in}>"


class Fabric:
    """A non-blocking switch connecting named :class:`Port` objects."""

    def __init__(self, sim: Simulator, stats: StatsRegistry | None = None) -> None:
        self.sim = sim
        self.stats = stats if stats is not None else StatsRegistry()
        self._ports: dict[str, Port] = {}
        #: fault-injection filter for IB channel sends; ``None`` (the
        #: default) means no faults.  See ``FaultInjector.on_ctrl_send``.
        self.fault_hook = None

    def port(self, name: str) -> Port:
        """Get or create the port for node ``name``."""
        port = self._ports.get(name)
        if port is None:
            port = self._ports[name] = Port(self.sim, name)
        return port

    def ports(self) -> list[str]:
        return sorted(self._ports)

    def transfer(
        self,
        src: Port,
        dst: Port,
        nbytes: int,
        byte_time: float,
        latency: float,
        tag: str = "data",
        req_id: int | None = None,
    ) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Returns an event that succeeds (with ``nbytes``) when the last
        byte has *arrived* at ``dst``.  The source tx unit and the
        destination rx unit are both held for the serialization time
        ``nbytes * byte_time``; delivery completes ``latency`` later
        (cut-through, no store-and-forward double count).  ``req_id``
        tags the wire/wait spans with the block-request identity so the
        critical-path analysis can attribute them.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if src is dst:
            raise ValueError(f"self-transfer on port {src.name}")
        done = Event(self.sim, name=f"xfer:{src.name}->{dst.name}")
        self.sim.spawn(
            self._transfer_proc(
                src, dst, nbytes, byte_time, latency, tag, req_id, done
            ),
            name=f"xfer:{src.name}->{dst.name}",
        )
        return done

    def _transfer_proc(
        self,
        src: Port,
        dst: Port,
        nbytes: int,
        byte_time: float,
        latency: float,
        tag: str,
        req_id: int | None,
        done: Event,
    ):
        t_start = self.sim.now
        # A downed endpoint parks the transfer until it comes back; the
        # wait counts as port queueing (net.wait) in the trace.
        while not (src.up and dst.up):
            down = src if not src.up else dst
            yield down._up_wq.wait()
        # tx and rx pools are disjoint resource classes, so taking one of
        # each in a fixed (tx-then-rx) order cannot form a cycle.
        if not src.tx.acquire_inline():
            yield src.tx.acquire()
        if not dst.rx.acquire_inline():
            yield dst.rx.acquire()
        t_wire = self.sim.now
        # Degradation multipliers are 1.0 on healthy ports, so the
        # products below are exact no-ops outside fault scenarios.
        mult = max(src.byte_time_mult, dst.byte_time_mult)
        serialization = nbytes * byte_time * mult
        if serialization > 0:
            yield self.sim.timeout(serialization)
        src.tx.release()
        dst.rx.release()
        src.bytes_out += nbytes
        dst.bytes_in += nbytes
        latency = latency * max(src.latency_mult, dst.latency_mult)
        if latency > 0:
            yield self.sim.timeout(latency)
        self.stats.counter(f"fabric.bytes.{tag}").add(nbytes)
        self.stats.tally("fabric.transfer_usec").record(self.sim.now - t_start)
        trace = self.sim.trace
        if trace.enabled:
            # Port queueing is a host-side stage; the wire span proper is
            # serialization + latency, which is what the §6.2 Amdahl
            # model calls "network" (control messages get their own cat
            # so data wire time stays comparable to the model's).
            ident = {} if req_id is None else {"req_id": req_id}
            if t_wire > t_start:
                trace.complete(
                    "fabric", src.name, "port_wait", "net.wait",
                    t_start, t_wire, tag=tag, nbytes=nbytes, **ident,
                )
            trace.complete(
                "fabric", src.name, tag,
                "ctrl" if tag == "ib_send" else "wire",
                t_wire, self.sim.now, nbytes=nbytes, dst=dst.name, **ident,
            )
        done.succeed(nbytes)
