"""Stream sockets over the simulated TCP stacks.

Just enough BSD-socket shape for NBD: listeners, blocking connect/accept,
and ordered reliable message delivery with per-message/byte/segment host
costs on both ends.  Message boundaries are preserved (NBD frames its own
requests; modelling byte streams would add bookkeeping without changing
any measured quantity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..simulator import Event, SimulationError, Store
from .stack import TCPStack

__all__ = ["Message", "Connection", "Listener", "connect_tcp", "SocketError"]

#: TCP three-way handshake budget (off the paging critical path).
CONNECT_USEC = 300.0


class SocketError(SimulationError):
    """Socket misuse (connect to a dead listener, double close...)."""


@dataclass
class Message:
    nbytes: int
    payload: Any = None
    #: block-request identity for the critical-path analysis; rides the
    #: message (not the payload tuple) so framing stays protocol-owned.
    req_id: int | None = None


class Connection:
    """One direction-pair of an established TCP connection."""

    def __init__(self, local: TCPStack, remote: TCPStack, name: str) -> None:
        self.local = local
        self.remote = remote
        self.name = name
        self._inbox: Store = Store(local.sim, name=f"{name}.inbox")
        self.peer: Connection | None = None
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- data path ---------------------------------------------------------

    def send(self, nbytes: int, payload: Any = None,
             req_id: int | None = None):
        """Blocking send; generator — use ``yield from``.

        Returns once the local stack has pushed the data out (the send
        completes locally; delivery continues asynchronously, like a
        write() into the socket buffer followed by transmission).
        """
        if self.closed:
            raise SocketError(f"{self.name}: send on closed connection")
        if nbytes < 0:
            raise ValueError(f"negative send size {nbytes}")
        peer = self._require_peer()
        sim = self.local.sim
        # Sender-side stack work (copy to skb, checksum, segmentation).
        t0 = sim.now
        yield from self.local.cpu(self.local.host_cost(nbytes))
        trace = sim.trace
        if trace.enabled and sim.now > t0:
            ident = {} if req_id is None else {"req_id": req_id}
            trace.complete(
                self.local.node_name, "tcp", "tx_host", "tcp.host",
                t0, sim.now, nbytes=nbytes, **ident,
            )
        wire_done = self.local.send_bytes(peer.local, nbytes, req_id=req_id)
        self.bytes_sent += nbytes
        msg = Message(nbytes=nbytes, payload=payload, req_id=req_id)

        def deliver():
            sim.spawn(peer._deliver(msg), name=f"{peer.name}.deliver")

        wire_done.callbacks.append(lambda _e: deliver())

    def _deliver(self, msg: Message):
        # Receiver-side stack work happens before the data is readable.
        sim = self.local.sim
        t0 = sim.now
        yield from self.local.cpu(self.local.host_cost(msg.nbytes))
        trace = sim.trace
        if trace.enabled and sim.now > t0:
            ident = {} if msg.req_id is None else {"req_id": msg.req_id}
            trace.complete(
                self.local.node_name, "tcp", "rx_host", "tcp.host",
                t0, sim.now, nbytes=msg.nbytes, **ident,
            )
        self.bytes_received += msg.nbytes
        self._inbox.put(msg)

    def recv(self) -> Event:
        """Event yielding the next :class:`Message` (blocking read)."""
        if self.closed:
            raise SocketError(f"{self.name}: recv on closed connection")
        return self._inbox.get()

    @property
    def pending(self) -> int:
        return len(self._inbox)

    # -- lifecycle ---------------------------------------------------------

    def _require_peer(self) -> "Connection":
        if self.peer is None:
            raise SocketError(f"{self.name}: not connected")
        return self.peer

    def close(self) -> None:
        if self.closed:
            raise SocketError(f"{self.name}: double close")
        self.closed = True


class Listener:
    """A passive socket: ``accept()`` blocks until a client connects."""

    def __init__(self, stack: TCPStack, name: str = "") -> None:
        self.stack = stack
        self.name = name or f"{stack.node_name}:listener"
        self._backlog: Store = Store(stack.sim, name=f"{self.name}.backlog")

    def accept(self) -> Event:
        """Event yielding the server-side :class:`Connection`."""
        return self._backlog.get()

    def _incoming(self, conn: Connection) -> None:
        self._backlog.put(conn)


def connect_tcp(client: TCPStack, listener: Listener, name: str = ""):
    """Establish a connection; generator — use ``yield from``.

    Returns the client-side :class:`Connection`; the listener's
    ``accept()`` yields the server side.
    """
    sim = client.sim
    yield sim.timeout(CONNECT_USEC)
    label = name or f"{client.node_name}<->{listener.stack.node_name}"
    c_side = Connection(client, listener.stack, f"{label}.c")
    s_side = Connection(listener.stack, client, f"{label}.s")
    c_side.peer = s_side
    s_side.peer = c_side
    listener._incoming(s_side)
    return c_side
