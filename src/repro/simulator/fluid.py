"""Fluid-flow fast path for bulk transfers.

A multi-page spill, migration, or stream is, in discrete-event terms, a
chain of per-page timer events: tens of thousands of scheduler entries
that exist only to advance a byte counter.  When nothing can observe the
intermediate state — no competing flow on the channel, no tracer, no
fault window — that chain is *fluid*: its trajectory is an analytic
function of time, and one completion event carries the same information
as the whole chain.

:class:`FluidChannel` models a rate-limited pipe shared by bulk flows
under page-granular processor sharing:

* **collapsed (analytic) mode** — a flow alone on an untraced channel
  schedules a single timer at ``segment_start + remaining/rate``: O(1)
  scheduler entries per transfer instead of O(pages);
* **expanded (discrete) mode** — the moment a competing flow joins, a
  tracer is enabled, or :attr:`FluidChannel.force_discrete` is set (fault
  windows), flows step page by page, each page deadline computed from
  byte progress (``segment_start + bytes/share``) so rate changes take
  effect at page boundaries.

Expansion is exact: an analytic flow that gets disturbed reconstructs
the page index the discrete chain would have reached (its pending
completion timer is tombstoned via :meth:`~repro.simulator.Event.cancel`
— the lazy-cancellation path this scheduler exists for) and resumes on
the *identical* page-boundary grid.  Because every deadline is derived
from the same ``segment_start + bytes/share`` expression — never from
accumulated increments — a traced (forced-discrete) run and an untraced
(collapsing) run produce bit-identical completion times, which the test
suite asserts.

Rates are in **bytes per microsecond** to match the kernel clock.
"""

from __future__ import annotations

from .core import Process, Simulator
from .stats import StatsRegistry
from .sync import any_of

__all__ = ["FluidChannel", "BulkFlow"]


class BulkFlow:
    """One bulk transfer in flight on a :class:`FluidChannel`."""

    __slots__ = ("name", "nbytes", "done_bytes", "_disturb", "process")

    def __init__(self, name: str, nbytes: int) -> None:
        self.name = name
        self.nbytes = nbytes
        #: bytes known transferred (updated at page boundaries / expansion)
        self.done_bytes = 0.0
        #: pending wake-up event while the flow is collapsed (None when
        #: discrete); succeeded by the channel when membership changes.
        self._disturb = None
        #: the driving process (set by FluidChannel.transfer)
        self.process: Process | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BulkFlow {self.name} {self.done_bytes:.0f}/{self.nbytes} B>"
        )


class FluidChannel:
    """A rate-shared bulk pipe with an analytic single-event fast path.

    ``rate_bytes_per_usec`` is the channel capacity; concurrent flows
    share it equally (processor sharing at page granularity: a page in
    flight finishes at the share it started with, and new shares apply
    from the next page boundary).
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bytes_per_usec: float,
        page_bytes: int = 4096,
        name: str = "fluid",
        stats: StatsRegistry | None = None,
    ) -> None:
        if rate_bytes_per_usec <= 0:
            raise ValueError(f"bad channel rate {rate_bytes_per_usec}")
        if page_bytes <= 0:
            raise ValueError(f"bad page size {page_bytes}")
        self.sim = sim
        self.rate = float(rate_bytes_per_usec)
        self.page_bytes = page_bytes
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        #: set while a fault window (or any other observer that needs
        #: per-page state) is open: forces discrete stepping exactly
        #: like an enabled tracer does.
        self.force_discrete = False
        self._flows: list[BulkFlow] = []
        #: bumped on every join/leave; discrete flows poll it at page
        #: boundaries to notice membership changes.
        self._epoch = 0
        self._c_transfers = self.stats.counter(f"{name}.transfers")
        self._c_bytes = self.stats.counter(f"{name}.bytes")
        self._c_collapsed = self.stats.counter(f"{name}.collapsed_segments")
        self._c_pages = self.stats.counter(f"{name}.discrete_pages")
        self._c_expansions = self.stats.counter(f"{name}.expansions")

    # -- API -----------------------------------------------------------------

    def transfer(self, nbytes: int, name: str = "") -> Process:
        """Move ``nbytes`` through the channel; returns the driving
        process (itself an event — ``yield channel.transfer(...)`` joins
        it).  The process value is the flow's byte count."""
        if nbytes <= 0:
            raise ValueError(f"bad transfer size {nbytes}")
        flow = BulkFlow(name or f"{self.name}.flow", nbytes)
        flow.process = self.sim.spawn(
            self._run_flow(flow), name=f"{self.name}.xfer"
        )
        return flow.process

    # -- membership ----------------------------------------------------------

    def _join(self, flow: BulkFlow) -> None:
        self._flows.append(flow)
        self._epoch += 1
        self._wake_collapsed(flow)

    def _leave(self, flow: BulkFlow) -> None:
        self._flows.remove(flow)
        self._epoch += 1
        # A leave cannot disturb a collapsed flow (collapse requires
        # being alone), so only discrete flows need to notice — they
        # poll the epoch at their next page boundary.

    def _wake_collapsed(self, joiner: BulkFlow) -> None:
        for other in self._flows:
            if other is joiner:
                continue
            disturb = other._disturb
            if disturb is not None and not disturb.triggered:
                disturb.succeed()

    # -- the flow body -------------------------------------------------------

    def _deadline(self, seg_start: float, seg_rem: float, share: float,
                  k: int) -> float:
        """Deadline of the ``k``-th page boundary of a segment.

        Always the same expression — ``start + bytes/share`` — whether
        evaluated eagerly (discrete) or reconstructed after an analytic
        collapse, so both paths land on bit-identical times.
        """
        sent = float(k) * self.page_bytes
        if sent > seg_rem:
            sent = seg_rem
        return seg_start + sent / share

    def _run_flow(self, flow: BulkFlow):
        sim = self.sim
        page = self.page_bytes
        self._c_transfers.add()
        self._join(flow)
        try:
            while flow.done_bytes < flow.nbytes:
                # ---- segment start (page boundary, or transfer start)
                seg_start = sim.now
                seg_base = flow.done_bytes
                seg_rem = flow.nbytes - seg_base
                share = self.rate / len(self._flows)
                trace = sim.trace
                if (
                    len(self._flows) == 1
                    and not trace.enabled
                    and not self.force_discrete
                ):
                    # ---- collapsed: one event for the whole remainder
                    self._c_collapsed.add()
                    completion = seg_start + seg_rem / share
                    timer = sim.timeout(completion - sim.now)
                    disturb = flow._disturb = sim.event(
                        f"{self.name}.disturb"
                    )
                    idx, _ = yield any_of(sim, [timer, disturb])
                    flow._disturb = None
                    if idx == 0:
                        flow.done_bytes = float(flow.nbytes)
                        break
                    # ---- expand: a competitor joined mid-segment.
                    # Tombstone the analytic timer and reconstruct the
                    # page index the discrete chain would be at.
                    timer.cancel()
                    self._c_expansions.add()
                    now = sim.now
                    k = int((now - seg_start) * share / page)
                    while self._deadline(seg_start, seg_rem, share, k + 1) <= now:
                        k += 1
                    while k > 0 and self._deadline(seg_start, seg_rem, share, k) > now:
                        k -= 1
                    done = float(k) * page
                    if done > seg_rem:  # pragma: no cover - clipped above
                        done = seg_rem
                    flow.done_bytes = seg_base + done
                    if flow.done_bytes >= flow.nbytes:
                        break
                    # Finish the in-progress page at the *old* share —
                    # exactly what the discrete chain would do — then
                    # re-enter the loop to start a shared segment.
                    boundary = self._deadline(seg_start, seg_rem, share, k + 1)
                    yield sim.timeout(boundary - now)
                    sent = float(k + 1) * page
                    if sent > seg_rem:
                        sent = seg_rem
                    flow.done_bytes = seg_base + sent
                else:
                    # ---- discrete: step page by page until the
                    # membership epoch moves or the flow completes.
                    epoch = self._epoch
                    k = 0
                    while flow.done_bytes < flow.nbytes and self._epoch == epoch:
                        k += 1
                        boundary = self._deadline(seg_start, seg_rem, share, k)
                        t0 = sim.now
                        yield sim.timeout(boundary - sim.now)
                        sent = float(k) * page
                        if sent > seg_rem:
                            sent = seg_rem
                        flow.done_bytes = seg_base + sent
                        self._c_pages.add()
                        if trace.enabled:
                            trace.complete(
                                flow.name, "fluid", "page", "fluid.page",
                                t0, sim.now,
                                bytes=min(page, int(sent - (k - 1) * page)),
                                share=share,
                            )
        finally:
            self._leave(flow)
        self._c_bytes.add(int(flow.done_bytes))
        return flow.done_bytes
