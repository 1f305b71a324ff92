"""Generator-based discrete-event simulation kernel.

This module is the heart of the reproduction: every hardware and kernel
component (HCA, disk, kswapd, HPBD client/server threads, ...) is a
*process* — a Python generator that yields :class:`Event` objects and is
resumed when they fire.  The design follows the classic SimPy shape but is
purpose-built and dependency-free:

* time is a ``float`` in **microseconds**;
* simultaneous events fire in a deterministic ``(time, priority, seq)``
  total order, whichever scheduler backs the queue;
* events carry either a *value* (success) or an *exception* (failure) to
  the processes waiting on them;
* processes are themselves events — they trigger when the generator
  returns, which makes ``yield other_process`` a join.

Scheduler tiers (new in PR 7; select with ``Simulator(scheduler=...)`` or
the ``REPRO_SCHEDULER`` env var, default ``"wheel"``):

* ``"wheel"`` — a tiered **calendar queue**: a small sorted *current
  bucket* heap for imminent events, ``_NBUCKETS`` unsorted wheel buckets
  of ``_W`` µs each for the short-horizon timeout churn that dominates
  HPBD/NBD retransmit guards (O(1) insert, lazy per-advance cascade
  instead of a heap sift), and an *overflow heap* for events beyond the
  wheel horizon.  ``_W`` is a power of two so bucket indexing
  (``int(when * _INV_W)``) is exact in binary floating point and the
  bucket partition is deterministic.
* ``"heap"`` — the PR 2 binary heap, kept as the equivalence baseline.

Both modes share three fast paths that sit *in front of* the structure,
so they cannot change the firing order:

* the **solo slot**: when the queue is otherwise empty the single pending
  entry is parked in ``_solo`` and dispatched without touching any
  structure — pure timeout churn (one process sleeping in a loop) never
  pays for the calendar at all;
* the **owner slot**: a process that is the *sole* waiter of an event is
  stored in ``event.owner`` instead of appending a bound-method callback,
  and the drain loop resumes its generator inline (no bound-method
  allocation, no list append/iterate, no ``_resume`` frame);
* **lazy-cancellation tombstones**: :meth:`Event.cancel` just sets a
  flag; the drain loop discards tombstoned entries when they surface, so
  cancelling a retransmit guard is O(1) and never touches the structure.

Two exactness rules skip events nobody could tell apart, so
``events_processed`` counts posted events only:

* **inline grants**: a process the drain loop resumes as sole owner may
  take a free resource unit without posting its grant event when that
  event would fire next anyway (:meth:`Simulator._grant_is_next`);
* **unobserved exits**: a process that finishes with no waiter and no
  outside reference is marked processed without posting its exit event
  (:meth:`Simulator._exit_is_unobserved`).

Allocation notes carried over from PR 2: callbacks are plain lists,
events use ``__slots__``, and the loop keeps free lists of ``Timeout``
and plain ``Event`` objects, recycling an event after its callbacks have
run **only when the loop holds the last reference** (checked with
``sys.getrefcount``), so any event a process or test still points at
keeps its triggered state forever.  Queue entries are slim
``(time, key, event)`` 3-tuples where ``key`` folds the priority into
the high bits of the sequence number.
"""

from __future__ import annotations

import heapq
import os
import sys
from collections.abc import Callable, Generator, Iterable
from typing import Any

from ..obs.monitors import MonitorHub
from ..obs.trace import NULL_TRACE, TraceRecorder
from .errors import (
    AlreadyTriggered,
    DeadProcess,
    Interrupted,
    SchedulingInPast,
    SimulationError,
    StopProcess,
)

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "ProcessGen",
    "NORMAL",
    "URGENT",
    "LAZY",
]

#: Event priorities — lower fires first among simultaneous events.
URGENT = 0
NORMAL = 1
LAZY = 2

#: The type a process body must have.
ProcessGen = Generator["Event", Any, Any]

_PENDING = object()

#: Heap keys are ``(priority << _PRIO_SHIFT) + seq`` — priority dominates,
#: then FIFO insertion order.  2**52 events per run is far beyond reach.
_PRIO_SHIFT = 52
_URGENT_BASE = URGENT << _PRIO_SHIFT
_NORMAL_BASE = NORMAL << _PRIO_SHIFT
#: ``run(until=<float>)`` parks a sentinel at the deadline with a key
#: above every real priority so all real events at that instant fire
#: first.
_MARKER_BASE = 3 << _PRIO_SHIFT

#: Free-list cap: recycling is a win only while the pool stays cache-warm.
_POOL_MAX = 4096

#: Calendar-queue geometry.  ``_W`` must be a power of two so
#: ``int(when * _INV_W)`` is an exact binary operation; 8 µs × 512
#: buckets gives a 4096 µs horizon that covers serialization delays,
#: RTTs and retransmit guards, with the overflow heap absorbing the rest.
_W = 8.0
_INV_W = 0.125
_NBUCKETS = 512

_getrefcount = sys.getrefcount
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is *triggered* exactly once, either with
    :meth:`succeed` (carrying a value) or :meth:`fail` (carrying an
    exception).  Processes wait on an event by ``yield``-ing it; plain
    callables can also be attached via :attr:`callbacks`.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "name",
        "abandoned",
        "owner",
        "cancelled",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: callbacks run (in order) when the event fires; each receives
        #: the event itself.  ``None`` once processed.
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        #: set when the last process waiting on this event was
        #: interrupted away — queues treat such waits as cancelled and
        #: must not grant resources to them (see resources.py).
        self.abandoned = False
        #: the *sole-waiter* fast path: the first process to wait on a
        #: callback-free event is stored here instead of appending a
        #: bound-method callback; the drain loop resumes it inline.  It
        #: always fires before :attr:`callbacks`, preserving waiter
        #: arrival order.
        self.owner: Process | None = None
        #: lazy-cancellation tombstone — see :meth:`cancel`.
        self.cancelled = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (or has fired)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire *now* with ``value``."""
        if self._value is not _PENDING:
            raise AlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        sim._post(sim.now, (priority << _PRIO_SHIFT) + sim._seq, self)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire *now*, raising ``exc`` in waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise AlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._seq += 1
        sim._post(sim.now, (priority << _PRIO_SHIFT) + sim._seq, self)
        return self

    def trigger(self, other: "Event") -> None:
        """Mirror another (triggered) event's outcome onto this one."""
        if other._ok:
            self.succeed(other._value)
        else:
            self.fail(other._value)

    def cancel(self) -> None:
        """Tombstone the event: it will be silently discarded, not fired.

        O(1) and structure-free: the entry stays wherever it sits in the
        calendar/heap and is dropped (and recycled) when it surfaces in
        the drain loop, without advancing the clock or running callbacks.
        Cancelling an already-processed event is a no-op, so the
        ``any_of`` loser-timer pattern needs no state check at the call
        site.  An event a process is blocked on cannot be cancelled —
        that would strand the generator forever.
        """
        if self.owner is not None:
            raise SimulationError(
                f"cannot cancel {self!r}: a process is waiting on it"
            )
        if self.callbacks is None:
            return
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "pending"
            if self._value is _PENDING
            else ("ok" if self._ok else "failed")
        )
        label = self.name or type(self).__name__
        return f"<{label} {state} at t={self.sim.now:.3f}>"


class Timeout(Event):
    """An event that fires after a fixed delay.  Created pre-triggered.

    The name is the constant ``"timeout"`` (not an interpolated string):
    formatting the delay per instance dominated the allocation cost of
    the hottest path in the whole kernel.  ``delay`` carries the number.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        priority: int = NORMAL,
    ) -> None:
        if delay < 0:
            raise SchedulingInPast(sim.now, sim.now + delay)
        super().__init__(sim, name="timeout")
        self.delay = delay
        self._ok = True
        self._value = value
        sim._seq += 1
        sim._post(sim.now + delay, (priority << _PRIO_SHIFT) + sim._seq, self)


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, the generator is resumed with ``event.value``; when it
    fails, the exception is thrown into the generator.  ``return value``
    inside the generator becomes the process's own event value, so other
    processes can ``result = yield proc``.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        if not hasattr(gen, "throw"):
            raise TypeError(
                f"Process body must be a generator, got {type(gen).__name__}"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        #: the event this process is currently blocked on (None if ready)
        self._waiting_on: Event | None = None
        # Kick-off: an urgent pre-triggered event owned by this process
        # (drawn from the free list when one is available); the drain
        # loop's owner path performs the first resume.
        init = sim._internal_event("init", True, None)
        init.owner = self
        sim._seq += 1
        sim._post(sim.now, _URGENT_BASE + sim._seq, init)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        A process cannot interrupt itself and a dead process cannot be
        interrupted.  The interrupt detaches the process from whatever
        event it was waiting on (the event itself is unaffected and may
        still fire for other waiters).
        """
        if not self.is_alive:
            raise DeadProcess(f"{self.name} already terminated")
        if self.sim.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        waiting = self._waiting_on
        if waiting is not None and waiting.callbacks is not None:
            if waiting.owner is self:
                waiting.owner = None
            else:
                try:
                    waiting.callbacks.remove(self._resume)
                except ValueError:
                    pass
            if waiting.owner is None and not waiting.callbacks:
                # Nobody is listening any more: let resource queues
                # know this wait is dead so they skip it.
                waiting.abandoned = True
        self._waiting_on = None
        # Deliver via a dedicated urgent event so ordering stays in the queue.
        sim = self.sim
        evt = sim._internal_event(
            "interrupt", False, Interrupted(cause), self._deliver_interrupt
        )
        sim._seq += 1
        sim._post(sim.now, _URGENT_BASE + sim._seq, evt)

    # -- internals -------------------------------------------------------

    def _deliver_interrupt(self, evt: Event) -> None:
        if not self.is_alive:  # died before delivery; drop silently
            return
        self._step(throw=evt._value)

    def _resume(self, evt: Event) -> None:
        self._waiting_on = None
        if evt._ok:
            self._step(send=evt._value)
        else:
            self._step(throw=evt._value)

    def _step(self, send: Any = None, throw: BaseException | None = None) -> None:
        sim = self.sim
        prev, sim.active_process = sim.active_process, self
        try:
            if throw is not None:
                target = self._gen.throw(throw)
            else:
                target = self._gen.send(send)
        except StopIteration as stop:
            sim.active_process = prev
            self.succeed(stop.value)
            return
        except StopProcess:
            sim.active_process = prev
            self.succeed(None)
            return
        except BaseException as exc:
            sim.active_process = prev
            if sim.strict:
                self.fail(exc)
                raise
            self.fail(exc)
            return
        finally:
            sim.active_process = prev
        self._arm(target)

    def _terminate(self, exc: BaseException) -> None:
        """Finish the process after its generator raised ``exc``.

        Called from the drain loop's inline-resume path (the equivalent
        ``except`` arms of :meth:`_step`); re-raises in strict mode with
        the original traceback.
        """
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        elif isinstance(exc, StopProcess):
            self.succeed(None)
        else:
            self.fail(exc)
            if self.sim.strict:
                raise

    def _arm(self, target: Any) -> None:
        """Block this process on ``target`` (the event it just yielded)."""
        sim = self.sim
        if not isinstance(target, Event):
            err = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            self._gen.close()
            self.fail(err)
            if sim.strict:
                raise err
            return
        if target.callbacks is None:
            # Already processed: resume immediately-but-not-recursively via
            # an urgent zero-delay relay event to keep the stack flat.  The
            # relay never escapes this module, so it is drawn from (and
            # returns to) the free list; the owner slot carries the waiter.
            relay = sim._internal_event("relay", target._ok, target._value)
            relay.owner = self
            sim._seq += 1
            sim._post(sim.now, _URGENT_BASE + sim._seq, relay)
            self._waiting_on = relay
        elif target.owner is None and not target.callbacks:
            if target.cancelled:
                raise SimulationError(
                    f"process {self.name!r} yielded cancelled event {target!r}"
                )
            target.owner = self
            self._waiting_on = target
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class Simulator:
    """The event loop: a clock plus a tiered calendar queue of events.

    ``strict`` (default True) re-raises exceptions escaping process
    bodies, which turns silent process deaths into test failures — per
    the guides' "make it work reliably" rule.

    ``scheduler`` selects the queue backend: ``"wheel"`` (tiered
    calendar queue, the default) or ``"heap"`` (the PR 2 binary heap,
    kept as the equivalence baseline).  ``None`` defers to the
    ``REPRO_SCHEDULER`` environment variable, so sweep workers and the
    equivalence harness can switch modes without plumbing.  Both modes
    fire events in the identical ``(time, priority, seq)`` total order.
    """

    def __init__(self, strict: bool = True, scheduler: str | None = None) -> None:
        self.now: float = 0.0
        self.strict = strict
        self.active_process: Process | None = None
        #: the process the drain loop is resuming as sole owner of a
        #: callback-free event that is not the ``run(until=...)`` target
        #: (None otherwise) — the context of an inline grant, see
        #: :meth:`_grant_is_next`.
        self._grantee: Process | None = None
        self._seq = 0
        self._event_count = 0
        #: the solo slot: the single pending entry when the rest of the
        #: queue is empty.  Every push goes through :meth:`_post`, which
        #: demotes the slot into the structure the moment a second entry
        #: arrives, so ordering is unaffected.
        self._solo: tuple[float, int, Event] | None = None
        #: entries living in the backing structure (everything but solo).
        self._nstruct = 0
        # -- heap backend ------------------------------------------------
        self._heap: list[tuple[float, int, Event]] = []
        # -- wheel backend -----------------------------------------------
        #: sorted current bucket: every queued entry with when < _cur_end.
        self._cur: list[tuple[float, int, Event]] = []
        #: unsorted wheel buckets for [_cur_end, _horizon), indexed by
        #: bucket ordinal modulo _NBUCKETS.
        self._buckets: list[list[tuple[float, int, Event]]] = [
            [] for _ in range(_NBUCKETS)
        ]
        self._nbucketed = 0
        #: overflow heap for entries at or beyond the wheel horizon.
        self._far: list[tuple[float, int, Event]] = []
        #: current bucket ordinal; bucket ``g`` covers [g*_W, (g+1)*_W).
        self._gb = 0
        self._cur_end = _W
        self._horizon = _NBUCKETS * _W
        if scheduler is None:
            scheduler = os.environ.get("REPRO_SCHEDULER", "wheel")
        if scheduler == "wheel":
            self._insert = self._wheel_insert
            self._pop_struct = self._wheel_pop
        elif scheduler == "heap":
            self._insert = self._heap_insert
            self._pop_struct = self._heap_pop
        else:
            raise ValueError(
                f"unknown scheduler {scheduler!r} (expected 'wheel' or 'heap')"
            )
        self.scheduler = scheduler
        #: free lists of recycled one-shot events (exact types only);
        #: repopulated by the run loop when it held the last reference.
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []
        #: cross-layer span recorder (repro.obs); the shared null
        #: recorder by default, so instrument sites cost one attribute
        #: load and an ``enabled`` check unless tracing is switched on.
        self.trace = NULL_TRACE
        #: runtime invariant monitors (repro.obs.monitors); components
        #: report conservation checks here as the simulation runs.
        self.monitors = MonitorHub(self)

    def enable_tracing(self) -> TraceRecorder:
        """Attach (or return) a live TraceRecorder bound to this clock."""
        if not self.trace.enabled:
            self.trace = TraceRecorder(clock=lambda: self.now)
        return self.trace

    # -- queue backends ---------------------------------------------------

    def _post(self, when: float, key: int, event: Event) -> None:
        """Queue an entry: solo slot if the queue is empty, else structure."""
        if self._solo is None and self._nstruct == 0:
            self._solo = (when, key, event)
        else:
            self._push_full(when, key, event)

    def _push_full(self, when: float, key: int, event: Event) -> None:
        insert = self._insert
        solo = self._solo
        if solo is not None:
            self._solo = None
            insert(solo)
            self._nstruct += 1
        insert((when, key, event))
        self._nstruct += 1

    def _heap_insert(self, entry: tuple[float, int, Event]) -> None:
        _heappush(self._heap, entry)

    def _heap_pop(self) -> "tuple[float, int, Event] | None":
        heap = self._heap
        if not heap:
            return None
        self._nstruct -= 1
        return _heappop(heap)

    def _wheel_insert(self, entry: tuple[float, int, Event]) -> None:
        when = entry[0]
        if when < self._cur_end:
            _heappush(self._cur, entry)
        elif when < self._horizon:
            self._buckets[int(when * _INV_W) % _NBUCKETS].append(entry)
            self._nbucketed += 1
        else:
            _heappush(self._far, entry)

    def _wheel_pop(self) -> "tuple[float, int, Event] | None":
        cur = self._cur
        if cur:
            self._nstruct -= 1
            return _heappop(cur)
        if self._nstruct == 0:
            return None
        # Advance the wheel until the current bucket has an entry.  Each
        # advance refills _cur from the next bucket and cascades one
        # bucket-width of the overflow heap in; when the wheel itself is
        # empty the spin guard jumps straight to the overflow head
        # instead of stepping 512 times per 4 ms of idle simulated time.
        buckets = self._buckets
        far = self._far
        nb = self._nbucketed
        while not cur:
            if nb == 0 and not far:  # pragma: no cover - count mismatch guard
                self._nbucketed = 0
                return None
            gb = self._gb + 1
            if nb == 0:
                head_ordinal = int(far[0][0] * _INV_W)
                if head_ordinal > gb:
                    gb = head_ordinal
            self._gb = gb
            cur_end = (gb + 1) * _W
            self._cur_end = cur_end
            horizon = (gb + _NBUCKETS) * _W
            self._horizon = horizon
            slot = gb % _NBUCKETS
            filled = buckets[slot]
            if filled:
                buckets[slot] = []
                nb -= len(filled)
                cur.extend(filled)
            while far and far[0][0] < horizon:
                entry = _heappop(far)
                when = entry[0]
                if when < cur_end:
                    cur.append(entry)
                else:
                    buckets[int(when * _INV_W) % _NBUCKETS].append(entry)
                    nb += 1
            if cur:
                _heapify(cur)
        self._nbucketed = nb
        self._nstruct -= 1
        return _heappop(cur)

    # -- factory helpers -------------------------------------------------

    # Pool invariants (kept by every recycle site so the reinit paths
    # below can skip stores): a pooled event has ``callbacks == []``
    # (the original list, cleared and restored — no per-reuse alloc),
    # ``owner is None``, ``cancelled is False``; a pooled Timeout
    # additionally has ``_ok is True`` (timeouts never fail) and its
    # stale ``abandoned`` flag is never read (only resource queues read
    # ``abandoned``, and only on their own plain waiter events).

    def event(self, name: str = "") -> Event:
        pool = self._event_pool
        if pool:
            evt = pool.pop()
            evt._value = _PENDING
            evt._ok = None
            evt.abandoned = False
            evt.name = name
            return evt
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool and delay >= 0:
            to = pool.pop()
            to._value = value
            to.delay = delay
            self._seq += 1
            key = _NORMAL_BASE + self._seq
            when = self.now + delay
            if self._solo is None and self._nstruct == 0:
                self._solo = (when, key, to)
            else:
                self._push_full(when, key, to)
            return to
        return Timeout(self, delay, value)

    def _internal_event(
        self,
        name: str,
        ok: bool,
        value: Any,
        callback: "Callable[[Event], None] | None" = None,
    ) -> Event:
        """A pre-triggered internal event (init/relay/interrupt), pooled.

        The caller is responsible for queueing it (and for setting
        ``owner`` when the waiter is a process rather than a callback).
        """
        pool = self._event_pool
        if pool:
            evt = pool.pop()
            evt.abandoned = False
            evt.name = name
            if callback is not None:
                evt.callbacks.append(callback)
        else:
            evt = Event(self, name)
            if callback is not None:
                evt.callbacks.append(callback)
        evt._ok = ok
        evt._value = value
        return evt

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process from generator ``gen``."""
        return Process(self, gen, name)

    # `process` alias mirrors SimPy naming for familiarity.
    process = spawn

    # -- scheduling -------------------------------------------------------

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        if delay < 0:
            raise SchedulingInPast(self.now, self.now + delay)
        self._seq += 1
        self._post(
            self.now + delay, (priority << _PRIO_SHIFT) + self._seq, event
        )

    def schedule_call(
        self, delay: float, fn: Callable[[], None], priority: int = NORMAL
    ) -> Event:
        """Run a plain callable after ``delay`` (no process needed)."""
        evt = self.event("call")
        evt.callbacks.append(lambda _e: fn())
        evt._ok = True
        evt._value = None
        self._enqueue(evt, delay, priority)
        return evt

    # -- running ----------------------------------------------------------

    @property
    def events_processed(self) -> int:
        return self._event_count

    def peek(self) -> float:
        """Time of the next *live* event, or ``inf`` if the queue is empty.

        Rarely called (tests and diagnostics), so the wheel variant may
        scan its buckets rather than keep them sorted.
        """
        best = float("inf")
        solo = self._solo
        if solo is not None and not solo[2].cancelled:
            best = solo[0]
        for entry in self._heap:
            if entry[0] < best and not entry[2].cancelled:
                best = entry[0]
        for entry in self._cur:
            if entry[0] < best and not entry[2].cancelled:
                best = entry[0]
        for bucket in self._buckets:
            for entry in bucket:
                if entry[0] < best and not entry[2].cancelled:
                    best = entry[0]
        for entry in self._far:
            if entry[0] < best and not entry[2].cancelled:
                best = entry[0]
        return best

    # -- exact elision ------------------------------------------------------

    def _grant_is_next(self) -> bool:
        """May the active process take a free resource unit inline?

        True when the drain loop is resuming the active process as the
        sole owner of a callback-free event that is not the ``until``
        target, and no queued entry is due at or before ``now``.  A grant
        event posted now would then be the very next entry to fire, and
        firing it would resume this same process and nothing else, so
        the caller may take the unit and keep running — after bumping
        ``_seq`` once, as posting would, so every later key is
        unchanged (see the ``acquire_inline`` methods in resources.py).
        Otherwise the grant must be posted.
        """
        proc = self._grantee
        if proc is None or proc is not self.active_process:
            return False
        now = self.now
        solo = self._solo
        if solo is not None and solo[0] <= now:
            return False
        if self._nstruct:
            # Heap mode keeps every entry in _heap; wheel mode keeps the
            # earliest ones in _cur and the rest at or after _cur_end.
            head = self._cur or self._heap
            if head:
                return head[0][0] > now
            return self._cur_end > now
        return True

    def _exit_is_unobserved(self, proc: Process) -> bool:
        """May a process that just finished skip posting its exit event?

        True when nothing waits on ``proc`` and nothing outside the drain
        loop holds it, so no one can ever wait on it: firing its exit
        event would run nothing.  The drain loop's local, this call's
        parameter and getrefcount's argument are the three references a
        process nobody else holds has at this check.
        """
        return (
            proc.owner is None
            and not proc.callbacks
            and _getrefcount(proc) == 3
        )

    def _pop_next(self) -> "tuple[float, int, Event] | None":
        solo = self._solo
        if solo is not None:
            self._solo = None
            return solo
        return self._pop_struct()

    def step(self) -> None:
        """Fire the single next live event (skipping tombstones)."""
        while True:
            entry = self._pop_next()
            if entry is None:
                raise IndexError("step from an empty queue")
            when, _key, event = entry
            if event.cancelled:
                self._discard(event)
                continue
            if when < self.now:  # pragma: no cover - queue invariant
                raise SchedulingInPast(self.now, when)
            self.now = when
            self._fire(event)
            self._recycle(event)
            return

    def _fire(self, event: Event) -> None:
        """Run an event's waiters: owner first, then callbacks, in order."""
        callbacks = event.callbacks
        event.callbacks = None
        self._event_count += 1
        owner = event.owner
        if owner is not None:
            event.owner = None
            owner._waiting_on = None
            if event._ok:
                owner._step(send=event._value)
            else:
                owner._step(throw=event._value)
        if callbacks:
            for cb in callbacks:
                cb(event)

    def _discard(self, event: Event) -> None:
        """Drop a tombstoned entry: mark processed, recycle, don't count."""
        event.callbacks = None
        event.owner = None
        event.cancelled = False
        self._recycle(event)

    def _recycle(self, event: Event) -> None:
        """Return a processed event to its free list — only if the run loop
        holds the last reference, so events user code still points at are
        never reused under it.  At the check, exactly three references
        exist for a loop-only event: the caller's local, this function's
        parameter, and ``getrefcount``'s own argument slot."""
        cls = event.__class__
        if cls is Timeout:
            pool = self._timeout_pool
        elif cls is Event:
            pool = self._event_pool
        else:
            return
        if _getrefcount(event) == 3 and len(pool) < _POOL_MAX:
            event.callbacks = []
            pool.append(event)

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        * ``until=None`` — run to exhaustion.
        * ``until=<float>`` — advance the clock exactly to that time.
        * ``until=<Event>`` — run until that event is processed and return
          its value (raising it if the event failed).
        """
        if until is None:
            self._drain(None)
            return None

        if isinstance(until, Event):
            if until.processed:
                if not until._ok:
                    raise until._value
                return until._value
            self._drain(until)
            if until.callbacks is not None:
                raise SimulationError(
                    f"simulation ran dry before {until!r} triggered"
                )
            if not until._ok:
                raise until._value
            return until._value

        deadline = float(until)
        if deadline < self.now:
            raise SchedulingInPast(self.now, deadline)
        # A sentinel with a key above every real priority: all real
        # events at the deadline instant fire first, then the sentinel
        # stops the drain.  It is built directly (not pooled) so the
        # free lists never see it, and un-counted below.
        marker = Event(self, "deadline")
        marker._ok = True
        marker._value = None
        self._seq += 1
        self._post(deadline, _MARKER_BASE + self._seq, marker)
        self._drain(marker)
        self._event_count -= 1
        self.now = deadline
        return None

    def _drain(self, until: "Event | None") -> None:
        """The inner event loop: pop → resume owner / fire callbacks → recycle.

        Stops when the queue empties or ``until`` has been processed.
        The body is ``step()`` with the solo slot, the owner-slot
        generator resume, and pooling all inlined: one method call per
        event is measurable at tens of millions of events per run.
        """
        getrc = _getrefcount
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        pop_struct = self._pop_struct
        count = 0
        try:
            while True:
                entry = self._solo
                if entry is not None:
                    self._solo = None
                    when, _key, event = entry
                    entry = None
                else:
                    entry = pop_struct()
                    if entry is None:
                        return
                    when, _key, event = entry
                    entry = None
                if event.cancelled:
                    # Tombstone: drop without firing, counting, or
                    # advancing the clock; recycle when unreferenced.
                    cbs = event.callbacks
                    event.callbacks = None
                    event.owner = None
                    event.cancelled = False
                    cls = event.__class__
                    if cls is Timeout:
                        if getrc(event) == 2 and len(timeout_pool) < _POOL_MAX:
                            if cbs:
                                cbs.clear()
                            event.callbacks = cbs
                            timeout_pool.append(event)
                    elif cls is Event:
                        if getrc(event) == 2 and len(event_pool) < _POOL_MAX:
                            if cbs:
                                cbs.clear()
                            event.callbacks = cbs
                            event_pool.append(event)
                    continue
                self.now = when
                callbacks = event.callbacks
                event.callbacks = None
                count += 1
                owner = event.owner
                if owner is not None:
                    # Inline sole-waiter resume: the body of
                    # Process._resume/_step minus the frames and the
                    # bound-method allocation.
                    event.owner = None
                    owner._waiting_on = None
                    gen = owner._gen
                    prev = self.active_process
                    self.active_process = owner
                    if not callbacks and event is not until:
                        self._grantee = owner
                    try:
                        if event._ok:
                            target = gen.send(event._value)
                        else:
                            target = gen.throw(event._value)
                        # Fused solo spin: while the process keeps
                        # yielding fresh solo timeouts (the pure-churn
                        # shape: one sleeper, empty queue), consume them
                        # here without re-entering the outer loop or
                        # touching owner/_waiting_on — nothing else can
                        # run between two solo events, so that
                        # bookkeeping is unobservable.  Entered only
                        # when the outer event had no callbacks, so no
                        # waiter is delayed past its firing time.
                        while (
                            target.__class__ is Timeout
                            and self._nstruct == 0
                            and not callbacks
                            and (solo := self._solo) is not None
                            and solo[2] is target
                            and not target.cancelled
                            and not target.callbacks
                            and target is not until
                        ):
                            self._solo = None
                            self.now = solo[0]
                            solo = None
                            spare = target.callbacks
                            target.callbacks = None
                            count += 1
                            prev_evt = event
                            event = target
                            target = gen.send(event._value)
                            # Recycle the event consumed one spin ago,
                            # handing it the empty callback list of the
                            # one just consumed (lists are conserved
                            # around the spin, so reuse skips allocs).
                            if prev_evt.__class__ is Timeout:
                                if (
                                    getrc(prev_evt) == 2
                                    and len(timeout_pool) < _POOL_MAX
                                ):
                                    prev_evt.callbacks = spare
                                    timeout_pool.append(prev_evt)
                            prev_evt = None
                            spare = None
                    except BaseException as exc:
                        self.active_process = prev
                        self._grantee = None
                        if (
                            exc.__class__ is StopIteration
                            and self._exit_is_unobserved(owner)
                        ):
                            # Unobserved exit: nobody can ever wait on
                            # the process, so its exit event would fire
                            # for no one.  Mark it processed in place;
                            # the seq bump keeps later keys identical.
                            owner._ok = True
                            owner._value = exc.value
                            owner.callbacks = None
                            self._seq += 1
                        else:
                            owner._terminate(exc)
                    else:
                        self.active_process = prev
                        self._grantee = None
                        if target.__class__ is Timeout:
                            tcb = target.callbacks
                            if (
                                tcb is not None
                                and not tcb
                                and target.owner is None
                                and not target.cancelled
                            ):
                                # Fresh timeout, no other waiters: take
                                # the owner slot without touching _arm.
                                target.owner = owner
                                owner._waiting_on = target
                            else:
                                owner._arm(target)
                        else:
                            owner._arm(target)
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                if event is until:
                    return
                # Inline recycle: two references mean only the loop
                # local (+ getrefcount's argument slot) is left.  The
                # (cleared) callback list is handed back so the next
                # reuse skips the alloc.
                cls = event.__class__
                if cls is Timeout:
                    if getrc(event) == 2 and len(timeout_pool) < _POOL_MAX:
                        if callbacks:
                            callbacks.clear()
                        event.callbacks = callbacks
                        timeout_pool.append(event)
                elif cls is Event:
                    if getrc(event) == 2 and len(event_pool) < _POOL_MAX:
                        if callbacks:
                            callbacks.clear()
                        event.callbacks = callbacks
                        event_pool.append(event)
        finally:
            self._event_count += count

    def run_all(self, procs: Iterable[Process]) -> list[Any]:
        """Run until every process in ``procs`` has finished."""
        out = []
        for proc in procs:
            out.append(self.run(until=proc))
        return out
