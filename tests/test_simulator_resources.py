"""Unit tests for Resource, Mutex, Store, WaitQueue, TokenBucket."""

from __future__ import annotations

import pytest

from repro.simulator import (
    Mutex,
    Resource,
    SimulationError,
    Simulator,
    Store,
    TokenBucket,
    WaitQueue,
)
from tests.conftest import posted_only


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, 0)

    def test_immediate_acquire(self, sim, runner):
        res = Resource(sim, 2)

        def proc(sim):
            yield res.acquire()
            return (res.available, res.in_use)

        assert runner(proc(sim)) == (1, 1)

    def test_blocks_when_exhausted(self, sim):
        res = Resource(sim, 1)
        order = []

        def holder(sim):
            yield res.acquire()
            yield sim.timeout(10)
            order.append("holder-release")
            res.release()

        def waiter(sim):
            yield res.acquire()
            order.append(f"waiter-got@{sim.now}")
            res.release()

        sim.spawn(holder(sim))
        p = sim.spawn(waiter(sim))
        sim.run(until=p)
        assert order == ["holder-release", "waiter-got@10.0"]

    def test_fifo_no_barging(self, sim):
        res = Resource(sim, 2)
        got = []

        def taker(sim, name, units):
            yield res.acquire(units)
            got.append(name)

        def setup(sim):
            yield res.acquire(2)  # drain
            sim.spawn(taker(sim, "big", 2))
            yield sim.timeout(1)
            sim.spawn(taker(sim, "small", 1))
            yield sim.timeout(1)
            # Release one unit: 'small' COULD run but 'big' is queued
            # first — FIFO means nobody proceeds yet.
            res.release(1)
            yield sim.timeout(1)
            assert got == []
            res.release(1)
            yield sim.timeout(1)
            assert got == ["big"]

        p = sim.spawn(setup(sim))
        sim.run(until=p)

    def test_acquire_more_than_capacity_rejected(self, sim):
        res = Resource(sim, 2)
        with pytest.raises(ValueError):
            res.acquire(3)

    def test_over_release_detected(self, sim):
        res = Resource(sim, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_try_acquire(self, sim):
        res = Resource(sim, 1)
        assert res.try_acquire()
        assert not res.try_acquire()
        res.release()
        assert res.try_acquire()

    def test_try_acquire_respects_waiters(self, sim, runner):
        res = Resource(sim, 1)

        def proc(sim):
            yield res.acquire()
            res.acquire()  # queue a waiter
            res.release()
            return res.try_acquire()

        # After release the queued waiter got the unit; try must fail.
        assert runner(proc(sim)) is False

    def test_utilization_accounting(self, sim):
        res = Resource(sim, 1)

        def proc(sim):
            yield res.acquire()
            yield sim.timeout(50)
            res.release()
            yield sim.timeout(50)

        p = sim.spawn(proc(sim))
        sim.run(until=p)
        assert res.utilization() == pytest.approx(0.5)

    def test_queue_length(self, sim, runner):
        res = Resource(sim, 1)

        def proc(sim):
            yield res.acquire()
            res.acquire()
            res.acquire()
            return res.queue_length

        assert runner(proc(sim)) == 2


class TestMutex:
    def test_mutual_exclusion(self, sim):
        m = Mutex(sim)
        inside = []

        def critical(sim, name):
            yield m.lock()
            inside.append(name)
            assert len(inside) == 1
            yield sim.timeout(5)
            inside.remove(name)
            m.unlock()

        procs = [sim.spawn(critical(sim, i)) for i in range(4)]
        sim.run_all(procs)

    def test_locked_property(self, sim, runner):
        m = Mutex(sim)

        def proc(sim):
            assert not m.locked
            yield m.lock()
            assert m.locked
            m.unlock()
            return m.locked

        assert runner(proc(sim)) is False


class TestStore:
    def test_put_then_get(self, sim, runner):
        st = Store(sim)
        st.put("a")
        st.put("b")

        def proc(sim):
            x = yield st.get()
            y = yield st.get()
            return (x, y)

        assert runner(proc(sim)) == ("a", "b")

    def test_get_blocks_until_put(self, sim):
        st = Store(sim)

        def getter(sim):
            item = yield st.get()
            return (item, sim.now)

        def putter(sim):
            yield sim.timeout(7)
            st.put("late")

        p = sim.spawn(getter(sim))
        sim.spawn(putter(sim))
        assert sim.run(until=p) == ("late", 7.0)

    def test_put_front(self, sim, runner):
        st = Store(sim)
        st.put("second")
        st.put_front("first")

        def proc(sim):
            return (yield st.get())

        assert runner(proc(sim)) == "first"

    def test_waiting_getters_fifo(self, sim):
        st = Store(sim)
        got = []

        def getter(sim, name):
            item = yield st.get()
            got.append((name, item))

        procs = [sim.spawn(getter(sim, i)) for i in range(3)]

        def putter(sim):
            yield sim.timeout(1)
            for item in "abc":
                st.put(item)

        sim.spawn(putter(sim))
        sim.run_all(procs)
        assert got == [(0, "a"), (1, "b"), (2, "c")]

    def test_try_get(self, sim):
        st = Store(sim)
        assert st.try_get() is None
        st.put(1)
        assert st.try_get() == 1

    def test_drain(self, sim):
        st = Store(sim)
        for i in range(5):
            st.put(i)
        assert st.drain() == [0, 1, 2, 3, 4]
        assert len(st) == 0

    def test_depth_tracking(self, sim):
        st = Store(sim)
        for i in range(3):
            st.put(i)
        st.try_get()
        assert st.max_depth == 3
        assert st.total_put == 3


class TestWaitQueue:
    def test_wake_one_fifo(self, sim):
        wq = WaitQueue(sim)
        woken = []

        def waiter(sim, name):
            yield wq.wait()
            woken.append(name)

        procs = [sim.spawn(waiter(sim, i)) for i in range(3)]

        def waker(sim):
            yield sim.timeout(1)
            wq.wake_one()
            yield sim.timeout(1)
            wq.wake_all()

        sim.spawn(waker(sim))
        sim.run_all(procs)
        assert woken == [0, 1, 2]

    def test_wake_with_no_waiters_lost_without_latch(self, sim):
        wq = WaitQueue(sim)
        assert wq.wake_one() is False

        def waiter(sim):
            yield wq.wait()  # would hang forever
            return "woke"

        p = sim.spawn(waiter(sim))
        sim.run()
        assert p.is_alive  # never woken: the wakeup was lost (by design)

    def test_latch_remembers_one_wakeup(self, sim, runner):
        wq = WaitQueue(sim, latch=True)
        wq.wake_one()

        def waiter(sim):
            yield wq.wait()  # latched token satisfies immediately
            return sim.now

        assert runner(waiter(sim)) == 0.0

    def test_latch_holds_single_token(self, sim):
        wq = WaitQueue(sim, latch=True)
        wq.wake_one()
        wq.wake_one()  # collapses into the same token

        def waiter(sim, out):
            yield wq.wait()
            out.append(sim.now)

        out: list[float] = []
        sim.spawn(waiter(sim, out))
        p2 = sim.spawn(waiter(sim, out))
        sim.run()
        assert out == [0.0]  # second waiter still asleep
        assert p2.is_alive

    def test_wake_value_passthrough(self, sim, runner):
        wq = WaitQueue(sim)

        def waiter(sim):
            v = yield wq.wait()
            return v

        def waker(sim):
            yield sim.timeout(1)
            wq.wake_one("payload")

        sim.spawn(waker(sim))
        assert runner(waiter(sim)) == "payload"


class TestTokenBucket:
    def test_needs_positive_tokens(self, sim):
        with pytest.raises(ValueError):
            TokenBucket(sim, 0)

    def test_acquire_release_cycle(self, sim, runner):
        tb = TokenBucket(sim, 3)

        def proc(sim):
            yield tb.acquire(2)
            assert tb.tokens == 1
            tb.release(2)
            return tb.tokens

        assert runner(proc(sim)) == 3

    def test_blocks_without_credit(self, sim):
        tb = TokenBucket(sim, 1)

        def user(sim):
            yield tb.acquire()
            yield sim.timeout(10)
            tb.release()

        def waiter(sim):
            yield tb.acquire()
            return sim.now

        sim.spawn(user(sim))
        p = sim.spawn(waiter(sim))
        assert sim.run(until=p) == 10.0
        assert tb.stall_count == 1

    def test_overflow_release_detected(self, sim):
        tb = TokenBucket(sim, 2)
        with pytest.raises(SimulationError):
            tb.release()

    def test_fifo_handoff(self, sim):
        tb = TokenBucket(sim, 2)
        got = []

        def taker(sim, name, n):
            yield tb.acquire(n)
            got.append(name)

        def setup(sim):
            yield tb.acquire(2)
            sim.spawn(taker(sim, "two", 2))
            yield sim.timeout(1)
            sim.spawn(taker(sim, "one", 1))
            yield sim.timeout(1)
            tb.release(1)  # head needs 2: nobody runs
            yield sim.timeout(1)
            assert got == []
            tb.release(1)
            yield sim.timeout(1)
            assert got == ["two"]

        p = sim.spawn(setup(sim))
        sim.run(until=p)


class TestInterruptedWaiters:
    """Interrupting a process that waits in a queue must not leak the
    capacity that would later have been granted to it."""

    def test_resource_skips_abandoned_waiter(self, sim):
        from repro.simulator import Interrupted

        res = Resource(sim, 1)
        got = []

        def holder(sim):
            yield res.acquire()
            yield sim.timeout(10)
            res.release()

        def doomed(sim):
            try:
                yield res.acquire()
                got.append("doomed")  # must never run
                res.release()
            except Interrupted:
                return "killed"

        def patient(sim):
            yield res.acquire()
            got.append("patient")
            res.release()

        sim.spawn(holder(sim))
        d = sim.spawn(doomed(sim))
        p = sim.spawn(patient(sim))

        def killer(sim):
            yield sim.timeout(5)
            d.interrupt("cancel")

        sim.spawn(killer(sim))
        sim.run(until=p)
        assert got == ["patient"]
        assert res.available == 1  # no capacity leaked

    def test_tokenbucket_skips_abandoned_waiter(self, sim):
        from repro.simulator import Interrupted

        tb = TokenBucket(sim, 1)
        got = []

        def holder(sim):
            yield tb.acquire()
            yield sim.timeout(10)
            tb.release()

        def doomed(sim):
            try:
                yield tb.acquire()
                got.append("doomed")
            except Interrupted:
                pass

        def patient(sim):
            yield tb.acquire()
            got.append("patient")
            tb.release()

        sim.spawn(holder(sim))
        d = sim.spawn(doomed(sim))
        p = sim.spawn(patient(sim))
        sim.schedule_call(5.0, lambda: d.interrupt())
        sim.run(until=p)
        assert got == ["patient"]
        assert tb.tokens == 1

    def test_store_skips_abandoned_getter(self, sim):
        from repro.simulator import Interrupted

        st = Store(sim)
        got = []

        def doomed(sim):
            try:
                item = yield st.get()
                got.append(("doomed", item))
            except Interrupted:
                pass

        def patient(sim):
            item = yield st.get()
            got.append(("patient", item))

        d = sim.spawn(doomed(sim))
        p = sim.spawn(patient(sim))

        def producer(sim):
            yield sim.timeout(5)
            d.interrupt()
            yield sim.timeout(1)
            st.put("item")

        sim.spawn(producer(sim))
        sim.run(until=p)
        assert got == [("patient", "item")]

    def test_waitqueue_skips_abandoned_waiter(self, sim):
        from repro.simulator import Interrupted

        wq = WaitQueue(sim)
        got = []

        def doomed(sim):
            try:
                yield wq.wait()
                got.append("doomed")
            except Interrupted:
                pass

        def patient(sim):
            yield wq.wait()
            got.append("patient")

        d = sim.spawn(doomed(sim))
        p = sim.spawn(patient(sim))
        sim.schedule_call(5.0, lambda: d.interrupt())
        sim.schedule_call(6.0, lambda: wq.wake_one())
        sim.run(until=p)
        assert got == ["patient"]


def _both_ways(monkeypatch, scenario):
    """Run ``scenario(sim, log)`` with the elision rules on, then with
    every grant and exit posted; return ``(inline, posted)`` as
    ``(log, final seq, final clock, events processed)``."""
    out = []
    for posted in (False, True):
        with monkeypatch.context() as m:
            if posted:
                posted_only(m)
            sim = Simulator()
            log: list = []
            scenario(sim, log)
            out.append((log, sim._seq, sim.now, sim.events_processed))
    return out


def _inline_acquire(res, log, tag):
    """``yield res.acquire()`` in the inline-grant idiom, logging which
    path was taken."""
    took = res.acquire_inline()
    log.append((tag, "inline" if took else "posted", res.sim.now))
    if not took:
        yield res.acquire()


class TestInlineGrant:
    """A free unit is taken inline only when the posted grant would be
    the very next event and would resume the same process; everywhere
    else the grant is posted and the firing order is today's."""

    def _same_order(self, monkeypatch, scenario, path):
        """Both runs log the same order, clock and final seq, and every
        acquire of the elision run took ``path``."""
        inline, posted = _both_ways(monkeypatch, scenario)

        def paths(log):
            return [e[1] for e in log if e[1] in ("inline", "posted")]

        def order(log):
            return [e for e in log if e[1] not in ("inline", "posted")]

        assert order(inline[0]) == order(posted[0])
        assert inline[1:3] == posted[1:3]
        assert set(paths(inline[0])) == {path}
        assert set(paths(posted[0])) == {"posted"}
        return inline, posted

    def test_free_unit_is_taken_inline(self, monkeypatch):
        def scenario(sim, log):
            res = Resource(sim, 1)

            def user(sim):
                yield sim.timeout(1)
                yield from _inline_acquire(res, log, "a")
                log.append(("a-has", sim.now, sim._seq))
                yield sim.timeout(2)
                res.release()

            sim.spawn(user(sim))
            sim.run()

        inline, posted = self._same_order(monkeypatch, scenario, "inline")
        # Neither the grant nor the exit of the unheld process is posted.
        assert inline[3] == posted[3] - 2

    def test_token_bucket_inline(self, monkeypatch):
        def scenario(sim, log):
            tb = TokenBucket(sim, 2)

            def user(sim):
                yield sim.timeout(1)
                yield from _inline_acquire(tb, log, "a")
                log.append(("a-has", tb.tokens, sim._seq))

            sim.spawn(user(sim))
            sim.run()

        self._same_order(monkeypatch, scenario, "inline")

    def test_other_entry_due_now_posts(self, monkeypatch):
        def scenario(sim, log):
            res = Resource(sim, 1)

            def user(sim, name):
                yield sim.timeout(1)
                yield from _inline_acquire(res, log, name)
                log.append((name, "has", sim.now))
                yield sim.timeout(1)
                res.release()

            sim.spawn(user(sim, "a"))
            sim.spawn(user(sim, "b"))
            sim.run()

        inline, _ = self._same_order(monkeypatch, scenario, "posted")
        # a's grant must wait behind b's timeout at t=1; b then queues
        # behind a for the unit.
        assert inline[0][:3] == [
            ("a", "posted", 1.0), ("b", "posted", 1.0), ("a", "has", 1.0),
        ]

    def test_urgent_interrupt_due_now_posts(self, monkeypatch):
        from repro.simulator import Interrupted

        def scenario(sim, log):
            res = Resource(sim, 1)

            def sleeper(sim):
                try:
                    yield sim.timeout(100)
                except Interrupted:
                    log.append(("sleeper-interrupted", sim.now))

            def user(sim, victim):
                yield sim.timeout(1)
                victim.interrupt()
                yield from _inline_acquire(res, log, "a")
                log.append(("a-has", sim.now))
                res.release()

            victim = sim.spawn(sleeper(sim))
            sim.spawn(user(sim, victim))
            sim.run()

        inline, _ = self._same_order(monkeypatch, scenario, "posted")
        assert inline[0][1:] == [("sleeper-interrupted", 1.0), ("a-has", 1.0)]

    def test_spawn_due_now_posts(self, monkeypatch):
        def scenario(sim, log):
            res = Resource(sim, 1)

            def child(sim):
                log.append(("child-runs", sim.now))
                yield sim.timeout(0)

            def user(sim):
                yield sim.timeout(1)
                sim.spawn(child(sim))
                yield from _inline_acquire(res, log, "a")
                log.append(("a-has", sim.now))
                res.release()

            sim.spawn(user(sim))
            sim.run()

        inline, _ = self._same_order(monkeypatch, scenario, "posted")
        assert inline[0][1:] == [("child-runs", 1.0), ("a-has", 1.0)]

    def test_resuming_event_with_callbacks_posts(self, monkeypatch):
        def scenario(sim, log):
            res = Resource(sim, 1)
            gate = sim.event("gate")

            def user(sim):
                yield gate
                yield from _inline_acquire(res, log, "a")
                log.append(("a-has", sim.now))
                res.release()

            def opener(sim):
                yield sim.timeout(1)
                gate.callbacks.append(lambda e: log.append(("cb", sim.now)))
                gate.succeed()

            sim.spawn(user(sim))
            sim.spawn(opener(sim))
            sim.run()

        inline, _ = self._same_order(monkeypatch, scenario, "posted")
        assert inline[0][1:] == [("cb", 1.0), ("a-has", 1.0)]

    def test_until_target_posts(self, monkeypatch):
        def scenario(sim, log):
            res = Resource(sim, 1)
            gate = sim.event("gate")

            def user(sim):
                yield gate
                yield from _inline_acquire(res, log, "a")
                log.append(("a-has", sim.now))
                res.release()

            sim.spawn(user(sim))
            sim.schedule_call(1, gate.succeed)
            sim.run(until=gate)
            log.append(("run-returned", sim.now))
            sim.run()

        inline, _ = self._same_order(monkeypatch, scenario, "posted")
        assert inline[0][1:] == [("run-returned", 1.0), ("a-has", 1.0)]

    def test_step_posts(self, monkeypatch):
        def scenario(sim, log):
            res = Resource(sim, 1)

            def user(sim):
                yield sim.timeout(1)
                yield from _inline_acquire(res, log, "a")
                log.append(("a-has", sim.now))
                res.release()

            sim.spawn(user(sim))
            steps = 0
            while sim.peek() < float("inf"):
                sim.step()
                steps += 1
            log.append(("steps", steps))

        self._same_order(monkeypatch, scenario, "posted")

    def test_callback_waiter_posts(self, monkeypatch):
        """A process resumed through a callback — here the second waiter
        of an event whose owner slot was interrupted away — is not the
        drain loop's sole owner, so its grant is posted."""
        from repro.simulator import Interrupted

        def scenario(sim, log):
            res = Resource(sim, 1)
            gate = sim.event("gate")

            def first(sim):
                try:
                    yield gate
                except Interrupted:
                    log.append(("first-interrupted", sim.now))

            def second(sim):
                yield gate
                yield from _inline_acquire(res, log, "b")
                log.append(("b-has", sim.now))
                res.release()

            def trigger(sim, victim):
                yield sim.timeout(1)
                victim.interrupt()
                yield sim.timeout(1)
                gate.succeed()

            victim = sim.spawn(first(sim))
            sim.spawn(second(sim))
            sim.spawn(trigger(sim, victim))
            sim.run()

        inline, _ = self._same_order(monkeypatch, scenario, "posted")
        assert inline[0] == [
            ("first-interrupted", 1.0), ("b", "posted", 2.0), ("b-has", 2.0),
        ]

    def test_queued_waiter_blocks_inline(self, sim):
        res = Resource(sim, 1)
        seen = []

        def holder(sim):
            yield res.acquire()
            yield sim.timeout(5)
            res.release()

        def waiter(sim):
            yield sim.timeout(1)
            seen.append(res.acquire_inline())
            yield res.acquire()
            res.release()

        sim.spawn(holder(sim))
        sim.run(until=sim.spawn(waiter(sim)))
        assert seen == [False]
        assert res.available == 1

    def test_outside_the_drain_loop_posts(self, sim):
        res = Resource(sim, 1)
        assert not res.acquire_inline()
        assert res.available == 1
