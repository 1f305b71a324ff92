"""Unit tests for the discrete-event kernel: events, processes, time."""

from __future__ import annotations

import pytest

from repro.simulator import (
    AlreadyTriggered,
    DeadProcess,
    Event,
    Interrupted,
    LAZY,
    NORMAL,
    SchedulingInPast,
    SimulationError,
    Simulator,
    Timeout,
    URGENT,
)
from tests.conftest import posted_only


class TestEvent:
    def test_starts_pending(self, sim):
        evt = sim.event("e")
        assert not evt.triggered
        assert not evt.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_ok_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().ok

    def test_succeed_carries_value(self, sim):
        evt = sim.event().succeed(42)
        assert evt.triggered
        assert evt.ok
        assert evt.value == 42

    def test_double_succeed_raises(self, sim):
        evt = sim.event().succeed()
        with pytest.raises(AlreadyTriggered):
            evt.succeed()

    def test_fail_then_succeed_raises(self, sim):
        evt = sim.event().fail(RuntimeError("x"))
        with pytest.raises(AlreadyTriggered):
            evt.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callbacks_run_on_step(self, sim):
        seen = []
        evt = sim.event()
        evt.callbacks.append(lambda e: seen.append(e.value))
        evt.succeed("v")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["v"]
        assert evt.processed

    def test_trigger_mirrors_success(self, sim):
        src = sim.event().succeed(7)
        dst = sim.event()
        dst.trigger(src)
        assert dst.ok and dst.value == 7

    def test_trigger_mirrors_failure(self, sim):
        exc = ValueError("boom")
        src = sim.event().fail(exc)
        dst = sim.event()
        dst.trigger(src)
        assert not dst.ok and dst.value is exc


class TestTimeout:
    def test_advances_clock(self, sim, runner):
        def proc(sim):
            yield sim.timeout(5.0)
            return sim.now

        assert runner(proc(sim)) == 5.0

    def test_zero_delay_allowed(self, sim, runner):
        def proc(sim):
            yield sim.timeout(0.0)
            return sim.now

        assert runner(proc(sim)) == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingInPast):
            Timeout(sim, -1.0)

    def test_timeout_value_passthrough(self, sim, runner):
        def proc(sim):
            got = yield sim.timeout(1.0, value="tick")
            return got

        assert runner(proc(sim)) == "tick"

    def test_sequential_timeouts_accumulate(self, sim, runner):
        def proc(sim):
            for _ in range(10):
                yield sim.timeout(1.5)
            return sim.now

        assert runner(proc(sim)) == pytest.approx(15.0)


class TestProcess:
    def test_return_value_is_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return "done"

        p = sim.spawn(proc(sim))
        assert sim.run(until=p) == "done"

    def test_join_another_process(self, sim):
        def child(sim):
            yield sim.timeout(3)
            return 99

        def parent(sim):
            result = yield sim.spawn(child(sim))
            return (result, sim.now)

        p = sim.spawn(parent(sim))
        assert sim.run(until=p) == (99, 3.0)

    def test_join_already_finished_process(self, sim):
        def child(sim):
            yield sim.timeout(1)
            return "early"

        def parent(sim, c):
            yield sim.timeout(10)
            result = yield c  # already processed
            return result

        c = sim.spawn(child(sim))
        p = sim.spawn(parent(sim, c))
        assert sim.run(until=p) == "early"

    def test_spawn_rejects_non_generator(self, sim):
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)

    def test_yield_non_event_fails_strict(self, sim):
        def proc(sim):
            yield 42

        p = sim.spawn(proc(sim))
        with pytest.raises(SimulationError):
            sim.run(until=p)

    def test_exception_propagates_strict(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            raise RuntimeError("kaboom")

        sim.spawn(proc(sim))
        with pytest.raises(RuntimeError, match="kaboom"):
            sim.run()

    def test_exception_nonstrict_fails_event(self):
        sim = Simulator(strict=False)

        def proc(sim):
            yield sim.timeout(1)
            raise RuntimeError("quiet")

        p = sim.spawn(proc(sim))
        sim.run()
        assert p.triggered and not p.ok

    def test_failed_event_raises_in_waiter(self, sim):
        evt = sim.event()

        def failer(sim):
            yield sim.timeout(1)
            evt.fail(ValueError("bad"))

        def waiter(sim):
            try:
                yield evt
            except ValueError:
                return "caught"
            return "missed"

        sim.spawn(failer(sim))
        p = sim.spawn(waiter(sim))
        assert sim.run(until=p) == "caught"

    def test_is_alive_lifecycle(self, sim):
        def proc(sim):
            yield sim.timeout(5)

        p = sim.spawn(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100)
            except Interrupted as e:
                return ("interrupted", e.cause, sim.now)
            return "slept"

        def interrupter(sim, target):
            yield sim.timeout(2)
            target.interrupt("wakeup")

        p = sim.spawn(sleeper(sim))
        sim.spawn(interrupter(sim, p))
        assert sim.run(until=p) == ("interrupted", "wakeup", 2.0)

    def test_interrupt_dead_process_raises(self, sim):
        def proc(sim):
            yield sim.timeout(1)

        p = sim.spawn(proc(sim))
        sim.run()
        with pytest.raises(DeadProcess):
            p.interrupt()

    def test_self_interrupt_rejected(self, sim):
        caught = []

        def proc(sim):
            try:
                me.interrupt()
            except SimulationError as e:
                caught.append(str(e))
            yield sim.timeout(1)

        me = sim.spawn(proc(sim))
        sim.run()
        assert caught and "itself" in caught[0]

    def test_interrupted_process_detaches_from_event(self, sim):
        evt = sim.event()

        def sleeper(sim):
            try:
                yield evt
            except Interrupted:
                yield sim.timeout(5)
                return "recovered"

        def interrupter(sim, target):
            yield sim.timeout(1)
            target.interrupt()
            yield sim.timeout(1)
            evt.succeed("late")  # must not resume the detached sleeper

        p = sim.spawn(sleeper(sim))
        sim.spawn(interrupter(sim, p))
        assert sim.run(until=p) == "recovered"


class TestRun:
    def test_run_until_time(self, sim):
        hits = []

        def proc(sim):
            for _ in range(10):
                yield sim.timeout(1)
                hits.append(sim.now)

        sim.spawn(proc(sim))
        sim.run(until=4.5)
        assert sim.now == 4.5
        assert hits == [1, 2, 3, 4]

    def test_run_until_past_raises(self, sim):
        sim.run(until=10.0)
        with pytest.raises(SchedulingInPast):
            sim.run(until=5.0)

    def test_run_dry_before_event(self, sim):
        evt = sim.event()  # never triggered
        with pytest.raises(SimulationError, match="ran dry"):
            sim.run(until=evt)

    def test_simultaneous_events_fire_in_priority_order(self, sim):
        order = []
        for prio, tag in ((LAZY, "lazy"), (URGENT, "urgent"), (NORMAL, "normal")):
            evt = Event(sim, tag)
            evt.callbacks.append(lambda e: order.append(e.name))
            evt._ok = True
            evt._value = None
            sim._enqueue(evt, 1.0, prio)
        sim.run()
        assert order == ["urgent", "normal", "lazy"]

    def test_fifo_among_equal_priority(self, sim):
        order = []
        for i in range(5):
            evt = Event(sim, str(i))
            evt.callbacks.append(lambda e: order.append(e.name))
            evt._ok = True
            evt._value = None
            sim._enqueue(evt, 2.0, NORMAL)
        sim.run()
        assert order == ["0", "1", "2", "3", "4"]

    def test_schedule_call(self, sim):
        seen = []
        sim.schedule_call(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_events_processed_counter(self, sim, runner):
        def proc(sim):
            for _ in range(7):
                yield sim.timeout(1)

        runner(proc(sim))
        assert sim.events_processed >= 7

    def test_peek_empty_heap(self, sim):
        assert sim.peek() == float("inf")

    def test_run_all(self, sim):
        def proc(sim, d):
            yield sim.timeout(d)
            return d

        procs = [sim.spawn(proc(sim, d)) for d in (3, 1, 2)]
        assert sim.run_all(procs) == [3, 1, 2]


class TestEventPooling:
    """The free-list recycler must never reuse an event user code holds."""

    def test_unreferenced_timeouts_are_recycled(self, sim):
        def proc(sim):
            for _ in range(50):
                yield sim.timeout(1)

        sim.run(until=sim.spawn(proc(sim)))
        assert len(sim._timeout_pool) > 0

    def test_pool_reuse_draws_down_the_free_list(self, sim):
        def proc(sim):
            for _ in range(10):
                yield sim.timeout(1)

        sim.run(until=sim.spawn(proc(sim)))
        before = len(sim._timeout_pool)
        assert before > 0
        to = sim.timeout(3.0, value="fresh")
        assert len(sim._timeout_pool) == before - 1
        assert not to.processed
        assert to.delay == 3.0

        def reader(sim):
            got = yield to
            return got

        assert sim.run(until=sim.spawn(reader(sim))) == "fresh"

    def test_held_timeout_is_never_recycled(self, sim):
        held = sim.timeout(1.0, value="mine")

        def proc(sim):
            for _ in range(20):
                yield sim.timeout(1)

        sim.run(until=sim.spawn(proc(sim)))
        # ``held`` was processed but this frame still references it, so
        # it must keep its identity and value no matter how many new
        # timeouts are created.
        for _ in range(30):
            assert sim.timeout(1) is not held
        assert held.processed
        assert held.value == "mine"

    def test_run_until_event_is_not_recycled(self, sim):
        def child(sim):
            yield sim.timeout(2)
            return "done"

        p = sim.spawn(child(sim))
        assert sim.run(until=p) == "done"
        assert p.value == "done"  # still readable after the run

    def test_recycled_events_preserve_determinism(self):
        """Two identical sims (one pre-warmed pool) fire identically."""

        def workload(sim, log):
            def ping(sim, name):
                for _ in range(5):
                    yield sim.timeout(1)
                    log.append((sim.now, name))

            procs = [sim.spawn(ping(sim, i)) for i in range(3)]
            sim.run_all(procs)

        cold_log: list = []
        cold = Simulator()
        workload(cold, cold_log)

        warm = Simulator()
        warmup: list = []
        workload(warm, warmup)  # fills the free lists
        warm_log: list = []
        workload(warm, warm_log)
        assert [(t - 5.0, n) for t, n in warm_log] == cold_log

    def test_interrupt_still_works_with_pooling(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100)
            except Interrupted:
                return "woken"

        def interrupter(sim, target):
            yield sim.timeout(1)
            target.interrupt()

        p = sim.spawn(sleeper(sim))
        sim.spawn(interrupter(sim, p))
        assert sim.run(until=p) == "woken"
        # the interrupt's internal event went back to the free list
        assert len(sim._event_pool) > 0


class TestUnobservedExit:
    """A finished process nobody holds is marked processed in place; one
    someone holds or waits on still posts its exit event."""

    def test_unheld_process_posts_no_exit(self, monkeypatch):
        def run():
            sim = Simulator()

            def child(sim):
                yield sim.timeout(1)

            for _ in range(3):
                sim.spawn(child(sim))
            sim.run()
            return sim._seq, sim.now, sim.events_processed

        elided = run()
        with monkeypatch.context() as m:
            posted_only(m)
            posted = run()
        assert elided[:2] == posted[:2]
        assert elided[2] == posted[2] - 3

    def test_held_process_fires_exit_for_a_later_join(self, sim):
        def child(sim):
            yield sim.timeout(1)
            return "result"

        held = sim.spawn(child(sim))
        before = sim.events_processed
        sim.run(until=5.0)
        assert held.processed and held.value == "result"
        # init, timeout and the exit event itself
        assert sim.events_processed - before == 3

        def joiner(sim):
            got = yield held
            return got, sim.now

        assert sim.run(until=sim.spawn(joiner(sim))) == ("result", 5.0)

    def test_waited_on_process_fires_exit(self, sim):
        log = []

        def child(sim):
            yield sim.timeout(1)
            return 7

        def parent(sim):
            got = yield sim.spawn(child(sim))
            log.append((got, sim.now))

        sim.spawn(parent(sim))
        sim.run()
        assert log == [(7, 1.0)]
