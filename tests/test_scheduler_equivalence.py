"""Heap-vs-wheel scheduler equivalence across every sweep scenario.

The calendar-queue scheduler is only allowed to exist because it is
*observationally identical* to the reference binary heap: same event
order, same clock, same counters, same blame, same health verdicts.
This module is the enforcement: every ``SWEEPS`` family runs under both
schedulers (traced, so per-request blame and invariant monitors are in
play) and the results must match field for field — including the pickled
result bytes, the same fingerprint the sweep cache stores.

A replay-check-style test re-runs the fault grid twice under the wheel
to catch nondeterminism *within* a scheduler, not just between them.
The same points also run with the simulator's exact-elision rules
(inline grants, unobserved process exits) switched off, under each
scheduler, and must match the default runs byte for byte.

A point's four traced runs are independent, so on a host with two or
more CPUs the wheel runs go to one worker process while the heap runs
are made here; the module then takes about half the wall time.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from repro.experiments import SWEEPS
from repro.runner import run_scenario
from repro.sweep.engine import resolve_workers
from tests.conftest import posted_only

SCALE = 64

#: points per family — the grids are large (cluster is clients x servers
#: x placement); the first/middle/last slice exercises every builder's
#: config shapes without running the whole grid twice per scheduler.
MAX_POINTS = 3


def _select_points(name):
    builder, _desc = SWEEPS[name]
    points = builder(SCALE)
    if len(points) <= MAX_POINTS:
        return points
    return [points[0], points[len(points) // 2], points[-1]]


def _run(cfg, scheduler, monkeypatch, trace=True):
    monkeypatch.setenv("REPRO_SCHEDULER", scheduler)
    return run_scenario(cfg, trace=trace)


def _fingerprint(result):
    """The cache's view of a result: pickled with the live trace dropped."""
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def _assert_identical(name, heap, wheel):
    assert heap.elapsed_usec == wheel.elapsed_usec, name
    assert heap.swapout_pages == wheel.swapout_pages, name
    assert heap.swapin_pages == wheel.swapin_pages, name
    assert heap.request_trace == wheel.request_trace, name
    assert heap.network_bytes == wheel.network_bytes, name
    assert heap.client_copy_usec == wheel.client_copy_usec, name
    assert heap.blame_usec == wheel.blame_usec, name
    assert heap.invariant_violations == wheel.invariant_violations, name
    assert heap.monitor_watermarks == wheel.monitor_watermarks, name
    assert heap.health == wheel.health, name
    assert (heap.read_request_bytes == wheel.read_request_bytes).all()
    assert (heap.write_request_bytes == wheel.write_request_bytes).all()
    assert _fingerprint(heap) == _fingerprint(wheel), name


#: the result fields ``_assert_identical`` compares one by one
_COMPARED = (
    "elapsed_usec", "swapout_pages", "swapin_pages", "request_trace",
    "network_bytes", "client_copy_usec", "blame_usec",
    "invariant_violations", "monitor_watermarks", "health",
    "read_request_bytes", "write_request_bytes",
)


def _digests(blob):
    """Each compared field and the whole fingerprint of a pickled result
    as a sha256: byte equality of the digests is byte equality of the
    data, at a few hundred bytes per kept run."""
    result = pickle.loads(blob)
    out = {
        name: hashlib.sha256(pickle.dumps(getattr(result, name))).hexdigest()
        for name in _COMPARED
    }
    out["fingerprint"] = hashlib.sha256(blob).hexdigest()
    return out


def _simulate(cfg, scheduler, posted):
    """One traced run, as its fingerprint bytes; ``posted`` switches the
    elision rules off for the run.

    The run gets its own unpickled copy of ``cfg``, as in a worker
    process: the fingerprint also records which strings of the result
    are the same object, and that differs between a config built by
    the experiment builders and one that crossed a process boundary.
    """
    cfg = pickle.loads(pickle.dumps(cfg))
    with pytest.MonkeyPatch.context() as m:
        if posted:
            posted_only(m)
        return _fingerprint(_run(cfg, scheduler, m))


def _start(worker, cfg, scheduler, posted):
    """Start ``_simulate`` in the worker process, or run it here when
    there is no worker; either way a future of the fingerprint."""
    if worker is not None:
        return worker.submit(_simulate, cfg, scheduler, posted)
    done = Future()
    done.set_result(_simulate(cfg, scheduler, posted))
    return done


@pytest.fixture(scope="module")
def worker():
    """One worker process for the wheel runs, so that on a host with two
    or more CPUs they overlap the heap runs made in this process."""
    if resolve_workers("auto") < 2:
        yield None
        return
    with ProcessPoolExecutor(max_workers=1) as pool:
        yield pool


@pytest.fixture(scope="module")
def elision_runs():
    """Digests keyed by (family, point, scheduler, posted): the scheduler
    test makes the posted-only runs alongside its default runs, and the
    elision test compares them without simulating again."""
    return {}


@pytest.mark.parametrize("family", sorted(SWEEPS))
def test_sweep_family_identical_under_both_schedulers(
    family, monkeypatch, worker, elision_runs
):
    points = _select_points(family)
    wheel_runs = [
        {posted: _start(worker, p.cfg, "wheel", posted)
         for posted in (False, True)}
        for p in points
    ]
    for point, wheel_run in zip(points, wheel_runs):
        blobs = {
            ("heap", False): _simulate(point.cfg, "heap", False),
            ("wheel", False): wheel_run[False].result(),
        }
        _assert_identical(
            point.name, *(pickle.loads(blob) for blob in blobs.values())
        )
        assert blobs["heap", False] == blobs["wheel", False], point.name
        blobs["heap", True] = _simulate(point.cfg, "heap", True)
        blobs["wheel", True] = wheel_run[True].result()
        for (scheduler, posted), blob in blobs.items():
            elision_runs[family, point.name, scheduler, posted] = (
                _digests(blob)
            )


def test_fault_grid_replay_stable_under_wheel(monkeypatch):
    """--replay-check semantics: same config, same scheduler, twice.

    The fault grid is the adversarial case — recovery timers, crash
    windows, failovers — where a nondeterministic scheduler would show
    first.  Two wheel runs must be byte-identical.
    """
    point = _select_points("faults")[-1]
    first = _run(point.cfg, "wheel", monkeypatch)
    second = _run(point.cfg, "wheel", monkeypatch)
    _assert_identical(point.name, first, second)


def test_traced_and_untraced_clocks_agree(monkeypatch):
    """Tracing disables the fluid fast path and adds span recording;
    neither may move the simulated clock."""
    point = _select_points("fig07")[0]
    for scheduler in ("heap", "wheel"):
        traced = _run(point.cfg, scheduler, monkeypatch, trace=True)
        bare = _run(point.cfg, scheduler, monkeypatch, trace=False)
        assert traced.elapsed_usec == bare.elapsed_usec
        assert traced.swapout_pages == bare.swapout_pages
        assert traced.swapin_pages == bare.swapin_pages


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
@pytest.mark.parametrize("family", sorted(SWEEPS))
def test_sweep_family_identical_without_elision(
    family, scheduler, worker, elision_runs
):
    """Inline grants and unobserved exits only skip events nobody can
    tell apart: with both rules switched off every compared field and
    the pickled result are the same to the byte."""
    for point in _select_points(family):
        key = family, point.name, scheduler
        if key + (False,) not in elision_runs:  # run without the test above
            posted = _start(worker, point.cfg, scheduler, True)
            elision_runs[key + (False,)] = _digests(
                _simulate(point.cfg, scheduler, False)
            )
            elision_runs[key + (True,)] = _digests(posted.result())
        assert elision_runs[key + (True,)] == elision_runs[key + (False,)], (
            point.name
        )
