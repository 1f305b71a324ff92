"""Shared fixtures: a fresh simulator, fabric, and small-node builders,
plus the one expensive traced fig07 run several test modules share."""

from __future__ import annotations

import pytest

from repro.kernel import Node
from repro.net import Fabric
from repro.simulator import Simulator
from repro.units import MiB

FIG07_SCALE = 64


@pytest.fixture(scope="session")
def traced_fig07_hpbd():
    """The Fig. 7 quicksort over HPBD, traced — one run per session.

    Shared by the breakdown, critpath, and monitor tests; it is the
    scenario the ISSUE acceptance criteria are stated against.
    """
    from repro.config import HPBD
    from repro.experiments import _scenario
    from repro.runner import run_scenario
    from repro.units import GiB
    from repro.workloads import QuicksortWorkload

    wl = QuicksortWorkload(nelems=256 * 1024 * 1024 // FIG07_SCALE)
    cfg = _scenario([wl], HPBD(), FIG07_SCALE, 512 * MiB, GiB)
    return run_scenario(cfg, trace=True)


@pytest.fixture(scope="session")
def local_base_fig07():
    """Same quicksort run fully in memory (the §6.2 baseline)."""
    from repro.config import LocalMemory
    from repro.experiments import _scenario
    from repro.runner import run_scenario
    from repro.units import GiB
    from repro.workloads import QuicksortWorkload

    wl = QuicksortWorkload(nelems=256 * 1024 * 1024 // FIG07_SCALE)
    cfg = _scenario([wl], LocalMemory(), FIG07_SCALE, 2 * GiB, GiB)
    return run_scenario(cfg)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def fabric(sim: Simulator) -> Fabric:
    return Fabric(sim)


@pytest.fixture
def node(sim: Simulator, fabric: Fabric) -> Node:
    """A small (16 MiB) dual-CPU node."""
    return Node(sim, fabric, "n0", mem_bytes=16 * MiB)


def posted_only(monkeypatch) -> None:
    """Switch off the simulator's two exact-elision rules (inline
    grants, unobserved exits): every resource grant and every process
    exit is posted as an event."""
    monkeypatch.setattr(Simulator, "_grant_is_next", lambda self: False)
    monkeypatch.setattr(
        Simulator, "_exit_is_unobserved", lambda self, proc: False
    )


def run_proc(sim: Simulator, gen):
    """Spawn a generator and run the simulation until it finishes."""
    proc = sim.spawn(gen)
    return sim.run(until=proc)


@pytest.fixture
def runner(sim: Simulator):
    """Callable fixture: ``runner(gen)`` runs a process to completion."""

    def _run(gen):
        return run_proc(sim, gen)

    return _run
