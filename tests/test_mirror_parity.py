"""Parity pin: ``nway(2)`` reproduces the retired ``mirror`` flag.

Mirroring used to be a fleet-wide ``mirror=True`` switch with its own
recovery ladder and its own EWMA steering, hedged reads and semi-sync
writes.  It is now the ``nway(2)`` redundancy policy.  The numbers below
were recorded with the ``mirror=True`` implementation; ``nway(2)`` must
reproduce them exactly: per tenant completion time, major faults and
page-touch stall, and per driver the hedge, hedge-win, steered-read and
semi-sync counters.
"""

from __future__ import annotations

import pytest

from repro.config import HPBD
from repro.experiments import failslow_points, fig07_points
from repro.runner import run_scenario

FAILSLOW_SCALE = 512
QUICKSORT_SCALE = 256

#: driver counters pinned per client, in this order
COUNTERS = ("hedges", "hedge_wins", "steered_reads", "semisync_writes")

#: per point: (elapsed_usec, major_faults, stall_usec) per tenant, then
#: COUNTERS per driver
RECORDED = {
    "failslow/healthy": {
        "instances": [
            (294000.5203458988, 256, 110406.77034589875),
            (295681.5108220893, 260, 112087.76082208924),
            (294661.5108220893, 260, 111067.76082208921),
        ],
        "t0-hpbd": (1, 0, 46, 2),
        "t1-hpbd": (1, 0, 47, 3),
        "t2-hpbd": (3, 0, 90, 9),
    },
    "failslow/unmitigated": {
        "instances": [
            (299949.7721281738, 259, 116356.0221281737),
            (305421.89169600635, 260, 121828.14169600632),
            (301768.8120091257, 259, 118175.06200912564),
        ],
        "t0-hpbd": (0, 0, 0, 0),
        "t1-hpbd": (0, 0, 0, 0),
        "t2-hpbd": (0, 0, 0, 0),
    },
    "failslow/mitigated": {
        "instances": [
            (296698.21312245005, 259, 113104.46312244999),
            (297424.83407483064, 264, 113831.08407483061),
            (294655.4989557836, 260, 111061.74895578355),
        ],
        "t0-hpbd": (3, 1, 49, 11),
        "t1-hpbd": (2, 1, 49, 12),
        "t2-hpbd": (3, 0, 89, 15),
    },
    "quicksort-2srv": {
        "instances": [
            (523854.6466666594, 344, 156667.14666665968),
        ],
        "hpbd0": (0, 0, 0, 0),
    },
}


def _observed(result, clients: list[str]) -> dict:
    out = {
        "instances": [
            (i.elapsed_usec, i.major_faults, i.stall_usec)
            for i in result.instances
        ]
    }
    for c in clients:
        out[c] = tuple(
            int(result.registry.get(f"{c}.{k}").count) for k in COUNTERS
        )
    return out


@pytest.mark.parametrize(
    "point", failslow_points(FAILSLOW_SCALE), ids=lambda p: p.name
)
def test_failslow_point_matches_mirror(point):
    result = run_scenario(point.cfg)
    got = _observed(result, [f"t{i}-hpbd" for i in range(3)])
    assert got == RECORDED[point.name]


def test_two_server_quicksort_matches_mirror():
    device = HPBD(nservers=2, redundancy="nway(2)")
    cfg = fig07_points(QUICKSORT_SCALE, [device])[0].cfg
    got = _observed(run_scenario(cfg), ["hpbd0"])
    assert got == RECORDED["quicksort-2srv"]
