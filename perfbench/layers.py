"""Per-layer metrics: host self time and calls per ``repro`` layer from
a profiler hook installed here, plus work, wait and failure counts read
from each run's result and stats registry.

A layer is a package under ``src/repro/`` (``simulator``, ``kernel``,
``hpbd``, ...).  Self time of code outside ``repro`` (builtins, the
standard library, numpy) is charged to the layer of its direct caller,
so a heap push issued by the scheduler counts as simulator time.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from pathlib import PurePath

import numpy as np

from repro.analysis.critpath import BLAME_CLASSES

__all__ = ["TIMED_LAYERS", "layer_of", "profile_run", "layer_metrics"]

#: layers reported with ``host_self_s``; together they partition the
#: profiled self time (``repro``: top-level modules such as the runner;
#: ``other``: code outside ``repro`` called from outside ``repro``)
TIMED_LAYERS = (
    "simulator", "kernel", "hpbd", "ib", "net", "tcpip", "nbd", "disk",
    "cluster", "obs", "redundancy", "faults", "workloads", "repro", "other",
)
#: layers reported with ``calls`` (function calls plus generator resumes)
CALL_LAYERS = ("simulator", "kernel", "hpbd", "ib", "net", "nbd", "cluster", "obs")


def layer_of(filename: str) -> str | None:
    """``repro`` layer of a source file; ``None`` outside ``repro``.
    Top-level modules (``runner.py``, ``config.py``) form layer
    ``repro``."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    return rest[0] if len(rest) > 1 else "repro"


def profile_run(scenario):
    """Run ``scenario`` under cProfile; return (result, host seconds,
    per-layer self seconds, per-layer calls)."""
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        result = scenario.run()
    finally:
        prof.disable()
    host = time.perf_counter() - t0
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (filename, _line, _fn), (_cc, nc, tt, _ct, callers) in (
        pstats.Stats(prof).stats.items()
    ):
        layer = layer_of(filename)
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tt
            calls[layer] = calls.get(layer, 0) + nc
            continue
        for (caller_file, _l, _f), stat in callers.items():
            caller = layer_of(caller_file) or "other"
            self_s[caller] = self_s.get(caller, 0.0) + stat[2]
    return result, host, self_s, calls


def _names(reg, suffix: str) -> list[str]:
    return [n for n in reg.names() if n.endswith(suffix)]


def _count(reg, suffix: str) -> int:
    return sum(int(reg.get(n).count) for n in _names(reg, suffix))


def _total(reg, suffix: str) -> float:
    return sum(float(reg.get(n).total) for n in _names(reg, suffix))


def _p99(reg, names: list[str]) -> float:
    vals = [reg.get(n).values() for n in names]
    vals = [v for v in vals if len(v)]
    return float(np.percentile(np.concatenate(vals), 99)) if vals else 0.0


def layer_metrics(
    result, events: int, host_s: float, profiled_s: float, traced_s: float,
    self_s: dict[str, float], calls: dict[str, int], blame_usec: dict,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    reg = result.registry
    pages = result.swapin_pages + result.swapout_pages
    hpbd = [n.removesuffix(".hedge_wins") for n in _names(reg, ".hedge_wins")]
    hedges = sum(int(reg.get(f"{c}.hedges").count) for c in hpbd)
    wins = sum(int(reg.get(f"{c}.hedge_wins").count) for c in hpbd)
    red = getattr(result, "redundancy", {})
    repair = red.get("repair", {})
    reads = result.read_request_bytes
    writes = result.write_request_bytes
    fabric_bytes = sum(result.network_bytes.values())
    m: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.host_self_s"] = (self_s.get(layer, 0.0), "s")
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = (float(calls.get(layer, 0)), "count")
    m.update({
        "simulator.events": (float(events), "count"),
        "simulator.events_per_page": (events / pages if pages else 0.0, "1/page"),
        "simulator.events_per_host_s": (events / host_s, "1/s"),
        "kernel.major_faults": (float(_count(reg, ".vm.fault_major")), "count"),
        "kernel.minor_faults": (float(_count(reg, ".vm.fault_minor")), "count"),
        "kernel.swapin_pages": (float(result.swapin_pages), "count"),
        "kernel.swapout_pages": (float(result.swapout_pages), "count"),
        "kernel.alloc_stall_s": (_total(reg, ".vm.alloc_stall_usec") / 1e6, "sim_s"),
        "kernel.requests": (float(len(result.request_trace)), "count"),
        "kernel.read_req_kib_mean": (
            float(reads.mean()) / 1024 if len(reads) else 0.0, "KiB"),
        "kernel.write_req_kib_mean": (
            float(writes.mean()) / 1024 if len(writes) else 0.0, "KiB"),
        "kernel.req_p99_us": (_p99(reg, _names(reg, ".rq.req_latency_usec")), "sim_us"),
        "hpbd.request_p99_us": (
            _p99(reg, [f"{c}.request_usec" for c in hpbd]), "sim_us"),
        "hpbd.pool_stall_s": (
            sum(float(reg.get(f"{c}.pool.alloc_stall_usec").total)
                for c in hpbd if f"{c}.pool.alloc_stall_usec" in reg) / 1e6,
            "sim_s"),
        "hpbd.staging_stall_s": (
            _total(reg, ".staging.alloc_stall_usec") / 1e6, "sim_s"),
        "hpbd.hedge_win_frac": (wins / hedges if hedges else 0.0, "frac"),
    })
    for counter in ("retries", "hedges", "steered_reads", "semisync_writes",
                    "split_requests"):
        m[f"hpbd.{counter}"] = (
            float(sum(int(reg.get(f"{c}.{counter}").count) for c in hpbd)),
            "count")
    m.update({
        "ib.registrations": (float(_count(reg, "ib.registrations")), "count"),
        "ib.registration_s": (_total(reg, "ib.registration_usec") / 1e6, "sim_s"),
        "ib.rdma_read_mb": (result.network_bytes.get("rdma_read", 0) / 1e6, "MB"),
        "ib.rdma_write_mb": (result.network_bytes.get("rdma_write", 0) / 1e6, "MB"),
        "ib.send_kb": (result.network_bytes.get("ib_send", 0) / 1e3, "kB"),
        "net.transfer_s": (_total(reg, "fabric.transfer_usec") / 1e6, "sim_s"),
        "net.bytes_per_page": (fabric_bytes / pages if pages else 0.0, "B/page"),
        "cluster.spread": (float(getattr(result, "spread", 0.0)), "ratio"),
        "cluster.jain_index": (float(getattr(result, "jain_index", 0.0)), "ratio"),
        "cluster.quarantines": (float(_count(reg, "cluster.quarantines")), "count"),
        "cluster.admission_nacks": (
            float(_count(reg, "cluster.admission_nacks")), "count"),
        "redundancy.degraded_reads": (float(red.get("degraded_reads", 0)), "count"),
        "redundancy.reconstructs": (float(red.get("reconstructs", 0)), "count"),
        "redundancy.write_failovers": (float(red.get("write_failovers", 0)), "count"),
        "redundancy.repair_bytes_moved": (float(repair.get("bytes_moved", 0)), "B"),
        "redundancy.repair_bytes_per_lost_byte": (
            repair["bytes_moved"] / repair["lost_bytes"]
            if repair.get("lost_bytes") else 0.0, "ratio"),
        "redundancy.rebuild_s": (_total(reg, "repair.rebuild_usec") / 1e6, "sim_s"),
        "redundancy.throttle_waits": (float(repair.get("throttle_waits", 0)), "count"),
        "redundancy.overhead": (float(red.get("overhead", 0.0)), "ratio"),
        "trace_overhead_frac": (traced_s / host_s, "ratio"),
        "profile_overhead_frac": (profiled_s / host_s, "ratio"),
    })
    for cls in BLAME_CLASSES:
        m[f"blame.{cls}_s"] = (blame_usec.get(cls, 0.0) / 1e6, "sim_s")
    return m
