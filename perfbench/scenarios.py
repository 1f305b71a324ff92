"""The benchmark's workloads: swap scenarios built and run through the
public runner entry points, their output checks, and the simulated
end-to-end metrics computed from their results.

Every workload is a closed loop: each simulated task issues its next
page touch only after the previous one completed.  One *batch* is a
fixed number of scenario runs, one per sub-seed derived from the
benchmark seed.  Quick sort's paging depends strongly on its top-level
pivots (one seed swaps twice as many pages as another), so simulated
metrics are batch means; a batch is the unit of work the host timer
repeats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cluster.runner import build_cluster_scenario
from repro.config import HPBD, NBD, ClusterScenarioConfig
from repro.experiments import (
    cluster_failslow_mitigated_config,
    cluster_redundancy_config,
    fig05_points,
    fig07_points,
)
from repro.runner import build_scenario

__all__ = ["WORKLOADS", "Workload", "BatchStats", "batch_stats", "sub_seeds"]


def _fig07(scale: int):
    return fig07_points(scale, [HPBD()])[0].cfg


def _fig05(scale: int):
    return fig05_points(scale, [NBD("ipoib")])[0].cfg


def _rs42(scale: int):
    # The crash hits mem0 during the first partition sweep, which reads
    # the same pages whatever the pivots.  The config's default crash
    # (mem2 at 120 ms) depends on the pivots: it misses the read
    # frontier on about one seed in six.
    del scale  # fixed-size scenario
    return cluster_redundancy_config(crashes=((50_000.0, 0),))


def _counter(reg, name: str) -> int:
    item = reg.get(name)
    return int(item.count) if item is not None else 0


def _sum_counts(reg, suffix: str) -> int:
    return sum(int(reg.get(n).count) for n in reg.names() if n.endswith(suffix))


def _check_common(result) -> list[str]:
    n = len(result.invariant_violations)
    return [f"{n} invariant violations"] if n else []


def _check_no_swapin(result) -> list[str]:
    if result.swapin_pages != 0:
        return [f"testswap swapped in {result.swapin_pages} pages"]
    return []


def _check_repair(result) -> list[str]:
    repair = result.redundancy.get("repair", {})
    out = []
    if repair.get("rebuilds", 0) < 1:
        out.append("no rebuild after the crash")
    if repair.get("pending", 1) != 0:
        out.append(f"{repair.get('pending')} rebuilds still pending")
    if result.redundancy.get("degraded_reads", 0) < 1:
        out.append("no degraded read during the outage")
    return out


def _check_hedge_wins(results) -> list[str]:
    wins = sum(_sum_counts(r.registry, ".hedge_wins") for r in results)
    return [] if wins >= 1 else ["no hedged read won in the batch"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its config at a scale, how
    many sub-seeds one batch runs, and what its output must satisfy."""

    name: str
    why: str
    make: Callable[[int], Any]
    scale: int
    batch: int
    #: size used by the self-test
    tiny_scale: int
    #: per-run checks beyond the common invariant-violation check
    run_checks: tuple[Callable[[Any], list[str]], ...] = ()
    #: checks over a whole batch of runs
    batch_checks: tuple[Callable[[list], list[str]], ...] = ()

    def config(self, seed: int, scale: int | None = None):
        """The scenario config for one sub-seed.  The seed reaches the
        generators through ``Workload.reseed`` and ``FaultPlan(seed=...)``;
        the runners never read ``cfg.seed``.  Each tenant gets its own
        trace, as the concurrent sorts of Fig. 9 do."""
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        cfg = self.make(scale or self.scale)
        if isinstance(cfg, ClusterScenarioConfig):
            cfg = dataclasses.replace(cfg, seed=seed, tenants=[
                dataclasses.replace(t, workload=t.workload.reseed(seed * 8 + i))
                for i, t in enumerate(cfg.tenants)
            ])
        else:
            cfg = dataclasses.replace(cfg, seed=seed, workloads=[
                w.reseed(seed * 8 + i) for i, w in enumerate(cfg.workloads)
            ])
        faults = cfg.faults
        if faults is not None and faults.plan is not None:
            plan = dataclasses.replace(faults.plan, seed=seed)
            cfg = dataclasses.replace(
                cfg, faults=dataclasses.replace(faults, plan=plan)
            )
        return cfg

    def build(self, cfg, trace: bool = False):
        if isinstance(cfg, ClusterScenarioConfig):
            return build_cluster_scenario(cfg, trace=trace)
        return build_scenario(cfg, trace=trace)

    def check_run(self, result) -> list[str]:
        out = _check_common(result)
        for check in self.run_checks:
            out.extend(check(result))
        return out

    def check_batch(self, results) -> list[str]:
        out = []
        for check in self.batch_checks:
            out.extend(check(results))
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig07-quicksort-hpbd",
            "Fig. 7 quick sort over HPBD, 1 server: swap-ins and swap-outs "
            "through kernel, hpbd, ib and net; the paper's headline",
            _fig07, scale=256, batch=16, tiny_scale=1024,
        ),
        Workload(
            "fig05-testswap-nbd",
            "Fig. 5 testswap over NBD/IPoIB: pure write-back stream, no "
            "swap-ins, bypasses hpbd and ib (no change expected there)",
            _fig05, scale=16, batch=8, tiny_scale=512,
            run_checks=(_check_no_swapin,),
        ),
        Workload(
            "failslow-mitigated",
            "3 mirrored quick-sort tenants share 3 servers, one fail-slow: "
            "contention plus the mirror, steering and hedge paths",
            cluster_failslow_mitigated_config,
            scale=512, batch=10, tiny_scale=1024,
            batch_checks=(_check_hedge_wins,),
        ),
        Workload(
            "rs42-crash",
            "rs(4,2) tenant on 8 servers, a server crash, degraded reads "
            "and a throttled rebuild: the redundancy and repair layer",
            _rs42, scale=1, batch=20, tiny_scale=1,
            run_checks=(_check_repair,),
        ),
    )
}


def sub_seeds(seed: int, n: int) -> list[int]:
    """The batch's sub-seeds: distinct for distinct benchmark seeds."""
    return [seed * 1000 + i for i in range(n)]


def run_digest(result) -> str:
    """sha256 over one run's exact simulated statistics."""
    payload = {
        "elapsed_usec": result.elapsed_usec,
        "instances": [
            (i.workload, i.elapsed_usec, i.major_faults, i.minor_faults,
             i.stall_usec)
            for i in result.instances
        ],
        "swapout_pages": result.swapout_pages,
        "swapin_pages": result.swapin_pages,
        "registry": result.registry.snapshot(),
        "violations": result.invariant_violations,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _failed_requests(result) -> int:
    """Swap requests that did not complete against their device."""
    attempted = len(result.request_trace)
    if result.invariant_violations:
        return attempted
    reg = result.registry
    failed = _sum_counts(reg, ".disk_fallbacks")
    for tenant in getattr(result, "tenants", ()):
        if tenant.disk_fallback:  # admission NACK: swapped to local disk
            failed += _counter(reg, f"{tenant.name}-hda.rq.req_latency_usec")
    return failed


@dataclass
class BatchStats:
    """The simulated end-to-end metrics of one batch."""

    sim_elapsed_s: float
    sim_fault_mean_us: float
    sim_fault_p99_us: float
    fault_samples: int
    #: pages swapped in plus pages swapped out, over the batch
    pages: int
    attempted: int
    failed: int
    digest: str

    @property
    def completed_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def batch_stats(results: list) -> BatchStats:
    """Batch means of completion time; page-touch stall pooled per
    tenant over the batch, worst tenant reported."""
    pools: dict[str, list[np.ndarray]] = {}
    for r in results:
        reg = r.registry
        for name in reg.names():
            if name.endswith(".vm.fault_stall_usec"):
                tenant = name.removesuffix(".vm.fault_stall_usec")
                pools.setdefault(tenant, []).append(reg.get(name).values())
    stalls = [np.concatenate(v) for v in pools.values()]
    worst_mean = max(stalls, key=lambda v: v.mean())
    worst_p99 = max(stalls, key=lambda v: np.percentile(v, 99))
    digest = hashlib.sha256(
        "".join(run_digest(r) for r in results).encode()
    ).hexdigest()
    return BatchStats(
        sim_elapsed_s=float(np.mean([r.elapsed_usec for r in results])) / 1e6,
        sim_fault_mean_us=float(worst_mean.mean()),
        sim_fault_p99_us=float(np.percentile(worst_p99, 99)),
        fault_samples=int(min(len(v) for v in stalls)),
        pages=sum(r.swapin_pages + r.swapout_pages for r in results),
        attempted=sum(len(r.request_trace) for r in results),
        failed=sum(_failed_requests(r) for r in results),
        digest=digest,
    )
