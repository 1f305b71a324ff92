"""The repository benchmark: run one swap workload, check its outputs,
print every metric by name with its unit, and end with one JSON line.

    python3 perfbench/run.py --workload fig07-quicksort-hpbd --seed 1 \\
        --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics: untraced batches repeated
for ``--seconds`` (host cost is the median over batches), simulated
metrics from the batch (identical on every repeat), and set-up time as
the median of several fresh-interpreter probes.  ``--trace 1`` gives the
per-layer metrics from one profiled run and one span-traced run of the
batch's first sub-seed.  Scenarios run in this process, one at a time:
no sweep engine, no result cache, no worker pool.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# ``scenarios`` and ``layers`` import ``repro``, so they are imported
# inside the functions, after ``main`` has put ``src`` on the path.

#: fresh-interpreter set-up probes per end-to-end run
SETUP_PROBES = 5
#: untraced runs behind the overhead ratios of a traced run
UNTRACED_RUNS = 3
#: operations in one call of ``reference_loop``
REF_OPS = 15_000
#: reference-loop time run after each scenario, as a share of its host time
REF_SHARE = 0.1

E2E_UNITS = {
    "host_refops_per_page": "refop/page",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_elapsed_s": "sim_s",
    "sim_fault_mean_us": "sim_us",
    "sim_fault_p99_us": "sim_us",
    "completed_frac": "frac",
}


def git_commit(root: Path = ROOT) -> str:
    """Commit of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class _Slot:
    """The small object ``reference_loop`` allocates per operation."""

    __slots__ = ("key", "ref")

    def __init__(self, key, ref) -> None:
        self.key = key
        self.ref = ref


def reference_loop(n: int = REF_OPS) -> dict:
    """The host yardstick: ``n`` operations of the kind the simulator
    spends its time on (heap push and pop, generator resume, attribute
    and dict access, small allocations), in code outside ``repro``.
    Timed next to every scenario run, it measures the host's speed at
    that moment, so host cost in reference operations does not drift
    with the host's load."""
    heap: list = []
    table: dict = {}

    def resume():
        x = 0
        while True:
            x = yield x + 1

    gen = resume()
    next(gen)
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i, _Slot(i, table)))
        table[i & 1023] = gen.send(i)
        if len(heap) > 64:
            heapq.heappop(heap)
    return table


def timed_run(workload, seed: int, scale: int | None, failures: list[str],
              trace: bool = False):
    """Build and run one sub-seed's scenario; return (result or None,
    host seconds of ``run()``, scenario)."""
    scenario = workload.build(workload.config(seed, scale), trace=trace)
    gc.collect()
    t0 = time.perf_counter()
    try:
        result = scenario.run()
    except Exception as exc:  # a raising run is a failed output check
        failures.append(f"sub-seed {seed}: raised {type(exc).__name__}: {exc}")
        return None, time.perf_counter() - t0, scenario
    host = time.perf_counter() - t0
    failures.extend(f"sub-seed {seed}: {m}" for m in workload.check_run(result))
    return result, host, scenario


def run_batch(workload, seed: int, scale: int | None, failures: list[str]):
    """One batch: every sub-seed once, each followed by ``reference_loop``
    calls for ``REF_SHARE`` of its host time.  Returns (results, host
    seconds of the batch's ``run()`` calls, host seconds per reference
    operation)."""
    from scenarios import sub_seeds

    results, host, ref, ref_ops = [], 0.0, 0.0, 0
    for sub in sub_seeds(seed, workload.batch):
        result, dt, _ = timed_run(workload, sub, scale, failures)
        host += dt
        t0 = time.perf_counter()
        while ref_ops == 0 or time.perf_counter() - t0 < REF_SHARE * dt:
            reference_loop()
            ref_ops += REF_OPS
        ref += time.perf_counter() - t0
        if result is not None:
            results.append(result)
    failures.extend(workload.check_batch(results))
    return results, host, ref / ref_ops


def setup_seconds(workload, seed: int, scale: int, probes: int) -> list[float]:
    """Set-up time of ``probes`` fresh interpreters, run one at a time."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             str(seed), str(scale)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(workload, seed: int, seconds: float, scale: int | None = None,
               probes: int = SETUP_PROBES):
    """Return (metrics, attempted, failed, failures, report lines)."""
    from scenarios import batch_stats, sub_seeds

    failures: list[str] = []
    t_start = time.perf_counter()
    results, host, ref = run_batch(workload, seed, scale, failures)
    if len(results) != workload.batch:
        return {}, 1, 1, failures, []
    stats = batch_stats(results)
    # Read before the repeats: the peak keeps creeping up with every
    # batch, so a later reading would depend on how many fit in time.
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del results
    hosts, refs = [host], [ref]
    pass_wall = time.perf_counter() - t_start
    while time.perf_counter() - t_start + pass_wall <= seconds:
        again, host, ref = run_batch(workload, seed, scale, failures)
        hosts.append(host)
        refs.append(ref)
        if len(again) != workload.batch or batch_stats(again).digest != stats.digest:
            failures.append(f"batch {len(hosts)} is not bit-identical to batch 1")
            break
    setups = setup_seconds(
        workload, sub_seeds(seed, 1)[0], scale or workload.scale, probes
    )
    costs = [h / r / stats.pages for h, r in zip(hosts, refs)]
    metrics = {
        "host_refops_per_page": statistics.median(costs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mib,
        "sim_elapsed_s": stats.sim_elapsed_s,
        "sim_fault_mean_us": stats.sim_fault_mean_us,
        "sim_fault_p99_us": stats.sim_fault_p99_us,
        "completed_frac": stats.completed_frac,
    }
    lines = [
        f"batches {len(hosts)} x {workload.batch} runs, {stats.pages} pages "
        "swapped per batch; host_s per run " + " ".join(
            f"{h / workload.batch:.4f}" for h in hosts),
        "host_us_per_page " + " ".join(
            f"{h * 1e6 / stats.pages:.3f}" for h in hosts),
        "reference_us_per_op " + " ".join(f"{r * 1e6:.4f}" for r in refs),
        "setup_s probes " + " ".join(f"{s:.4f}" for s in setups),
        f"page-touch stall samples (worst tenant) {stats.fault_samples}",
        f"swap requests attempted {stats.attempted} failed {stats.failed}",
        f"sim_digest {stats.digest}",
    ]
    metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
    return metrics, stats.attempted, stats.failed, failures, lines


def per_layer(workload, seed: int, scale: int | None = None,
              untraced_runs: int = UNTRACED_RUNS):
    """Return (metrics, attempted, failed, failures, report lines)."""
    from layers import layer_metrics, profile_run
    from scenarios import batch_stats, run_digest, sub_seeds

    failures: list[str] = []
    sub = sub_seeds(seed, 1)[0]
    hosts = []
    for _ in range(untraced_runs):
        result, host, scenario = timed_run(workload, sub, scale, failures)
        if result is None:
            return {}, 1, 1, failures, []
        hosts.append(host)
    events = scenario.sim.events_processed
    scenario = workload.build(workload.config(sub, scale))
    gc.collect()
    profiled, profiled_s, self_s, calls = profile_run(scenario)
    if run_digest(profiled) != run_digest(result):
        failures.append("profiled run differs from the untraced run")
    traced, traced_s, _ = timed_run(workload, sub, scale, failures, trace=True)
    if traced is None:
        return {}, 1, 1, failures, []
    metrics = layer_metrics(
        result, events, statistics.median(hosts), profiled_s, traced_s,
        self_s, calls, traced.blame_usec,
    )
    total = sum(self_s.values())
    shares = sorted(self_s.items(), key=lambda kv: -kv[1])
    lines = [
        "profiled self time share "
        + " ".join(f"{k}={v / total:.1%}" for k, v in shares),
    ]
    stats = batch_stats([result])
    return metrics, stats.attempted, stats.failed, failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from scenarios import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    scheduler = os.environ.get("REPRO_SCHEDULER", "wheel")
    print(f"workload {workload.name} seed {args.seed} scale {workload.scale} "
          f"trace {args.trace} scheduler {scheduler} commit {git_commit()} "
          f"nproc {os.cpu_count()} python {sys.version.split()[0]}")
    if args.trace:
        metrics, attempted, failed, failures, lines = per_layer(workload, args.seed)
    else:
        metrics, attempted, failed, failures, lines = end_to_end(
            workload, args.seed, args.seconds
        )
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
