"""Ablations of HPBD's design decisions (beyond the paper's figures).

Each ablation flips one §4 design choice and measures quick sort (the
workload with a synchronous read path, where per-request costs can't
hide behind kswapd's asynchrony):

* **registration pool vs register-on-the-fly** (§4.1) — the pool must
  win: Fig. 3 shows registration costs dominate copies at swap sizes;
* **blocking distribution vs striping** (§4.2.5) — the paper argues the
  128 KiB request bound makes striping's parallelism not worth its
  overhead: striping must not win decisively;
* **credit water-mark sensitivity** (§4.2.4) — starving the driver of
  credits must hurt; the default must sit on the flat part of the curve;
* **pool-size sensitivity** (§4.2.2) — the 1 MiB default must not be a
  measurable bottleneck vs a 4 MiB pool.
"""

from __future__ import annotations

from conftest import record, scale

from repro import HPBD, QuicksortWorkload, ScenarioConfig, run_scenario
from repro.analysis import format_table
from repro.units import GiB, KiB, MiB


def _run(device, s):
    cfg = ScenarioConfig(
        [QuicksortWorkload(nelems=256 * 1024 * 1024 // s)],
        device,
        mem_bytes=512 * MiB // s,
        swap_bytes=GiB // s,
        mem_reserved_bytes=24 * MiB // s,
    )
    return run_scenario(cfg)


def test_ablation_registration_pool(benchmark):
    s = scale()

    def run_pair():
        return _run(HPBD(), s), _run(HPBD(register_on_fly=True), s)

    pool, onfly = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print("\nAblation §4.1 — pool copy vs register-on-the-fly (quick sort)")
    print(format_table(
        ["variant", "time (s)"],
        [["registered pool (paper)", pool.elapsed_sec],
         ["register on the fly", onfly.elapsed_sec]],
    ))
    # The paper's choice must win.
    assert onfly.elapsed_usec > pool.elapsed_usec
    record(benchmark, pool_sec=pool.elapsed_sec, onfly_sec=onfly.elapsed_sec,
           onfly_penalty=onfly.slowdown_vs(pool))


def test_ablation_striping(benchmark):
    s = scale()

    def run_pair():
        return (
            _run(HPBD(nservers=4), s),
            _run(HPBD(nservers=4, stripe_bytes=32 * KiB), s),
        )

    blocking, striped = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print("\nAblation §4.2.5 — blocking distribution vs 32 KiB striping")
    print(format_table(
        ["layout", "time (s)", "physical requests"],
        [
            ["blocking (paper)", blocking.elapsed_sec,
             blocking.registry.get("hpbd0.physical_requests").count],
            ["striped 32 KiB", striped.elapsed_sec,
             striped.registry.get("hpbd0.physical_requests").count],
        ],
    ))
    # Striping multiplies control traffic...
    assert (
        striped.registry.get("hpbd0.physical_requests").count
        > 1.5 * blocking.registry.get("hpbd0.physical_requests").count
    )
    # ...without a decisive win (the paper's argument for rejecting it).
    assert striped.elapsed_usec > 0.95 * blocking.elapsed_usec
    record(benchmark, blocking_sec=blocking.elapsed_sec,
           striped_sec=striped.elapsed_sec)


def test_ablation_credit_watermark(benchmark):
    s = scale()

    def run_sweep():
        return {
            c: _run(HPBD(credits_per_server=c), s) for c in (1, 2, 4, 16)
        }

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print("\nAblation §4.2.4 — credit water-mark sensitivity (quick sort)")
    print(format_table(
        ["credits", "time (s)"],
        [[c, r.elapsed_sec] for c, r in sorted(results.items())],
    ))
    # Finding: the water-mark is a *correctness* mechanism (it is what
    # keeps sends inside the pre-posted receive window — remove it and
    # the RC connection RNR-NAKs); performance is flat across the sweep
    # because a single faulting task rarely has >1 read outstanding and
    # write-back absorbs its latency asynchronously.
    for c, r in results.items():
        assert r.swapin_pages > 0  # every setting completes correctly
        assert abs(r.slowdown_vs(results[16]) - 1.0) < 0.10
    record(benchmark, **{f"credits_{c}_sec": r.elapsed_sec
                         for c, r in results.items()})


def test_ablation_pool_size(benchmark):
    s = scale()

    def run_sweep():
        return {
            kib: _run(HPBD(pool_bytes=kib * KiB), s)
            for kib in (256, 1024, 4096)
        }

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print("\nAblation §4.2.2 — registration pool size (quick sort)")
    print(format_table(
        ["pool (KiB)", "time (s)", "alloc stalls"],
        [
            [kib, r.elapsed_sec,
             r.registry.get("hpbd0.pool.alloc_stall_usec").count
             and int(r.registry.get("hpbd0.pool.alloc_stall_usec").values().astype(bool).sum())]
            for kib, r in sorted(results.items())
        ],
    ))
    # The paper's 1 MiB default is not the bottleneck: quadrupling the
    # pool buys < 5 %.
    assert abs(results[1024].slowdown_vs(results[4096]) - 1.0) < 0.05
    record(benchmark, **{f"pool_{k}k_sec": r.elapsed_sec
                         for k, r in results.items()})


def test_ablation_mirroring(benchmark):
    """Reliability extension: what does synchronous mirroring cost?

    The paper scopes mirroring out (§4.1, citing NRD/RRMP); this
    measures it as the ``nway(2)`` redundancy policy: every swap-out is
    RDMA-read by two servers, so
    outbound data doubles while run time barely moves (the write path
    is asynchronous behind kswapd).
    """
    s = scale()

    def run_pair():
        return (
            _run(HPBD(nservers=2), s),
            _run(HPBD(nservers=2, redundancy="nway(2)"), s),
        )

    plain, mirrored = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print("\nAblation (ext) — plain vs mirrored writes (quick sort)")
    print(format_table(
        ["variant", "time (s)", "rdma_read bytes"],
        [
            ["plain", plain.elapsed_sec, plain.network_bytes["rdma_read"]],
            ["mirrored", mirrored.elapsed_sec,
             mirrored.network_bytes["rdma_read"]],
        ],
    ))
    assert mirrored.network_bytes["rdma_read"] > 1.8 * plain.network_bytes["rdma_read"]
    assert 1.0 <= mirrored.slowdown_vs(plain) < 1.5
    record(benchmark, plain_sec=plain.elapsed_sec,
           mirrored_sec=mirrored.elapsed_sec)
