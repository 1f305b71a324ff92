"""Self-test of the benchmark, run at a tiny scale:

* every workload emits every metric BENCHMARK.json declares, with its
  unit, in both modes, and every name matches ``[A-Za-z0-9_.-]+``;
* the output checks catch an injected invariant violation, a missing
  rebuild, a missing degraded read and a testswap swap-in;
* a second seed moves simulated completion time on the quick-sort
  workloads and leaves testswap unchanged;
* the profile splits across workloads as the layers predict.

    python3 perfbench/selftest.py          # exits non-zero on failure
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SEED = 1


def _check_metrics(where: str, got: dict, declared: list[dict]) -> list[str]:
    errors = []
    want = {m["name"]: m["unit"] for m in declared}
    for name, (value, unit) in got.items():
        if not NAME.match(name):
            errors.append(f"{where}: bad metric name {name!r}")
        if name not in want:
            errors.append(f"{where}: undeclared metric {name}")
        elif unit != want[name]:
            errors.append(f"{where}: {name} unit {unit!r}, declared {want[name]!r}")
        if not isinstance(value, (int, float)) or value != value:
            errors.append(f"{where}: {name} is not a number: {value!r}")
    errors.extend(f"{where}: missing metric {n}" for n in want if n not in got)
    return errors


def _expect_caught(what: str, failures: list[str]) -> list[str]:
    return [] if failures else [f"output check missed {what}"]


def check_injected_failures() -> list[str]:
    errors = []
    rs42 = WORKLOADS["rs42-crash"]
    result, _, _ = bench.timed_run(rs42, 1000, rs42.tiny_scale, errors)
    if result is None:
        return errors
    if rs42.check_run(result):
        return [f"clean rs42 run fails its checks: {rs42.check_run(result)}"]
    result.invariant_violations.append({"monitor": "injected", "detail": "x"})
    errors += _expect_caught("an invariant violation", rs42.check_run(result))
    result.invariant_violations.pop()
    repair = result.redundancy["repair"]
    rebuilds, repair["rebuilds"] = repair["rebuilds"], 0
    errors += _expect_caught("a missing rebuild", rs42.check_run(result))
    repair["rebuilds"] = rebuilds
    degraded, result.redundancy["degraded_reads"] = (
        result.redundancy["degraded_reads"], 0)
    errors += _expect_caught("a missing degraded read", rs42.check_run(result))
    result.redundancy["degraded_reads"] = degraded
    fig05 = WORKLOADS["fig05-testswap-nbd"]
    result.swapin_pages = 1
    errors += _expect_caught("a testswap swap-in", fig05.check_run(result))
    return errors


def check_seed_plumbing() -> list[str]:
    errors = []
    for w in WORKLOADS.values():
        elapsed = []
        for seed in (1000, 2000):
            result, _, _ = bench.timed_run(w, seed, w.tiny_scale, errors)
            if result is not None:
                elapsed.append(result.elapsed_usec)
        if len(elapsed) < 2:
            continue
        moved = elapsed[0] != elapsed[1]
        if moved != (w.name != "fig05-testswap-nbd"):
            errors.append(f"{w.name}: second seed {'moved' if moved else 'left'} "
                          f"sim_elapsed_s ({elapsed[0]} vs {elapsed[1]})")
    return errors


def check_split(self_s: dict[str, dict[str, float]]) -> list[str]:
    """The layer split the workloads were chosen for."""
    def share(wl: str, *layers: str) -> float:
        total = sum(self_s[wl].values())
        return sum(self_s[wl].get(layer, 0.0) for layer in layers) / total

    def own(wl: str, layer: str) -> float:
        return self_s[wl].get(layer, 0.0)

    errors = []
    fleet = {"failslow-mitigated", "rs42-crash"}
    if share("fig07-quicksort-hpbd", "hpbd", "ib") < 0.10:
        errors.append("hpbd+ib below 10% of self time on fig07")
    if share("fig05-testswap-nbd", "hpbd", "ib") > 0.02:
        errors.append("hpbd+ib above 2% of self time on fig05")
    for wl in self_s:
        if (own(wl, "cluster") > 0) != (wl in fleet):
            errors.append(f"{wl}: cluster self time {own(wl, 'cluster')}")
        if (own(wl, "redundancy") > 0) != (wl == "rs42-crash"):
            errors.append(f"{wl}: redundancy self time {own(wl, 'redundancy')}")
    if own("failslow-mitigated", "obs") < 10 * own("fig07-quicksort-hpbd", "obs"):
        errors.append("obs self time on failslow below 10x fig07")
    return errors


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    errors: list[str] = []
    self_s: dict[str, dict[str, float]] = {}
    for w in WORKLOADS.values():
        metrics, attempted, failed, failures, _ = bench.end_to_end(
            w, SEED, 0, scale=w.tiny_scale, probes=1)
        errors += [f"{w.name} end-to-end: {f}" for f in failures]
        errors += _check_metrics(f"{w.name} end-to-end", metrics,
                                 declared["end_to_end"])
        if attempted < 1 or failed:
            errors.append(f"{w.name}: attempted {attempted} failed {failed}")
        metrics, _, _, failures, _ = bench.per_layer(
            w, SEED, scale=w.tiny_scale, untraced_runs=1)
        errors += [f"{w.name} per-layer: {f}" for f in failures]
        errors += _check_metrics(f"{w.name} per-layer", metrics,
                                 declared["per_layer"])
        self_s[w.name] = {
            name.removesuffix(".host_self_s"): value
            for name, (value, _unit) in metrics.items()
            if name.endswith(".host_self_s")
        }
        print(f"{w.name}: metrics ok" if not errors else f"{w.name}: errors so far")
    errors += check_injected_failures()
    errors += check_seed_plumbing()
    errors += check_split(self_s)
    for e in errors:
        print(f"FAIL: {e}")
    print("selftest: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
