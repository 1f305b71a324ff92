"""Time one benchmark set-up in a fresh interpreter: importing ``repro``,
building a workload's config and building its scenario (everything paid
before the first simulated event).  Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload> <seed> <scale>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(name: str, seed: int, scale: int) -> None:
    t0 = time.perf_counter()
    import scenarios

    workload = scenarios.WORKLOADS[name]
    workload.build(workload.config(seed, scale))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
