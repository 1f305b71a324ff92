"""Quick sort of 256 Mi integers (§6.1): the paper's main application.

"an implementation of a quick-sort algorithm [CLRS], which sorts 256M
random generated integers, whose data set is around 1GB".

The trace is generated by actually running the recursion over index
ranges (no element data needed): random pivots split each segment, and
every partition call emits a sequential read-write sweep over its
segment's pages.  Recursion is depth-first, which is what gives quick
sort its famous paging behaviour:

* the first one or two partition levels sweep an array larger than
  memory → full LRU thrash (swap-in + dirty swap-out of everything);
* deeper segments fit in memory and sort quietly;
* segments at or below ``subtree_cutoff_pages`` are collapsed into a
  single sweep carrying the *entire remaining subtree's* compute
  (n log n), keeping the op stream compact without changing paging
  behaviour — pages of a resident small segment stay resident.

Compute is calibrated so the in-memory run matches the paper's 94 s at
full size (element-visit cost derived from the actual trace's visit
count, so it stays correct at any scale).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ..units import PAGE_SIZE, bytes_to_pages
from .base import Workload
from .ops import SeqTouch, TraceOp

__all__ = ["QuicksortWorkload"]

#: Paper Fig. 7: in-memory quick sort of 256 Mi ints takes 94 s.
PAPER_LOCAL_SEC = 94.0
#: 4-byte integers on the IA-32 testbed.
ELEM_BYTES = 4
ELEMS_PER_PAGE = PAGE_SIZE // ELEM_BYTES

#: Below this many elements, real quicksorts switch to insertion sort.
LEAF_ELEMS = 1024


class QuicksortWorkload(Workload):
    """Depth-first randomized quicksort over ``nelems`` integers."""

    name = "quicksort"

    def __init__(
        self,
        nelems: int = 256 * 1024 * 1024,
        seed: int = 20050926,
        subtree_cutoff_pages: int = 64,
        target_inmem_sec: float | None = None,
    ) -> None:
        if nelems < ELEMS_PER_PAGE:
            raise ValueError(f"too few elements: {nelems}")
        self.nelems = nelems
        self.seed = seed
        self.subtree_cutoff_pages = subtree_cutoff_pages
        self._npages = bytes_to_pages(nelems * ELEM_BYTES)
        self._ops: list[TraceOp] = []
        self._visits = 0.0
        rng = np.random.default_rng(seed)
        # Initialization pass: generate the random input (a store sweep).
        self._emit(0, nelems, visits=float(nelems))
        self._recurse(0, nelems, rng)
        # Calibrate per-visit CPU cost against the paper's local run.
        if target_inmem_sec is None:
            target_inmem_sec = PAPER_LOCAL_SEC * (nelems / (256 * 1024 * 1024))
        self.usec_per_visit = target_inmem_sec * 1e6 / self._visits
        self._finalize()

    # -- trace generation ------------------------------------------------

    def _emit(self, lo_elem: int, hi_elem: int, visits: float) -> None:
        start = lo_elem // ELEMS_PER_PAGE
        stop = -(-hi_elem // ELEMS_PER_PAGE)
        stop = min(max(stop, start + 1), self._npages)
        # compute filled in by _finalize once usec_per_visit is known
        self._ops.append((start, stop, visits))
        self._visits += visits

    def _recurse(self, lo: int, hi: int, rng: np.random.Generator) -> None:
        stack = [(lo, hi)]
        cutoff_elems = self.subtree_cutoff_pages * ELEMS_PER_PAGE
        while stack:
            lo, hi = stack.pop()
            n = hi - lo
            if n <= LEAF_ELEMS:
                continue
            if n <= cutoff_elems:
                # Collapse the whole subtree: n * ceil(log2(n/leaf))
                # element visits, one representative sweep.
                levels = max(1, math.ceil(math.log2(n / LEAF_ELEMS)))
                self._emit(lo, hi, visits=float(n) * levels)
                continue
            # One partition pass over [lo, hi): every element visited.
            self._emit(lo, hi, visits=float(n))
            pivot = lo + 1 + int(rng.integers(0, n - 1))
            # Depth-first: sort the left segment completely first.
            stack.append((pivot, hi))
            stack.append((lo, pivot))

    def _finalize(self) -> None:
        ops: list[TraceOp] = []
        for start, stop, visits in self._ops:
            ops.append(
                SeqTouch(
                    start=start,
                    stop=stop,
                    write=True,
                    compute_usec=visits * self.usec_per_visit,
                )
            )
        self._ops = ops

    # -- Workload API ------------------------------------------------------

    @property
    def npages(self) -> int:
        return self._npages

    def ops(self) -> Iterable[TraceOp]:
        return iter(self._ops)

    def reseed(self, seed: int) -> "QuicksortWorkload":
        """Regenerate the trace with new pivots (same size/calibration).
        The op stream is built in ``__init__``, so this returns a fresh
        instance rather than mutating ``self.seed``."""
        return QuicksortWorkload(
            nelems=self.nelems,
            seed=seed,
            subtree_cutoff_pages=self.subtree_cutoff_pages,
        )
