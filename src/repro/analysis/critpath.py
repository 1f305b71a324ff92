"""Per-request critical-path reconstruction and blame attribution.

`repro.analysis.breakdown` answers "how much total time did each stage
take"; this module answers the causal question — for *one* block
request, where did its end-to-end latency go?  Every span on the swap
request path carries ``req_id`` (the block-layer request identity), so
the trace can be regrouped per request and its window partitioned into
mutually exclusive blame classes:

* the window is ``[queue_wait.start, service.end]`` — first bio
  submitted to last bio completed, which is exactly the request's
  traced end-to-end latency (``blk.queue`` and ``blk.service`` are
  contiguous at dispatch);
* every span inside the window claims its interval for its blame
  class; where spans overlap (an umbrella like ``srv.handle`` covering
  a ``wire`` transfer), the **most specific** class wins, by fixed
  precedence;
* time covered by no span at all is ``other`` (driver thread wakeups,
  CQ polling gaps, event-notification latency).

Because the classes partition the window, per-request blame components
**sum to the request's end-to-end latency by construction** — the
acceptance check the tests enforce, and what makes aggregate shares
comparable with the §6.2 stage breakdown and the Amdahl cross-check.

Precedence (most specific first): data ``wire`` and control ``ctrl``
transfers, then ``disk`` mechanism time, driver copies, on-the-fly
registration, server-side handling, TCP stack CPU, port queueing,
flow-control waits (credits / pool allocation), and finally the block
queue plug/merge wait.  Umbrella spans (``blk.service``, ``hpbd.rtt``,
``hpbd.request``, ``nbd.rtt``, ``vm.*``) are observation windows, not
blame sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.trace import Span, TraceRecorder

__all__ = [
    "BLAME_CLASSES",
    "QUEUEING_CLASSES",
    "REQUEST_PATH_CATS",
    "RequestPath",
    "request_paths",
    "aggregate_blame",
    "blame_split",
    "orphan_spans",
    "slowest",
    "format_critpath",
]

#: blame classes in precedence order (most specific first) with the
#: span cats that feed them.
_BLAME_PRECEDENCE: tuple[tuple[str, frozenset[str]], ...] = (
    ("wire", frozenset({"wire"})),
    ("ctrl", frozenset({"ctrl"})),
    # Fault recovery (repro.faults): time lost to failed/abandoned
    # attempts and to retry backoff.  Ranked below wire/ctrl so the
    # failed attempt's own wire time stays billed to the wire, and the
    # unanswered remainder lands here instead of inflating "other".
    ("fault", frozenset({"hpbd.timeout", "hpbd.failover"})),
    ("retry", frozenset({"hpbd.retry"})),
    # Erasure-coded degraded reads (repro.redundancy): the window from
    # the k-survivor fan-out to the GF(256) reconstruct.  Ranked below
    # wire/ctrl so each shard fetch's wire time stays billed to the
    # wire and the fan-out/decode remainder lands here.
    ("degraded_read", frozenset({"hpbd.degraded"})),
    # Hedged nway reads (fail-slow mitigation): time the original
    # attempt kept limping before its hedge won the race (hedge_win),
    # and the losing hedge's own window when the primary answered first
    # (hedge_waste).  Both rank below wire/ctrl so the racing attempts'
    # wire time stays billed to the wire.
    ("hedge_win", frozenset({"hpbd.hedge_win"})),
    ("hedge_waste", frozenset({"hpbd.hedge_waste"})),
    ("disk", frozenset({"disk.service"})),
    # Parity encode (GF(256) multiply-XOR passes) is client CPU work on
    # the write path, same class as the pool memcpy it sits beside.
    ("copy", frozenset({"hpbd.copy", "hpbd.parity"})),
    ("registration", frozenset({"reg"})),
    # Cluster QoS: time a request sat in the server's weighted-fair
    # queue waiting for a handler slot (repro.cluster.qos).
    ("qos_wait", frozenset({"srv.qos"})),
    # Overcommit eviction: server-side spill-disk I/O (residency-cap
    # eviction or fault-in) — ranked above "server" so it wins over the
    # umbrella srv.handle it nests inside.
    ("spill", frozenset({"srv.spill"})),
    # Fail-slow injection: the per-op stall a limping server adds on
    # top of its scaled service time — ranked above "server" so it wins
    # over the umbrella srv.handle it nests inside.
    ("server_slow", frozenset({"srv.slow"})),
    ("server", frozenset({"srv.copy", "srv.handle"})),
    ("host", frozenset({"tcp.host"})),
    ("port_wait", frozenset({"net.wait"})),
    ("flow_control", frozenset({"hpbd.credit", "hpbd.pool"})),
    ("queue", frozenset({"blk.queue", "blk.wait"})),
)

_LABELS = tuple(label for label, _cats in _BLAME_PRECEDENCE)
_RANK: dict[str, int] = {
    cat: rank
    for rank, (_label, cats) in enumerate(_BLAME_PRECEDENCE)
    for cat in cats
}

#: residual class: window time covered by no request-path span.
OTHER = "other"

#: all blame labels, in precedence order, ``other`` last.
BLAME_CLASSES: tuple[str, ...] = _LABELS + (OTHER,)

#: the labels that are *queueing* (waiting for a turn) rather than
#: service — the queueing-vs-wire split carried into BENCH files.
QUEUEING_CLASSES: tuple[str, ...] = ("queue", "flow_control", "port_wait")

#: every span cat that belongs to the swap request path and therefore
#: must carry ``req_id`` (the orphan audit).  Setup-time work
#: (``reg.setup``) and monitors (``invariant``) are deliberately not
#: request-scoped; ``vm.*`` spans sit above the block layer and cover
#: many requests at once.
REQUEST_PATH_CATS: frozenset[str] = frozenset(
    {
        "blk.queue",
        "blk.wait",
        "blk.service",
        "hpbd.pool",
        "hpbd.copy",
        "hpbd.credit",
        "hpbd.rtt",
        "hpbd.request",
        "hpbd.timeout",
        "hpbd.failover",
        "hpbd.retry",
        "hpbd.hedge_win",
        "hpbd.hedge_waste",
        "hpbd.degraded",
        "hpbd.parity",
        "reg",
        "net.wait",
        "wire",
        "ctrl",
        "srv.handle",
        "srv.copy",
        "srv.qos",
        "srv.spill",
        "srv.slow",
        "nbd.rtt",
        "disk.service",
        "tcp.host",
    }
)


@dataclass(frozen=True)
class RequestPath:
    """One block request's reconstructed window and blame partition."""

    req_id: int
    op: str
    sector: int
    nbytes: int
    submit: float  # first bio queued (blk.queue start)
    dispatch: float  # handed to the driver (blk.service start)
    complete: float  # all bios completed (blk.service end)
    #: label -> µs; partitions [submit, complete], so values sum to e2e
    blame: dict[str, float]
    nspans: int

    @property
    def e2e(self) -> float:
        return self.complete - self.submit

    @property
    def queue_wait(self) -> float:
        return self.dispatch - self.submit

    @property
    def service(self) -> float:
        return self.complete - self.dispatch

    def top_blame(self, n: int = 3) -> list[tuple[str, float]]:
        """The ``n`` largest blame components (label, µs), descending."""
        ranked = sorted(
            (item for item in self.blame.items() if item[1] > 0),
            key=lambda item: item[1],
            reverse=True,
        )
        return ranked[:n]


def _partition(
    spans: "list[Span]", lo: float, hi: float
) -> dict[str, float]:
    """Split [lo, hi] across blame classes by precedence sweep.

    Each elementary interval between span edges is charged to the
    highest-precedence class with a span covering it; uncovered time is
    ``other``.  Spans per request number a few dozen at most, so the
    quadratic stabbing is cheap and obviously correct.
    """
    intervals: list[tuple[float, float, int]] = []
    for span in spans:
        rank = _RANK.get(span.cat)
        if rank is None:
            continue
        a = span.start if span.start > lo else lo
        b = span.end if span.end < hi else hi
        if b > a:
            intervals.append((a, b, rank))
    blame = dict.fromkeys(BLAME_CLASSES, 0.0)
    if not intervals:
        blame[OTHER] = hi - lo
        return blame
    edges = sorted(
        {lo, hi}
        | {a for a, _b, _r in intervals}
        | {b for _a, b, _r in intervals}
    )
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        mid = (a + b) / 2.0
        best: int | None = None
        for s, e, rank in intervals:
            if s <= mid < e and (best is None or rank < best):
                best = rank
        label = _LABELS[best] if best is not None else OTHER
        blame[label] += b - a
    return blame


def request_paths(rec: "TraceRecorder") -> list[RequestPath]:
    """Reconstruct every completed block request from the trace.

    A request needs both its ``blk.queue`` and ``blk.service`` spans to
    define the window; requests missing either (none, once a scenario
    has quiesced) are skipped.  Returned in completion order.
    """
    by_req: dict[int, list[Span]] = {}
    for span in rec.spans:
        args = span.args
        if args is None:
            continue
        rid = args.get("req_id")
        if rid is None or span.cat not in REQUEST_PATH_CATS:
            continue
        by_req.setdefault(rid, []).append(span)
    paths: list[RequestPath] = []
    for rid, spans in by_req.items():
        queue = service = None
        for span in spans:
            if span.cat == "blk.queue" and queue is None:
                queue = span
            elif span.cat == "blk.service" and service is None:
                service = span
        if queue is None or service is None:
            continue
        lo, hi = queue.start, service.end
        qargs = queue.args or {}
        paths.append(
            RequestPath(
                req_id=rid,
                op=str(qargs.get("op", "?")),
                sector=int(qargs.get("sector", -1)),
                nbytes=int(qargs.get("nbytes", 0)),
                submit=lo,
                dispatch=service.start,
                complete=hi,
                blame=_partition(spans, lo, hi),
                nspans=len(spans),
            )
        )
    paths.sort(key=lambda p: p.complete)
    return paths


def aggregate_blame(paths: list[RequestPath]) -> dict[str, float]:
    """Sum blame per class over all requests (µs).

    The total equals the sum of per-request end-to-end latencies — NOT
    wall-clock time, since request windows overlap.
    """
    out = dict.fromkeys(BLAME_CLASSES, 0.0)
    for path in paths:
        for label, usec in path.blame.items():
            out[label] += usec
    return out


def blame_split(blame: dict[str, float]) -> dict[str, float]:
    """The queueing-vs-wire fractions BENCH files carry."""
    total = sum(blame.values())
    if total <= 0:
        return {"queueing_frac": 0.0, "wire_frac": 0.0}
    queueing = sum(blame.get(label, 0.0) for label in QUEUEING_CLASSES)
    return {
        "queueing_frac": queueing / total,
        "wire_frac": blame.get("wire", 0.0) / total,
    }


def orphan_spans(rec: "TraceRecorder") -> "list[Span]":
    """Request-path spans missing ``req_id`` (instrumentation-audit
    failures: critpath would silently drop their time)."""
    return [
        span
        for span in rec.spans
        if span.cat in REQUEST_PATH_CATS
        and (span.args is None or span.args.get("req_id") is None)
    ]


def slowest(paths: list[RequestPath], n: int = 10) -> list[RequestPath]:
    """The ``n`` slowest requests by end-to-end latency."""
    return sorted(paths, key=lambda p: p.e2e, reverse=True)[:n]


def format_critpath(paths: list[RequestPath], top: int = 10) -> str:
    """Human-readable report: aggregate blame then the top-N slowest."""
    lines: list[str] = []
    if not paths:
        return "no completed block requests in trace\n"
    agg = aggregate_blame(paths)
    total = sum(agg.values())
    lines.append(
        f"{len(paths)} block requests, "
        f"summed request latency {total / 1000.0:.1f} ms"
    )
    lines.append("")
    lines.append("aggregate blame (share of request latency):")
    for label in BLAME_CLASSES:
        usec = agg[label]
        if usec <= 0:
            continue
        share = usec / total if total > 0 else 0.0
        lines.append(f"  {label:<13s} {usec / 1000.0:>10.2f} ms  {share:>6.1%}")
    split = blame_split(agg)
    lines.append(
        f"  queueing {split['queueing_frac']:.1%} vs "
        f"wire {split['wire_frac']:.1%}"
    )
    lines.append("")
    lines.append(f"top {min(top, len(paths))} slowest requests:")
    lines.append(
        f"  {'req':>6s} {'op':<5s} {'KiB':>6s} {'e2e us':>10s} "
        f"{'queue us':>9s}  blame"
    )
    for path in slowest(paths, top):
        blame = " ".join(
            f"{label}={usec / path.e2e:.0%}"
            for label, usec in path.top_blame(3)
        )
        lines.append(
            f"  {path.req_id:>6d} {path.op:<5s} {path.nbytes // 1024:>6d} "
            f"{path.e2e:>10.1f} {path.queue_wait:>9.1f}  {blame}"
        )
    return "\n".join(lines) + "\n"
