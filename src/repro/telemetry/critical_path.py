"""Critical-path extraction and tail-latency attribution over traces.

Given one request's span tree (:mod:`repro.telemetry.tracing`), the
analyzer extracts the *blocking chain* — the segments whose durations
sum to the request's end-to-end latency — and proves conservation the
same way the cost profiler does: with exact integer arithmetic, ``==``
not ``≈``.

For a served request the chain is:

* **provision** — only when the request was cold (its instance became
  ready after it arrived): ``ready_ns - arrival``.  When the instance's
  production sample carries its originating pipeline's per-stage
  breakdown, the provision segment is subdivided across those stages
  (``provision.snapshot_restore``, ``provision.rebase``, ...) with the
  profiler's largest-remainder apportioner, so the split is
  deterministic and exact;
* **queued** — the wait that was *not* provision: ``dispatch - ready``
  when cold, ``dispatch - arrival`` when warm;
* **execute** — ``done - dispatch``, the invocation itself.

``CriticalPath.check()`` raises unless the segments sum exactly to the
latency; :func:`tail_attribution` aggregates the checked paths above a
latency percentile into "p99 requests spend 72% in cold provision /
21% in relocation apply / 7% queued" — the per-strategy breakdown the
``BENCH_tail_attribution`` series gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import MonitorError
from repro.telemetry.profiler import _apportion as apportion
from repro.telemetry.stats import percentile
from repro.telemetry.tracing import Span, TraceContext

__all__ = [
    "CriticalPath",
    "Segment",
    "TailAttribution",
    "critical_path",
    "request_paths",
    "slowest",
    "tail_attribution",
]

SEG_PROVISION = "provision"
SEG_QUEUED = "queued"
SEG_EXECUTE = "execute"


@dataclass(frozen=True, slots=True)
class Segment:
    """One blocking-chain segment: a kind and its exact charge."""

    kind: str
    ns: int


@dataclass(frozen=True, slots=True)
class CriticalPath:
    """One served request's blocking chain, conservation-checked."""

    trace_id: str
    request: int
    arrival_ns: int
    latency_ns: int
    cold: bool
    segments: tuple[Segment, ...]

    def check(self) -> "CriticalPath":
        """Conservation: segment ns must sum *exactly* to the latency,
        and no segment may be negative (one pass over the segments)."""
        total = 0
        negative = False
        for seg in self.segments:
            ns = seg.ns
            total += ns
            if ns < 0:
                negative = True
        if total != self.latency_ns:
            raise MonitorError(
                f"critical path of {self.trace_id} does not conserve: "
                f"segments sum to {total} ns != latency {self.latency_ns} ns"
            )
        if negative:
            raise MonitorError(
                f"critical path of {self.trace_id} has a negative segment"
            )
        return self

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "request": self.request,
            "arrival_ns": self.arrival_ns,
            "latency_ns": self.latency_ns,
            "cold": self.cold,
            "segments": {
                seg.kind: seg.ns
                for seg in sorted(self.segments, key=lambda s: s.kind)
            },
        }


def critical_path(spans: Iterable[Span]) -> CriticalPath | None:
    """Extract a request trace's blocking chain; ``None`` if not served.

    Expects the span shapes the serve engine emits: a ``request`` root,
    a ``queue`` child, and (for served requests) an ``execute`` child
    carrying ``ready_ns`` and the sample's ``stage_ns`` breakdown.
    Rejected and deadline-failed requests have no end-to-end latency to
    attribute and return ``None``.  One scan finds the first span of
    each of the two kinds.
    """
    root = execute = None
    for span in spans:
        kind = span.kind
        if kind == "request":
            if root is None:
                root = span
        elif kind == "execute" and execute is None:
            execute = span
    if root is None or execute is None:
        return None
    if root.attrs.get("status") != "served":
        return None

    arrival = root.start_ns
    done = root.end_ns
    dispatch = execute.start_ns
    ready = int(execute.attrs.get("ready_ns", 0))
    cold = ready > arrival

    segments: list[Segment] = []
    if cold:
        # ready <= dispatch always: the pool only leases ready instances
        provision_ns = ready - arrival
        stage_ns = execute.attrs.get("stage_ns") or {}
        if stage_ns and provision_ns > 0:
            shares = apportion(
                [(name, float(ns)) for name, ns in stage_ns.items()],
                provision_ns,
            )
            segments.extend(
                Segment(kind=f"{SEG_PROVISION}.{name}", ns=share)
                for name, share in shares
            )
        else:
            segments.append(Segment(kind=SEG_PROVISION, ns=provision_ns))
        segments.append(Segment(kind=SEG_QUEUED, ns=dispatch - ready))
    else:
        segments.append(Segment(kind=SEG_QUEUED, ns=dispatch - arrival))
    segments.append(Segment(kind=SEG_EXECUTE, ns=done - dispatch))

    return CriticalPath(
        trace_id=root.trace_id,
        request=int(root.attrs.get("index", -1)),
        arrival_ns=arrival,
        latency_ns=done - arrival,
        cold=cold,
        segments=tuple(segments),
    ).check()


def request_paths(traces: Iterable[TraceContext]) -> list[CriticalPath]:
    """Checked critical paths for every served request trace, by index."""
    paths = []
    for ctx in traces:
        path = critical_path(ctx.spans())
        if path is not None:
            paths.append(path)
    paths.sort(key=lambda p: p.request)
    return paths


def slowest(paths: Sequence[CriticalPath], k: int) -> list[CriticalPath]:
    """The top-``k`` slowest paths (ties break on request index)."""
    return sorted(paths, key=lambda p: (-p.latency_ns, p.request))[:k]


@dataclass(frozen=True)
class TailAttribution:
    """Where the slowest requests' nanoseconds went, per segment kind."""

    percentile: float
    #: nearest-rank latency threshold defining the tail
    threshold_ns: int
    #: how many requests sit at or above the threshold
    requests: int
    total_ns: int
    #: kind -> exact ns summed over the tail
    ns: tuple[tuple[str, int], ...]

    def fractions(self) -> dict[str, float]:
        if self.total_ns <= 0:
            return {kind: 0.0 for kind, _ in self.ns}
        return {
            kind: round(ns / self.total_ns, 6) for kind, ns in self.ns
        }

    def to_json(self) -> dict:
        return {
            "percentile": self.percentile,
            "threshold_ms": round(self.threshold_ns / 1e6, 4),
            "requests": self.requests,
            "total_ms": round(self.total_ns / 1e6, 4),
            "ns": {kind: ns for kind, ns in self.ns},
            "fractions": self.fractions(),
        }


def tail_attribution(
    paths: Sequence[CriticalPath], q: float = 99.0
) -> TailAttribution | None:
    """Aggregate segment charges over the latency tail at percentile ``q``.

    The tail is every path whose latency is >= the nearest-rank
    percentile of all served latencies (so it is never empty for a
    non-empty input).  Returns ``None`` when nothing was served.
    """
    if not paths:
        return None
    threshold = int(percentile([p.latency_ns for p in paths], q))
    tail = [p for p in paths if p.latency_ns >= threshold]
    ns: dict[str, int] = {}
    for path in tail:
        for seg in path.segments:
            ns[seg.kind] = ns.get(seg.kind, 0) + seg.ns
    return TailAttribution(
        percentile=q,
        threshold_ns=threshold,
        requests=len(tail),
        total_ns=sum(p.latency_ns for p in tail),
        ns=tuple(sorted(ns.items())),
    )
