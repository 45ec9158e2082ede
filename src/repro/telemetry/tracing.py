"""Request-scoped causal tracing: deterministic span trees per request.

The flight recorder (:mod:`repro.telemetry.timeseries`) explains tails
with windowed aggregates — it can fire a p99 alert but cannot say
*which* requests were slow or *where* their nanoseconds went.  This
module is the per-request substrate underneath: every serve request and
backend production sample gets a :class:`TraceContext` (one causal span
tree), and the layers it flows through append :class:`Span` records —
arrive → queue → dispatch → execute → respond for requests, one span per
pipeline stage for sampled productions (copied from the production's
finished timeline, never written by the pipeline), provision spans
child-linked to the request that triggered scale-up.  Fleet boots carry
no trace: their stage records live in the boot-event log, nested inside
each boot's wall window by the Chrome exporter.

Determinism is the load-bearing property:

* a trace id is a pure function of ``(seed, key)`` —
  ``sha256(f"{seed}:{key}")`` truncated — so two separate processes
  replaying the same seeded run mint the *same* ids.  That is what lets
  ``repro trace --trace-id`` resolve an exemplar id found in a flight
  recorder document written by a different invocation;
* span ids derive from ``(trace_id, creation index)``, so a trace's
  tree is byte-stable JSON (the golden test pins it);
* no wall clock, no unseeded randomness, no mutation of the traced
  layers' control flow — a tracer is pure observation, and every layer
  guards its tracer calls behind ``if ... is not None`` so tracer-less
  runs stay byte-identical (the disabled-path contract shared with the
  recorder, auditor, and profiler).

Thread safety: the store lock covers trace creation and the per-trace
span list, so traces may be built from several threads.  Span *ids*
never depend on cross-trace interleaving because each trace numbers its
own spans.

Cost model: the direct API (``trace()`` / ``open()`` / ``span()``) is
meant for layers that are expensive anyway — backend production
sampling.  Hot loops (the serve engine processes hundreds of
thousands of events per wall second) instead record compact per-request
records and register a *deferred builder* via :meth:`RequestTracer.defer`;
the builder replays those records through the direct API on the first
read (``get``/``traces``/``trace``/...), so the simulation pays a few
appends per request and the span trees materialize off the hot path.
Because ids are pure functions of ``(seed, key, seq)``, eager and
deferred construction produce byte-identical JSON — the golden test
would catch any drift.  Draining is cooperative: the first reader runs
the pending builders; readers racing a drain on another thread may see
a partially built store (the repo's phases are sequential, so this does
not arise in practice).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field

__all__ = [
    "OpenSpan",
    "RequestTracer",
    "Span",
    "TraceContext",
    "derive_span_id",
    "derive_trace_id",
]

SCHEMA_VERSION = 1

#: hex chars of the truncated sha256 forming a trace id / span id
_TRACE_ID_HEX = 16
_SPAN_ID_HEX = 12


def derive_trace_id(seed: int, key: str) -> str:
    """The deterministic trace id for ``key`` under ``seed``."""
    return hashlib.sha256(f"{seed}:{key}".encode()).hexdigest()[:_TRACE_ID_HEX]


def derive_span_id(trace_id: str, index: int) -> str:
    """The deterministic span id for creation index ``index``.

    Public because deferred builders (see :meth:`RequestTracer.defer`)
    pre-compute child span ids arithmetically before any span object
    exists — e.g. the serve engine resolves which provision span an
    execute span links to without materializing either.
    """
    return hashlib.sha256(f"{trace_id}:{index}".encode()).hexdigest()[
        :_SPAN_ID_HEX
    ]


_span_id = derive_span_id


@dataclass(frozen=True)
class Span:
    """One completed node of a trace's causal tree."""

    trace_id: str
    span_id: str
    #: parent span id, or ``None`` for a root
    parent_id: str | None
    #: per-trace creation index (dense, starts at 0) — the canonical order
    seq: int
    name: str
    #: coarse role: ``request``/``queue``/``execute``/``respond``/
    #: ``provision``/``stage``/...
    kind: str
    start_ns: int
    end_ns: int
    #: JSON-serializable annotations (instance ids, stage breakdowns, ...)
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_ns < self.start_ns:
            raise ValueError(
                f"span {self.name!r} ends before it starts: "
                f"{self.end_ns} < {self.start_ns}"
            )

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "seq": self.seq,
            "name": self.name,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }


class OpenSpan:
    """An in-flight span; :meth:`close` freezes it onto the trace."""

    __slots__ = ("_ctx", "span_id", "parent_id", "seq", "name", "kind",
                 "start_ns", "_attrs", "_closed")

    def __init__(
        self,
        ctx: "TraceContext",
        *,
        span_id: str,
        parent_id: str | None,
        seq: int,
        name: str,
        kind: str,
        start_ns: int,
        attrs: dict | None,
    ) -> None:
        self._ctx = ctx
        self.span_id = span_id
        self.parent_id = parent_id
        self.seq = seq
        self.name = name
        self.kind = kind
        self.start_ns = start_ns
        self._attrs = dict(attrs or {})
        self._closed = False

    def close(self, end_ns: int, **attrs) -> Span:
        """Complete the span at ``end_ns``; extra attrs merge in."""
        if self._closed:
            raise ValueError(f"span {self.name!r} closed twice")
        self._closed = True
        merged = dict(self._attrs)
        merged.update(attrs)
        span = Span(
            trace_id=self._ctx.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            seq=self.seq,
            name=self.name,
            kind=self.kind,
            start_ns=self.start_ns,
            end_ns=int(end_ns),
            attrs=merged,
        )
        self._ctx._commit(span)
        return span


class TraceContext:
    """One causal span tree; span ids derive from (trace id, order)."""

    __slots__ = ("key", "trace_id", "_lock", "_spans", "_next")

    def __init__(self, key: str, trace_id: str, lock: threading.Lock) -> None:
        self.key = key
        self.trace_id = trace_id
        self._lock = lock
        self._spans: list[Span] = []
        self._next = 0

    def _allocate(self) -> tuple[str, int]:
        with self._lock:
            seq = self._next
            self._next += 1
        return _span_id(self.trace_id, seq), seq

    def _commit(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def open(
        self,
        name: str,
        kind: str,
        start_ns: int,
        *,
        parent: str | None = None,
        attrs: dict | None = None,
    ) -> OpenSpan:
        """Start a span whose end is not yet known."""
        span_id, seq = self._allocate()
        return OpenSpan(
            self,
            span_id=span_id,
            parent_id=parent,
            seq=seq,
            name=name,
            kind=kind,
            start_ns=int(start_ns),
            attrs=attrs,
        )

    def span(
        self,
        name: str,
        kind: str,
        start_ns: int,
        end_ns: int,
        *,
        parent: str | None = None,
        attrs: dict | None = None,
    ) -> Span:
        """Record an already-completed span (window fully known)."""
        return self.open(
            name, kind, start_ns, parent=parent, attrs=attrs
        ).close(end_ns)

    def spans(self) -> tuple[Span, ...]:
        """Committed spans in canonical (creation ``seq``) order."""
        with self._lock:
            return tuple(sorted(self._spans, key=lambda s: s.seq))

    def root(self) -> Span | None:
        """The first committed parentless span, if any."""
        for span in self.spans():
            if span.parent_id is None:
                return span
        return None

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "spans": [span.to_json() for span in self.spans()],
        }


class _Store:
    """The shared trace table behind a tracer and its scoped views."""

    __slots__ = ("lock", "by_key", "by_id", "pending", "draining")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: full key -> context, insertion-ordered
        self.by_key: dict[str, TraceContext] = {}
        self.by_id: dict[str, TraceContext] = {}
        #: deferred builders, run (in order) by the first reader
        self.pending: list = []
        #: re-entrancy guard — builders call ``trace()`` themselves
        self.draining = False


class RequestTracer:
    """Mints deterministic traces; ``scoped()`` views share one store.

    ``repro serve`` creates one tracer per run and hands each cell a
    scoped view (``tracer.scoped("restore@90")``), so request indices
    never collide across cells while one lookup table still resolves
    every id the run minted.
    """

    def __init__(
        self, seed: int, scope: str = "", _store: _Store | None = None
    ) -> None:
        self.seed = int(seed)
        self.scope = scope
        self._store = _store if _store is not None else _Store()

    def scoped(self, scope: str) -> "RequestTracer":
        """A key-prefixing view sharing this tracer's store and seed."""
        full = f"{self.scope}/{scope}" if self.scope else scope
        return RequestTracer(self.seed, scope=full, _store=self._store)

    def _full_key(self, key: str) -> str:
        return f"{self.scope}/{key}" if self.scope else key

    def trace_id_for(self, key: str) -> str:
        """The id ``trace(key)`` would mint, without creating the trace.

        Hot paths use this to stamp exemplars (one sha256, no store
        traffic) while the trace itself stays deferred.
        """
        return derive_trace_id(self.seed, self._full_key(key))

    def defer(self, builder) -> None:
        """Queue ``builder()`` to run before the next store read.

        Builders replay compactly-recorded work through the direct API;
        they run in registration order, so trace creation order (and
        with it Chrome-trace track assignment) matches what eager
        construction would have produced.
        """
        with self._store.lock:
            self._store.pending.append(builder)

    def _drain(self) -> None:
        store = self._store
        while True:
            with store.lock:
                if store.draining or not store.pending:
                    return
                builders = list(store.pending)
                store.pending.clear()
                store.draining = True
            try:
                for builder in builders:
                    builder()
            finally:
                with store.lock:
                    store.draining = False

    def trace(self, key: str) -> TraceContext:
        """The trace for ``key`` (created on first use, then shared)."""
        self._drain()
        full = self._full_key(key)
        store = self._store
        with store.lock:
            ctx = store.by_key.get(full)
            if ctx is None:
                trace_id = derive_trace_id(self.seed, full)
                ctx = TraceContext(full, trace_id, store.lock)
                store.by_key[full] = ctx
                store.by_id[trace_id] = ctx
            return ctx

    def get(self, trace_id: str) -> TraceContext | None:
        """Resolve a trace id minted anywhere in this store."""
        self._drain()
        with self._store.lock:
            return self._store.by_id.get(trace_id)

    def traces(self) -> tuple[TraceContext, ...]:
        """Every trace in the store, in creation order."""
        self._drain()
        with self._store.lock:
            return tuple(self._store.by_key.values())

    @property
    def span_count(self) -> int:
        return sum(len(ctx.spans()) for ctx in self.traces())

    def to_json_dict(self) -> dict:
        """Byte-stable export: traces keyed by id, spans in seq order."""
        traces = {ctx.trace_id: ctx.to_json() for ctx in self.traces()}
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "traces": {tid: traces[tid] for tid in sorted(traces)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"
