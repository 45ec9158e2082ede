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

Cost model: a finished tree enters its trace in one bulk
:meth:`TraceContext.commit` — rows in creation order, each parent given
as a row offset — which derives every span id once and takes the store
lock once per trace; :meth:`TraceContext.span` is the one-row form.
Backend production sampling commits each sample's stage timeline that
way.  Hot loops (the serve engine processes hundreds of thousands of
events per wall second) instead record compact per-request records and
register a *deferred builder* via :meth:`RequestTracer.defer`; the
builder turns those records into one commit per trace on the first read
(``get``/``traces``/``trace``/...), so the simulation pays a few appends
per request and the span trees materialize off the hot path.  Because
ids are pure functions of ``(seed, key, seq)``, the deferred trees are
byte-identical to ones built while the run went on — the golden test and
the builder's differential test would catch any drift.  Draining is
cooperative: the first reader runs the pending builders; readers racing
a drain on another thread may see a partially built store (the repo's
phases are sequential, so this does not arise in practice).
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import NamedTuple

__all__ = [
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
    """The deterministic span id for creation index ``index``."""
    return hashlib.sha256(f"{trace_id}:{index}".encode()).hexdigest()[
        :_SPAN_ID_HEX
    ]


class Span(NamedTuple):
    """One completed node of a trace's causal tree.

    A slotted, frozen record.  :meth:`TraceContext.commit` is the only
    place the library mints spans, and it rejects a window that ends
    before it starts.
    """

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
    attrs: dict

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> dict:
        attrs = self.attrs
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "seq": self.seq,
            "name": self.name,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": {k: attrs[k] for k in sorted(attrs)},
        }


#: builds a :class:`Span` from its field tuple without the keyword-aware
#: constructor (commit mints tens of thousands per serve call)
_record = tuple.__new__


class TraceContext:
    """One causal span tree; span ids derive from (trace id, order)."""

    __slots__ = ("key", "trace_id", "_lock", "_spans")

    def __init__(self, key: str, trace_id: str, lock: threading.Lock) -> None:
        self.key = key
        self.trace_id = trace_id
        self._lock = lock
        #: committed spans in seq order; replaced (never mutated) per
        #: commit, so readers take it without the lock
        self._spans: tuple[Span, ...] = ()

    def commit(self, rows) -> tuple[Span, ...]:
        """Append a finished tree (or subtree) in one step.

        ``rows`` are ``(name, kind, start_ns, end_ns, parent, attrs)``
        in creation order, windows in integer ns.  ``parent`` is the
        offset of the parent's row in ``rows``, ``None`` for a root, or
        the id of an already committed span.  ``attrs`` (a dict or
        ``None``) becomes the span's own annotation dict.  All rows
        commit or (on an invalid window) none do; returns the new spans.
        """
        trace_id = self.trace_id
        spans: list[Span] = []
        with self._lock:
            seq = len(self._spans)
            for name, kind, start_ns, end_ns, parent, attrs in rows:
                if end_ns < start_ns:
                    raise ValueError(
                        f"span {name!r} ends before it starts: "
                        f"{end_ns} < {start_ns}"
                    )
                if parent.__class__ is int:
                    parent = spans[parent].span_id
                spans.append(_record(Span, (
                    trace_id, derive_span_id(trace_id, seq), parent, seq,
                    name, kind, start_ns, end_ns,
                    {} if attrs is None else attrs,
                )))
                seq += 1
            new = tuple(spans)
            self._spans += new
        return new

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
        """Record one completed span (window fully known)."""
        row = (name, kind, int(start_ns), int(end_ns), parent, dict(attrs or {}))
        return self.commit((row,))[0]

    def spans(self) -> tuple[Span, ...]:
        """Committed spans in canonical (creation ``seq``) order."""
        return self._spans

    def root(self) -> Span | None:
        """The first committed parentless span, if any."""
        for span in self._spans:
            if span.parent_id is None:
                return span
        return None

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "spans": [span.to_json() for span in self._spans],
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
        traffic) while the trace itself stays deferred; the deferred
        builder hands the id back to :meth:`trace` instead of hashing
        again.
        """
        return derive_trace_id(self.seed, self._full_key(key))

    def defer(self, builder) -> None:
        """Queue ``builder()`` to run before the next store read.

        Builders turn compactly-recorded work into one bulk commit per
        trace; they run in registration order, so trace creation order
        (and with it Chrome-trace track assignment) follows the order
        the runs happened in.
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

    def trace(self, key: str, trace_id: str | None = None) -> TraceContext:
        """The trace for ``key`` (created on first use, then shared).

        ``trace_id`` is the id :meth:`trace_id_for` already returned for
        ``key``; passing it back spares the hash.
        """
        self._drain()
        full = self._full_key(key)
        store = self._store
        with store.lock:
            ctx = store.by_key.get(full)
            if ctx is None:
                if trace_id is None:
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
