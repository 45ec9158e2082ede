"""The serve control plane: a deterministic discrete-event simulation.

One engine run plays an open-loop arrival stream against a warm pool on
simulated time.  The pieces:

* arrivals come from :mod:`repro.serve.arrivals` (seeded, open-loop);
* instance production costs come from a
  :class:`~repro.serve.backend.SampledBackend` (a few real pipeline runs
  replayed cyclically, so a million invocations is integer arithmetic);
* provisioning parallelism is modeled by
  :class:`~repro.simtime.fleetclock.FleetWallClock` in open-loop mode
  (``schedule_at``), so concurrent productions overlap like a real
  provisioner fleet's would;
* instance accounting is a :class:`~repro.serve.pool.WarmPool` over a
  :class:`~repro.monitor.leases.LeaseRegistry`.

Determinism: the event heap is keyed ``(time, kind, seq)``; ``kind``
fixes the processing order of same-instant events (capacity lands
before completions, completions before new arrivals, arrivals before
deadlines, housekeeping last), ``seq`` breaks the remaining ties by
insertion order.  No wall clock, no unseeded randomness — a config is a
pure function to a result, which is what lets the golden test demand
byte-identical reports.

Termination is structural: arrivals are finite, every admitted request
carries a deadline event, every started provision carries exactly one
completion event, refills only chase a bounded target, and a circuit
breaker stops provisioning after ``max_provision_failures`` consecutive
dead productions — so the heap always drains, even against a backend
whose every production fails.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import partial

from repro.errors import MonitorError
from repro.security.audit import KaslrAuditor
from repro.serve.arrivals import ArrivalSpec, generate_arrivals
from repro.serve.backend import ProductionSample, SampledBackend
from repro.serve.pool import AutoscalePolicy, PoolStats, WarmInstance, WarmPool
from repro.simtime.fleetclock import FleetWallClock
from repro.telemetry import Telemetry
from repro.telemetry.timeseries import TimeSeriesRecorder, WindowedEmitter
from repro.telemetry.tracing import RequestTracer, TraceContext

__all__ = ["EventKind", "ServeConfig", "ServeEngine", "ServeResult"]


class EventKind(enum.IntEnum):
    """Processing order for events sharing a timestamp."""

    READY = 0  # a provision completed (or failed) — capacity first
    DONE = 1  # an invocation finished
    ARRIVE = 2  # a request enters the system
    DEADLINE = 3  # a queued request gives up
    IDLE = 4  # scale-down watchdog


@dataclass(frozen=True)
class ServeConfig:
    """Everything the engine needs besides traffic and a backend."""

    policy: AutoscalePolicy = field(default_factory=AutoscalePolicy)
    #: parallel provisioning slots (the monitor threads building instances)
    provisioners: int = 4
    #: admission queue bound; arrivals beyond it are rejected outright
    queue_cap: int = 64
    #: how long a queued request waits before failing
    deadline_ns: int = 30_000_000_000
    #: consecutive dead productions before the breaker stops provisioning
    max_provision_failures: int = 32

    def __post_init__(self) -> None:
        if self.provisioners < 1:
            raise ValueError(f"need >= 1 provisioner: {self.provisioners}")
        if self.queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1: {self.queue_cap}")
        if self.deadline_ns <= 0:
            raise ValueError(f"deadline must be positive: {self.deadline_ns}")
        if self.max_provision_failures < 1:
            raise ValueError(
                f"breaker threshold must be >= 1: {self.max_provision_failures}"
            )


@dataclass(frozen=True)
class ServeResult:
    """One engine run, fully accounted.

    ``check()`` asserts the conservation law the invariant tests lean
    on: every arrival is served, rejected, or deadline-failed — no
    request is silently dropped.
    """

    arrivals: int
    served: int
    rejected: int
    deadline_missed: int
    cold_starts: int
    degraded_serves: int
    latencies_ns: tuple[int, ...]
    max_queue_depth: int
    pool: PoolStats
    provisioner_busy: float
    breaker_tripped: bool
    horizon_ns: int

    @property
    def failed(self) -> int:
        return self.rejected + self.deadline_missed

    @property
    def cold_fraction(self) -> float:
        return self.cold_starts / self.served if self.served else 0.0

    def check(self) -> "ServeResult":
        if self.served + self.failed != self.arrivals:
            raise MonitorError(
                f"request conservation violated: {self.served} served + "
                f"{self.failed} failed != {self.arrivals} arrivals"
            )
        if len(self.latencies_ns) != self.served:
            raise MonitorError(
                f"{len(self.latencies_ns)} latencies for {self.served} serves"
            )
        return self


# Compact trace records.  The engine's event loop is the hot path — it
# must stay within a few percent of an untraced run (the gated
# ``BENCH_trace_overhead`` series pins this), so instead of minting span
# objects inline the loop appends plain lists holding ints and refs to
# already-immutable objects, and a deferred builder
# (:meth:`ServeEngine._build_traces`) turns them into one bulk commit per
# trace on the first tracer read.  A request that dispatches gets one
# served record (layout below); rejected and deadline-failed requests get
# small tuples; provisions get ``[instance_id, BootWindow, sample,
# span_id]`` (span_id filled by the builder) and prewarms
# ``[instance_id, sample, span_id]``.
R_INDEX = 0  # request index
R_ARRIVAL = 1  # admission time (ns)
R_DISPATCH = 2  # lease time (ns)
R_DONE = 3  # completion time (ns); 0 while in flight
R_INST = 4  # the leased WarmInstance
R_SAMPLE = 5  # the ProductionSample replayed by the invocation
R_PROV = 6  # provision/prewarm record that built the instance, or None
R_PROV_ARRIVE = 7  # provision records triggered at admission (list|None)
R_TRACE = 8  # trace id already derived for the exemplar, or None
R_LEN = 9  # provisions triggered by our dispatch are appended past here


class ServeEngine:
    """Runs one (traffic, backend, config) triple to a drained result."""

    def __init__(
        self,
        backend: SampledBackend,
        config: ServeConfig,
        telemetry: Telemetry | None = None,
        labels: dict[str, str] | None = None,
        recorder: TimeSeriesRecorder | None = None,
        auditor: KaslrAuditor | None = None,
        track: str | None = None,
        tracer: RequestTracer | None = None,
    ) -> None:
        self.backend = backend
        self.config = config
        self.telemetry = telemetry
        self.labels = dict(labels or {})
        #: optional flight recorder fed per event (arrivals, serves, depth)
        self.recorder = recorder
        #: null-safe recorder facade (shared shape with the fleet's
        #: telemetry forwarding — see ``WindowedEmitter``)
        self._emit = WindowedEmitter(recorder)
        #: optional KASLR auditor fed one record per provisioned instance
        self.auditor = auditor
        #: Chrome-trace track for lifecycle events; events are recorded
        #: only when both a telemetry sink and a track name are
        #: configured, so plain engine runs stay event-free (the CLI
        #: names a track only when it exports the event log)
        self.track = track
        #: optional request tracer (usually a per-cell scoped view); when
        #: absent the run is byte-identical to an untraced one, and when
        #: present the event loop only fills compact records — the span
        #: trees materialize lazily (see :meth:`_build_traces`)
        self.tracer = tracer
        #: (metric name, *extra labels) -> instrument, resolved on first use
        self._instruments: dict[tuple, object] = {}

    # -- internal helpers ------------------------------------------------------

    def _push(self, when_ns: int, kind: EventKind, payload: int) -> None:
        heapq.heappush(self._events, (when_ns, kind, self._seq, payload))
        self._seq += 1

    def _instrument(self, kind: str, name: str, help_text: str, **extra: str):
        """The ``kind`` instrument for ``name`` and these labels.

        Resolved through the registry on first use only (never before, so
        no zero-valued series appears), then reused: the registry checks
        and sorts the labels once, not on every event.
        """
        key = (name, *extra.items())
        metric = self._instruments.get(key)
        if metric is None:
            factory = getattr(self.telemetry.registry, kind)
            metric = self._instruments[key] = factory(
                name, help=help_text, **self.labels, **extra
            )
        return metric

    def _count(self, name: str, help_text: str, amount: int = 1, **extra: str) -> None:
        if self.telemetry is None or amount == 0:
            return
        self._instrument("counter", name, help_text, **extra).inc(amount)

    def _span(
        self,
        name: str,
        *,
        start_ns: int,
        duration_ns: int = 0,
        worker: int | None = None,
        detail: str = "",
    ) -> None:
        """Record one lifecycle event; callers check ``self._lifecycle``
        first, so nothing (not even the detail string) is built for a
        run that records none."""
        self.telemetry.serve_span(
            self.track,
            name=name,
            start_ns=start_ns,
            duration_ns=duration_ns,
            worker=worker,
            detail=detail,
        )

    def _audit_strategy(self) -> str:
        return self.labels.get("strategy", self.track or "serve")

    def _audit_record(
        self, instance_id: int, sample: ProductionSample, t_ns: int
    ) -> None:
        if self.auditor is None:
            return
        # hand-built test samples carry no digest; the layout offset is
        # the next-best fingerprint (coarser: FGKASLR shuffles invisible)
        digest = sample.layout_digest or f"off:{sample.layout_offset:#x}"
        self._instance_digest[instance_id] = digest
        self.auditor.record(
            f"{self.track or 'serve'}:instance:{instance_id}",
            strategy=self._audit_strategy(),
            t_ns=t_ns,
            digest=digest,
        )

    def _audit_touch(self, instance_id: int, t_ns: int) -> None:
        """Extend a layout's validity span to its last live sighting."""
        if self.auditor is None:
            return
        digest = self._instance_digest.pop(instance_id, None)
        if digest is not None:
            self.auditor.touch(self._audit_strategy(), digest, t_ns)

    def _provision(
        self, now_ns: int, trigger: int | None = None, rec: list | None = None
    ) -> None:
        """Chase the target: start provisions until the deficit closes.

        ``trigger`` is the request index whose admission or dispatch
        opened the deficit; its trace adopts the provision spans, so a
        cold request's scale-up shows up *inside* that request's tree
        (``rec`` is that request's served record when the trigger has
        already dispatched).  Refills with no single cause (prewarm
        top-ups, post-failure retries) land on the cell's ``pool``
        trace instead.
        """
        if self._breaker_tripped:
            return
        pool = self._pool
        while pool.deficit() > 0:
            instance_id = pool.begin_provision()
            sample = self.backend.sample(self._production_index)
            self._production_index += 1
            window = self._provisioners.schedule_at(now_ns, sample.startup_ns)
            self._emit.count(now_ns, "serve_provision_started")
            if self._lifecycle:
                self._span(
                    "provision",
                    start_ns=window.start_ns,
                    duration_ns=window.end_ns - window.start_ns,
                    worker=window.worker,
                    detail=f"instance={instance_id} failed={sample.failed}",
                )
            if self.tracer is not None:
                prov = [instance_id, window, sample, ""]
                self._prov_of[instance_id] = prov
                if rec is not None:
                    # trigger already dispatched: its execute span
                    # precedes these provisions in its tree
                    rec.append(prov)
                elif trigger is not None:
                    lst = self._prov_arrive_of.get(trigger)
                    if lst is None:
                        lst = self._prov_arrive_of[trigger] = []
                    lst.append(prov)
                else:
                    self._pool_records.append(("provision", prov))
            if sample.failed:
                # the provisioner still burns the time before giving up
                self._push(window.end_ns, EventKind.READY, -(instance_id + 1))
            else:
                self._pending[instance_id] = sample
                self._push(window.end_ns, EventKind.READY, instance_id)

    def _dispatch(self, now_ns: int) -> None:
        """Marry queued requests to ready instances, FIFO on both sides."""
        pool = self._pool
        while self._queue:
            req = self._queue[0]
            if req in self._resolved:
                self._queue.popleft()
                continue
            inst = pool.acquire(now_ns)
            if inst is None:
                return
            self._queue.popleft()
            self._resolved.add(req)
            sample = self._instance_sample[inst.instance_id]
            done = now_ns + sample.invoke_ns
            self._push(done, EventKind.DONE, inst.instance_id)
            if self.tracer is not None:
                rec = [
                    req, self._arrival_of[req], now_ns, 0, inst, sample,
                    self._prov_of.get(inst.instance_id),
                    self._prov_arrive_of.pop(req, None), None,
                ]
                self._records.append(rec)
            else:
                rec = None
            self._serving[inst.instance_id] = (req, inst, now_ns, rec)
            self._touch_idle(now_ns)
            # consuming capacity may open a deficit immediately
            self._provision(now_ns, trigger=req, rec=rec)

    def _touch_idle(self, now_ns: int) -> None:
        self._idle_at = now_ns + self.config.policy.idle_ns
        if not self._idle_armed:
            self._idle_armed = True
            self._push(self._idle_at, EventKind.IDLE, 0)

    # -- deferred trace materialization ----------------------------------------

    @staticmethod
    def _prov_row(prov: list, parent: int | None = 0) -> tuple:
        """A provision record as a commit row: a child of the request
        root, or (``parent=None``) a root of the pool trace."""
        instance_id, window, sample, _ = prov
        attrs = {
            "instance": instance_id,
            "worker": window.worker,
            "failed": sample.failed,
        }
        if sample.source:
            attrs["source"] = sample.source
        return (
            "provision", "provision", window.start_ns, window.end_ns, parent,
            attrs,
        )

    @staticmethod
    def _build_traces(
        tracer: RequestTracer,
        pool_ctx: TraceContext,
        pool_records: list,
        records: list,
        failed_recs: list,
    ) -> None:
        """Turn one run's compact records into span trees, one commit each.

        Runs off the hot path (first tracer read; see
        :meth:`RequestTracer.defer`).  The pool trace comes first, then
        one trace per request in arrival (= index) order; within a
        request trace the spans keep the order the run created them in:
        root, queue, admission-time provisions, execute, dispatch-time
        provisions, respond.  The byte-identical golden
        (``tests/golden/serve_traces.json``) and the differential test
        against the open/close reference (``tests/reference.py``) pin
        this.
        """
        prov_row = ServeEngine._prov_row

        # The pool trace: prewarms, unowned refills and evictions, in
        # event order, all roots.
        rows = []
        for entry in pool_records:
            kind = entry[0]
            if kind == "prewarm":
                instance_id, sample, _ = entry[1]
                attrs = {"instance": instance_id}
                if sample.source:
                    attrs["source"] = sample.source
                rows.append(("prewarm", "prewarm", 0, 0, None, attrs))
            elif kind == "provision":
                rows.append(prov_row(entry[1], None))
            else:
                rows.append((
                    "evict", "evict", entry[2], entry[2], None,
                    {"instance": entry[1]},
                ))
        for entry, span in zip(pool_records, pool_ctx.commit(rows)):
            if entry[0] != "evict":
                entry[1][-1] = span.span_id

        by_index: dict[int, object] = {rec[R_INDEX]: rec for rec in records}
        for failed in failed_recs:
            by_index[failed[1]] = failed
        # (execute attrs, record of the provision that built the
        # instance).  FIFO leasing can hand a request an instance that a
        # *later* request's trace provisioned (and the other way round),
        # so the links resolve once every tree is committed.
        links: list[tuple[dict, list]] = []
        # one stage breakdown dict per sample, shared read-only by the
        # execute spans that replay it
        stage_ns_of: dict[int, dict] = {}
        for index in sorted(by_index):
            rec = by_index[index]
            if rec.__class__ is tuple:  # rejected / deadline
                if rec[0] == "rejected":
                    tracer.trace(f"req/{index}").commit((
                        (
                            "request", "request", rec[2], rec[2], None,
                            {"index": index, "status": "rejected"},
                        ),
                    ))
                    continue
                _, _, arrival_ns, failed_ns, arrive = rec
                arrive = arrive or ()
                rows = [
                    (
                        "request", "request", arrival_ns, failed_ns, None,
                        {"index": index, "status": "deadline"},
                    ),
                    ("queue", "queue", arrival_ns, failed_ns, 0, {}),
                ]
                for prov in arrive:
                    rows.append(prov_row(prov))
                spans = tracer.trace(f"req/{index}").commit(rows)
                for prov, span in zip(arrive, spans[2:]):
                    prov[-1] = span.span_id
                continue

            arrival_ns = rec[R_ARRIVAL]
            dispatch_ns = rec[R_DISPATCH]
            done_ns = rec[R_DONE]
            arrive = rec[R_PROV_ARRIVE] or ()
            dispatch = rec[R_LEN:]
            inst = rec[R_INST]
            sample = rec[R_SAMPLE]
            attrs = {
                "instance": inst.instance_id,
                "cold": inst.ready_ns > arrival_ns,
                "ready_ns": inst.ready_ns,
                "degraded": inst.degraded,
            }
            if rec[R_PROV] is not None:
                links.append((attrs, rec[R_PROV]))
            if sample.source:
                attrs["source"] = sample.source
            if sample.stage_ns:
                stage_ns = stage_ns_of.get(id(sample))
                if stage_ns is None:
                    stage_ns = stage_ns_of[id(sample)] = dict(sample.stage_ns)
                attrs["stage_ns"] = stage_ns
            rows = [
                (
                    "request", "request", arrival_ns, done_ns, None,
                    {
                        "index": index,
                        "status": "served",
                        "latency_ns": done_ns - arrival_ns,
                    },
                ),
                ("queue", "queue", arrival_ns, dispatch_ns, 0, {}),
            ]
            for prov in arrive:
                rows.append(prov_row(prov))
            rows.append(("execute", "execute", dispatch_ns, done_ns, 0, attrs))
            for prov in dispatch:
                rows.append(prov_row(prov))
            rows.append(("respond", "respond", done_ns, done_ns, 0, {}))
            spans = tracer.trace(f"req/{index}", rec[R_TRACE]).commit(rows)
            if arrive or dispatch:
                for prov, span in zip(arrive, spans[2:]):
                    prov[-1] = span.span_id
                for prov, span in zip(dispatch, spans[3 + len(arrive):]):
                    prov[-1] = span.span_id

        for attrs, prov in links:
            attrs["provision_span"] = prov[-1]

    # -- the run ---------------------------------------------------------------

    def run(self, spec: ArrivalSpec) -> ServeResult:
        arrivals = generate_arrivals(spec)
        cfg = self.config
        self._pool = WarmPool(policy=cfg.policy)
        self._provisioners = FleetWallClock(cfg.provisioners)
        self._events: list[tuple[int, EventKind, int, int]] = []
        self._seq = 0
        self._queue: deque[int] = deque()
        self._resolved: set[int] = set()
        self._arrival_of: dict[int, int] = {}
        self._serving: dict[int, tuple] = {}
        self._pending: dict[int, ProductionSample] = {}
        self._instance_sample: dict[int, ProductionSample] = {}
        self._instance_digest: dict[int, str] = {}
        self._production_index = 0
        self._consecutive_failures = 0
        self._breaker_tripped = False
        self._idle_at = 0
        self._idle_armed = False
        #: lifecycle events go to the event log (see ``track``)
        self._lifecycle = self.telemetry is not None and self.track is not None
        #: served-request records, in dispatch order (see R_* layout)
        self._records: list[list] = []
        #: rejected/deadline records, in resolution order
        self._failed_recs: list[tuple] = []
        #: admission-triggered provisions parked until the request resolves
        self._prov_arrive_of: dict[int, list] = {}
        #: instance id -> provision/prewarm record that built it
        self._prov_of: dict[int, list] = {}
        #: pool-trace records (prewarms, unowned refills, evictions),
        #: in event order
        self._pool_records: list[tuple] = []
        #: cell-wide trace adopting spans with no single requester
        #: (prewarms, retry refills, evictions); minting it eagerly
        #: keeps it first in the store's creation order
        self._pool_ctx = (
            self.tracer.trace("pool") if self.tracer is not None else None
        )

        served = rejected = deadline_missed = 0
        cold_starts = degraded_serves = 0
        latencies: list[int] = []
        max_queue_depth = 0
        horizon_ns = spec.duration_ns

        # Prewarm: the pool opens stocked to its floor.  Prewarmed
        # instances are ready at t=0 — their production happened before
        # the observation window, so they are never cold starts.
        for _ in range(cfg.policy.min_ready):
            if self._breaker_tripped:
                break
            instance_id = self._pool.begin_provision()
            sample = self.backend.sample(self._production_index)
            self._production_index += 1
            if sample.failed:
                self._pool.fail_provision()
                self._consecutive_failures += 1
                self._emit.count(0, "serve_provision_failures")
                if self._consecutive_failures >= cfg.max_provision_failures:
                    self._breaker_tripped = True
                    self._emit.count(0, "serve_breaker_trips")
                    if self._lifecycle:
                        self._span(
                            "breaker",
                            start_ns=0,
                            detail=f"failures={self._consecutive_failures}",
                        )
            else:
                self._consecutive_failures = 0
                self._instance_sample[instance_id] = sample
                if self._pool_ctx is not None:
                    prewarm = [instance_id, sample, ""]
                    self._prov_of[instance_id] = prewarm
                    self._pool_records.append(("prewarm", prewarm))
                self._pool.complete_provision(
                    instance_id,
                    ready_ns=0,
                    startup_ns=sample.startup_ns,
                    layout_offset=sample.layout_offset,
                    degraded=sample.degraded,
                )
                self._emit.count(0, "serve_prewarmed")
                if self._lifecycle:
                    self._span(
                        "prewarm", start_ns=0, detail=f"instance={instance_id}"
                    )
                self._audit_record(instance_id, sample, 0)

        for idx, when in enumerate(arrivals):
            self._push(when, EventKind.ARRIVE, idx)

        while self._events:
            now_ns, kind, _seq, payload = heapq.heappop(self._events)
            if self.recorder is not None and (
                kind is not EventKind.DEADLINE or payload not in self._resolved
            ):
                # deadline sentinels for already-served requests are
                # no-ops; advancing on them would drag an empty window
                # tail out to arrival + deadline
                self.recorder.advance(now_ns)

            if kind is EventKind.ARRIVE:
                self._emit.count(now_ns, "serve_arrivals")
                if len(self._queue) >= cfg.queue_cap:
                    rejected += 1
                    self._resolved.add(payload)
                    if self.tracer is not None:
                        self._failed_recs.append(
                            ("rejected", payload, now_ns)
                        )
                    self._count(
                        "repro_serve_failed_total",
                        "Requests the control plane failed",
                        reason="rejected",
                    )
                    self._emit.count(now_ns, "serve_rejected")
                    continue
                self._queue.append(payload)
                self._arrival_of[payload] = now_ns
                max_queue_depth = max(max_queue_depth, len(self._queue))
                self._emit.gauge(now_ns, "serve_queue_depth", len(self._queue))
                self._push(
                    now_ns + cfg.deadline_ns, EventKind.DEADLINE, payload
                )
                self._pool.observe_queue(len(self._queue))
                self._touch_idle(now_ns)
                self._provision(now_ns, trigger=payload)
                self._dispatch(now_ns)

            elif kind is EventKind.READY:
                if payload < 0:  # a failed production completing
                    self._pool.fail_provision()
                    self._consecutive_failures += 1
                    self._count(
                        "repro_serve_provision_failures_total",
                        "Productions that died (cold fallback included)",
                    )
                    self._emit.count(now_ns, "serve_provision_failures")
                    if self._consecutive_failures >= cfg.max_provision_failures:
                        self._breaker_tripped = True
                        self._emit.count(now_ns, "serve_breaker_trips")
                        if self._lifecycle:
                            self._span(
                                "breaker",
                                start_ns=now_ns,
                                detail=f"failures={self._consecutive_failures}",
                            )
                    else:
                        self._provision(now_ns)
                    continue
                self._consecutive_failures = 0
                sample = self._pending.pop(payload)
                self._instance_sample[payload] = sample
                self._pool.complete_provision(
                    payload,
                    ready_ns=now_ns,
                    startup_ns=sample.startup_ns,
                    layout_offset=sample.layout_offset,
                    degraded=sample.degraded,
                )
                self._emit.count(now_ns, "serve_provisioned")
                self._emit.gauge(
                    now_ns, "serve_pool_ready", self._pool.ready_count
                )
                self._audit_record(payload, sample, now_ns)
                self._dispatch(now_ns)

            elif kind is EventKind.DONE:
                req, inst, lease_ns, rec = self._serving.pop(payload)
                self._instance_sample.pop(payload, None)
                self._pool.finish(inst)
                arrival = self._arrival_of.pop(req)
                latencies.append(now_ns - arrival)
                served += 1
                horizon_ns = max(horizon_ns, now_ns)
                cold = inst.ready_ns > arrival
                if cold:
                    cold_starts += 1
                if inst.degraded:
                    degraded_serves += 1
                self._count(
                    "repro_serve_served_total",
                    "Requests served to completion",
                    cold=str(cold).lower(),
                )
                self._observe_latency(now_ns - arrival)
                if self._lifecycle:
                    self._span(
                        "lease",
                        start_ns=lease_ns,
                        duration_ns=now_ns - lease_ns,
                        detail=f"req={req} cold={str(cold).lower()}",
                    )
                exemplar = None
                if rec is not None:
                    rec[R_DONE] = now_ns
                    if self.recorder is not None:
                        # ids are pure functions of (seed, key): one
                        # sha256 stamps the exemplar without
                        # materializing the trace, and the builder
                        # reuses it
                        exemplar = rec[R_TRACE] = self.tracer.trace_id_for(
                            f"req/{req}"
                        )
                self._emit.count(now_ns, "serve_served")
                if cold:
                    self._emit.count(now_ns, "serve_cold_starts")
                self._emit.observe(
                    now_ns,
                    "serve_latency_ms",
                    (now_ns - arrival) / 1e6,
                    exemplar=exemplar,
                )
                self._audit_touch(payload, now_ns)
                self._provision(now_ns)
                self._dispatch(now_ns)

            elif kind is EventKind.DEADLINE:
                if payload in self._resolved:
                    continue
                self._resolved.add(payload)
                # eager removal keeps the admission bound honest: a
                # timed-out request must stop occupying a queue slot
                self._queue.remove(payload)
                arrival = self._arrival_of.pop(payload, now_ns)
                if self.tracer is not None:
                    self._failed_recs.append((
                        "deadline", payload, arrival, now_ns,
                        self._prov_arrive_of.pop(payload, None),
                    ))
                deadline_missed += 1
                self._count(
                    "repro_serve_failed_total",
                    "Requests the control plane failed",
                    reason="deadline",
                )
                self._emit.count(now_ns, "serve_deadline_missed")

            elif kind is EventKind.IDLE:
                if now_ns < self._idle_at:
                    self._push(self._idle_at, EventKind.IDLE, 0)
                    continue
                self._idle_armed = False
                if not self._queue:
                    retired = self._pool.scale_to_floor(now_ns)
                    self._emit.count(now_ns, "serve_evicted", len(retired))
                    for inst in retired:
                        if self._lifecycle:
                            self._span(
                                "evict",
                                start_ns=now_ns,
                                detail=f"instance={inst.instance_id}",
                            )
                        if self._pool_ctx is not None:
                            self._pool_records.append(
                                ("evict", inst.instance_id, now_ns)
                            )
                        self._audit_touch(inst.instance_id, now_ns)

        self._pool.drain()
        self._export_gauges(max_queue_depth)
        if self.recorder is not None:
            # close every window through the run horizon so the frame
            # sequence tiles the full observation span deterministically
            self.recorder.close(horizon_ns)
        if self.tracer is not None:
            # hand the compact records to the tracer; span trees
            # materialize on the first read, off the hot path.  The
            # builder captures this run's stores so a re-run of the
            # engine cannot alias them.
            self.tracer.defer(
                partial(
                    self._build_traces,
                    self.tracer,
                    self._pool_ctx,
                    self._pool_records,
                    self._records,
                    self._failed_recs,
                )
            )

        return ServeResult(
            arrivals=len(arrivals),
            served=served,
            rejected=rejected,
            deadline_missed=deadline_missed,
            cold_starts=cold_starts,
            degraded_serves=degraded_serves,
            latencies_ns=tuple(latencies),
            max_queue_depth=max_queue_depth,
            pool=self._pool.stats(),
            provisioner_busy=self._provisioners.busy_fraction(horizon_ns),
            breaker_tripped=self._breaker_tripped,
            horizon_ns=horizon_ns,
        ).check()

    # -- telemetry -------------------------------------------------------------

    def _observe_latency(self, latency_ns: int) -> None:
        if self.telemetry is None:
            return
        self._instrument(
            "histogram",
            "repro_serve_latency_ns",
            "End-to-end request latency (arrival to completion)",
        ).observe(latency_ns)

    def _export_gauges(self, max_queue_depth: int) -> None:
        if self.telemetry is None:
            return
        registry = self.telemetry.registry
        registry.gauge(
            "repro_serve_peak_queue_depth",
            help="High-water mark of the admission queue",
            **self.labels,
        ).set(max_queue_depth)
        registry.gauge(
            "repro_serve_peak_pool_ready",
            help="High-water mark of warm instances ready to lease",
            **self.labels,
        ).set(self._pool.peak_ready)
        registry.gauge(
            "repro_serve_pool_target",
            help="Autoscale target at end of run",
            **self.labels,
        ).set(self._pool.target)
