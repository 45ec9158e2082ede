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

One writer: the event loop keeps only simulation state (the heap, the
admission queue, the warm pool, the breaker, the provisioners) and
appends one entry per processed event to the run's log (see
:class:`Logged`).  After the loop, :meth:`ServeEngine._derive` walks the
log once, in order, and writes every view of the run from it: the
:class:`ServeResult` tallies, the ``repro_serve_*`` series, the flight
recorder's windows, the ``serve:<cell>`` lifecycle track, the KASLR
audit and, deferred to the first tracer read, the request traces.
Nothing in the loop reads a view back, so a run with every sink
installed simulates exactly what a bare run does.

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
from repro.serve.pool import AutoscalePolicy, PoolStats, WarmPool
from repro.simtime.fleetclock import FleetWallClock
from repro.telemetry import Telemetry
from repro.telemetry.timeseries import TimeSeriesRecorder
from repro.telemetry.tracing import RequestTracer, TraceContext

__all__ = ["EventKind", "Logged", "ServeConfig", "ServeEngine", "ServeResult"]


class EventKind(enum.IntEnum):
    """Processing order for events sharing a timestamp."""

    READY = 0  # a provision completed (or failed) — capacity first
    DONE = 1  # an invocation finished
    ARRIVE = 2  # a request enters the system
    DEADLINE = 3  # a queued request gives up
    IDLE = 4  # scale-down watchdog


class Logged(enum.IntEnum):
    """What one run-log entry records; every entry is ``(kind, t_ns, ...)``.

    The log is the event loop's only output.  The loop is the hot path
    (a traced run must stay within a few percent of an untraced one; the
    gated ``BENCH_trace_overhead`` series pins this), so an entry is one
    tuple of ints and references to already-immutable objects (samples,
    provisioner windows, leased instances), and the fields after the
    instant are exactly the values the views read.
    """

    PREWARM = 0  # instance_id, sample (a failed sample: the prewarm died)
    PROVISION = 1  # instance_id, window, sample, trigger, at_dispatch
    READY = 2  # instance_id, sample, ready count after it landed
    FAILED = 3  # (nothing) a production died
    BREAKER = 4  # consecutive failures that tripped the breaker
    ARRIVE = 5  # request, queue depth after admission
    REJECT = 6  # request
    DONE = 7  # request, arrival_ns, lease_ns, WarmInstance, sample
    DEADLINE = 8  # request, arrival_ns
    TICK = 9  # (nothing) the idle watchdog popped; evictions follow
    EVICT = 10  # instance_id


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


def _provision_row(entry: tuple, parent: int | None = 0) -> tuple:
    """A ``PROVISION`` log entry as a commit row: a child of the request
    root, or (``parent=None``) a root of the pool trace."""
    _, _, instance_id, window, sample, _, _ = entry
    attrs = {
        "instance": instance_id,
        "worker": window.worker,
        "failed": sample.failed,
    }
    if sample.source:
        attrs["source"] = sample.source
    return (
        "provision", "provision", window.start_ns, window.end_ns, parent, attrs,
    )


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
        #: optional flight recorder (arrivals, serves, depth per window)
        self.recorder = recorder
        #: optional KASLR auditor fed one record per provisioned instance
        self.auditor = auditor
        #: Chrome-trace track for lifecycle events; events are recorded
        #: only when both a telemetry sink and a track name are
        #: configured, so plain engine runs stay event-free (the CLI
        #: names a track only when it exports the event log)
        self.track = track
        #: optional request tracer (usually a per-cell scoped view); when
        #: absent the run is byte-identical to an untraced one, and when
        #: present the span trees materialize lazily from the run's log
        #: (see :meth:`_build_traces`)
        self.tracer = tracer

    # -- the simulation --------------------------------------------------------

    def _push(self, when_ns: int, kind: EventKind, payload: int) -> None:
        heapq.heappush(self._events, (when_ns, kind, self._seq, payload))
        self._seq += 1

    def _provision(
        self, now_ns: int, trigger: int | None = None, at_dispatch: bool = False
    ) -> None:
        """Chase the target: start provisions until the deficit closes.

        ``trigger`` is the request index whose admission (or, with
        ``at_dispatch``, whose dispatch) opened the deficit; its trace
        adopts the provision spans, so a cold request's scale-up shows up
        *inside* that request's tree.  Refills with no single cause
        (prewarm top-ups, post-failure retries) land on the cell's
        ``pool`` trace instead.
        """
        if self._breaker_tripped:
            return
        pool = self._pool
        while pool.deficit() > 0:
            instance_id = pool.begin_provision()
            sample = self.backend.sample(self._production_index)
            self._production_index += 1
            window = self._provisioners.schedule_at(now_ns, sample.startup_ns)
            self._log.append((
                Logged.PROVISION, now_ns, instance_id, window, sample,
                trigger, at_dispatch,
            ))
            if sample.failed:
                # the provisioner still burns the time before giving up
                self._push(window.end_ns, EventKind.READY, -(instance_id + 1))
            else:
                self._pending[instance_id] = sample
                self._push(window.end_ns, EventKind.READY, instance_id)

    def _production_died(self, now_ns: int) -> bool:
        """Account one dead production; True once the breaker is tripped.

        The trip is logged once, on the transition: productions already
        in flight when it trips die without tripping it again.
        """
        self._pool.fail_provision()
        self._consecutive_failures += 1
        if (
            not self._breaker_tripped
            and self._consecutive_failures >= self.config.max_provision_failures
        ):
            self._breaker_tripped = True
            self._log.append(
                (Logged.BREAKER, now_ns, self._consecutive_failures)
            )
        return self._breaker_tripped

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
            sample = self._instance_sample.pop(inst.instance_id)
            self._push(now_ns + sample.invoke_ns, EventKind.DONE, inst.instance_id)
            self._serving[inst.instance_id] = (req, inst, now_ns, sample)
            self._touch_idle(now_ns)
            # consuming capacity may open a deficit immediately
            self._provision(now_ns, trigger=req, at_dispatch=True)

    def _touch_idle(self, now_ns: int) -> None:
        self._idle_at = now_ns + self.config.policy.idle_ns
        if not self._idle_armed:
            self._idle_armed = True
            self._push(self._idle_at, EventKind.IDLE, 0)

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
        self._production_index = 0
        self._consecutive_failures = 0
        self._breaker_tripped = False
        self._idle_at = 0
        self._idle_armed = False
        #: one entry per processed event (see :class:`Logged`)
        log = self._log = []

        # Prewarm: the pool opens stocked to its floor.  Prewarmed
        # instances are ready at t=0 — their production happened before
        # the observation window, so they are never cold starts.
        for _ in range(cfg.policy.min_ready):
            if self._breaker_tripped:
                break
            instance_id = self._pool.begin_provision()
            sample = self.backend.sample(self._production_index)
            self._production_index += 1
            log.append((Logged.PREWARM, 0, instance_id, sample))
            if sample.failed:
                self._production_died(0)
                continue
            self._consecutive_failures = 0
            self._instance_sample[instance_id] = sample
            self._pool.complete_provision(
                instance_id,
                ready_ns=0,
                startup_ns=sample.startup_ns,
                layout_offset=sample.layout_offset,
                degraded=sample.degraded,
            )

        for idx, when in enumerate(arrivals):
            self._push(when, EventKind.ARRIVE, idx)

        while self._events:
            now_ns, kind, _seq, payload = heapq.heappop(self._events)

            if kind is EventKind.ARRIVE:
                if len(self._queue) >= cfg.queue_cap:
                    self._resolved.add(payload)
                    log.append((Logged.REJECT, now_ns, payload))
                    continue
                self._queue.append(payload)
                self._arrival_of[payload] = now_ns
                log.append((Logged.ARRIVE, now_ns, payload, len(self._queue)))
                self._push(
                    now_ns + cfg.deadline_ns, EventKind.DEADLINE, payload
                )
                self._pool.observe_queue(len(self._queue))
                self._touch_idle(now_ns)
                self._provision(now_ns, trigger=payload)
                self._dispatch(now_ns)

            elif kind is EventKind.READY:
                if payload < 0:  # a failed production completing
                    log.append((Logged.FAILED, now_ns))
                    if not self._production_died(now_ns):
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
                log.append((
                    Logged.READY, now_ns, payload, sample,
                    self._pool.ready_count,
                ))
                self._dispatch(now_ns)

            elif kind is EventKind.DONE:
                req, inst, lease_ns, sample = self._serving.pop(payload)
                self._pool.finish(inst)
                log.append((
                    Logged.DONE, now_ns, req, self._arrival_of.pop(req),
                    lease_ns, inst, sample,
                ))
                self._provision(now_ns)
                self._dispatch(now_ns)

            elif kind is EventKind.DEADLINE:
                # a served request's sentinel is a no-op and logs nothing,
                # so the recorder never drags an empty window tail out to
                # arrival + deadline
                if payload in self._resolved:
                    continue
                self._resolved.add(payload)
                # eager removal keeps the admission bound honest: a
                # timed-out request must stop occupying a queue slot
                self._queue.remove(payload)
                log.append((
                    Logged.DEADLINE, now_ns, payload,
                    self._arrival_of.pop(payload, now_ns),
                ))

            elif kind is EventKind.IDLE:
                # logged even when it only re-arms: the recorder's
                # windows close at every processed instant
                log.append((Logged.TICK, now_ns))
                if now_ns < self._idle_at:
                    self._push(self._idle_at, EventKind.IDLE, 0)
                    continue
                self._idle_armed = False
                if not self._queue:
                    for inst in self._pool.scale_to_floor(now_ns):
                        log.append((Logged.EVICT, now_ns, inst.instance_id))

        self._pool.drain()
        del self._log
        return self._derive(log, len(arrivals), spec.duration_ns)

    # -- the views -------------------------------------------------------------

    def _derive(self, log: list, arrivals: int, horizon_ns: int) -> ServeResult:
        """Walk one run's log once, in order, and write every view of it.

        The recorder advances to each entry's instant before the entry's
        samples land, so windows close (and alerts fire) at the instants
        the events happened; lifecycle events and audit records follow
        in log order.  The registry series and the result are the walk's
        tallies.  The request traces are deferred: the builder keeps the
        log until the first tracer read.
        """
        recorder, auditor, tracer = self.recorder, self.auditor, self.tracer
        span = (
            partial(self.telemetry.serve_span, self.track)
            if self.telemetry is not None and self.track is not None
            else None
        )
        strategy = self.labels.get("strategy", self.track or "serve")
        #: instance id -> layout digest, until its last live sighting
        digests: dict[int, str] = {}
        #: request -> the exemplar's trace id, handed on to the builder
        trace_ids: dict[int, str] = {}

        def audit(instance_id: int, sample: ProductionSample, t_ns: int) -> None:
            if auditor is None:
                return
            # hand-built test samples carry no digest; the layout offset is
            # the next-best fingerprint (coarser: FGKASLR shuffles invisible)
            digests[instance_id] = auditor.record(
                f"{self.track or 'serve'}:instance:{instance_id}",
                strategy=strategy,
                t_ns=t_ns,
                digest=sample.layout_digest or f"off:{sample.layout_offset:#x}",
            )

        def touch(instance_id: int, t_ns: int) -> None:
            """Extend a layout's validity span to its last live sighting."""
            digest = digests.pop(instance_id, None)
            if digest is not None:
                auditor.touch(strategy, digest, t_ns)

        latencies: list[int] = []
        cold_starts = degraded_serves = rejected = deadline_missed = 0
        failures = max_queue_depth = 0
        advanced_ns = 0
        for entry in log:
            kind, now_ns = entry[0], entry[1]
            if recorder is not None and now_ns != advanced_ns:
                recorder.advance(now_ns)
                advanced_ns = now_ns

            if kind is Logged.DONE:
                _, _, req, arrival_ns, lease_ns, inst, _ = entry
                latency_ns = now_ns - arrival_ns
                latencies.append(latency_ns)
                horizon_ns = max(horizon_ns, now_ns)
                cold = inst.ready_ns > arrival_ns
                if cold:
                    cold_starts += 1
                if inst.degraded:
                    degraded_serves += 1
                if span is not None:
                    span(
                        name="lease",
                        start_ns=lease_ns,
                        duration_ns=now_ns - lease_ns,
                        detail=f"req={req} cold={str(cold).lower()}",
                    )
                if recorder is not None:
                    exemplar = None
                    if tracer is not None:
                        # ids are pure functions of (seed, key): one
                        # sha256 stamps the exemplar without
                        # materializing the trace, and the builder
                        # reuses it
                        exemplar = trace_ids[req] = tracer.trace_id_for(
                            f"req/{req}"
                        )
                    recorder.count(now_ns, "serve_served")
                    if cold:
                        recorder.count(now_ns, "serve_cold_starts")
                    recorder.observe(
                        now_ns, "serve_latency_ms", latency_ns / 1e6,
                        exemplar=exemplar,
                    )
                touch(inst.instance_id, now_ns)

            elif kind is Logged.ARRIVE:
                depth = entry[3]
                max_queue_depth = max(max_queue_depth, depth)
                if recorder is not None:
                    recorder.count(now_ns, "serve_arrivals")
                    recorder.set_gauge(now_ns, "serve_queue_depth", depth)

            elif kind is Logged.PROVISION:
                if recorder is not None:
                    recorder.count(now_ns, "serve_provision_started")
                if span is not None:
                    _, _, instance_id, window, sample, _, _ = entry
                    span(
                        name="provision",
                        start_ns=window.start_ns,
                        duration_ns=window.end_ns - window.start_ns,
                        worker=window.worker,
                        detail=f"instance={instance_id} failed={sample.failed}",
                    )

            elif kind is Logged.READY:
                _, _, instance_id, sample, ready = entry
                if recorder is not None:
                    recorder.count(now_ns, "serve_provisioned")
                    recorder.set_gauge(now_ns, "serve_pool_ready", ready)
                audit(instance_id, sample, now_ns)

            elif kind is Logged.REJECT:
                rejected += 1
                if recorder is not None:
                    recorder.count(now_ns, "serve_arrivals")
                    recorder.count(now_ns, "serve_rejected")

            elif kind is Logged.DEADLINE:
                deadline_missed += 1
                if recorder is not None:
                    recorder.count(now_ns, "serve_deadline_missed")

            elif kind is Logged.EVICT:
                instance_id = entry[2]
                if recorder is not None:
                    recorder.count(now_ns, "serve_evicted")
                if span is not None:
                    span(
                        name="evict", start_ns=now_ns,
                        detail=f"instance={instance_id}",
                    )
                touch(instance_id, now_ns)

            elif kind is Logged.PREWARM:
                _, _, instance_id, sample = entry
                if sample.failed:
                    failures += 1
                    if recorder is not None:
                        recorder.count(now_ns, "serve_provision_failures")
                    continue
                if recorder is not None:
                    recorder.count(now_ns, "serve_prewarmed")
                if span is not None:
                    span(
                        name="prewarm", start_ns=now_ns,
                        detail=f"instance={instance_id}",
                    )
                audit(instance_id, sample, now_ns)

            elif kind is Logged.FAILED:
                failures += 1
                if recorder is not None:
                    recorder.count(now_ns, "serve_provision_failures")

            elif kind is Logged.BREAKER:
                if recorder is not None:
                    recorder.count(now_ns, "serve_breaker_trips")
                if span is not None:
                    span(
                        name="breaker", start_ns=now_ns,
                        detail=f"failures={entry[2]}",
                    )

        if self.telemetry is not None:
            self._export(
                latencies, cold_starts, rejected, deadline_missed, failures,
                max_queue_depth,
            )
        if recorder is not None:
            # close every window through the run horizon so the frame
            # sequence tiles the full observation span deterministically
            recorder.close(horizon_ns)
        if tracer is not None:
            # the cell-wide trace adopting spans with no single requester
            # (prewarms, retry refills, evictions); minting it now keeps it
            # first among this run's traces in the store's creation order
            tracer.defer(
                partial(
                    self._build_traces, tracer, tracer.trace("pool"), log,
                    trace_ids,
                )
            )

        return ServeResult(
            arrivals=arrivals,
            served=len(latencies),
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

    def _export(
        self,
        latencies: list[int],
        cold_starts: int,
        rejected: int,
        deadline_missed: int,
        failures: int,
        max_queue_depth: int,
    ) -> None:
        """The run's ``repro_serve_*`` series.  A counter appears only
        once it counts something, so no zero-valued series is exported."""
        registry, labels = self.telemetry.registry, self.labels
        served = "Requests served to completion"
        failed = "Requests the control plane failed"
        died = "Productions that died (cold fallback included)"
        for name, help_text, extra, amount in (
            ("repro_serve_served_total", served, {"cold": "true"}, cold_starts),
            (
                "repro_serve_served_total", served, {"cold": "false"},
                len(latencies) - cold_starts,
            ),
            ("repro_serve_failed_total", failed, {"reason": "rejected"}, rejected),
            (
                "repro_serve_failed_total", failed, {"reason": "deadline"},
                deadline_missed,
            ),
            ("repro_serve_provision_failures_total", died, {}, failures),
        ):
            if amount:
                registry.counter(name, help=help_text, **labels, **extra).inc(amount)
        if latencies:
            histogram = registry.histogram(
                "repro_serve_latency_ns",
                help="End-to-end request latency (arrival to completion)",
                **labels,
            )
            for latency_ns in latencies:
                histogram.observe(latency_ns)
        for name, help_text, value in (
            (
                "repro_serve_peak_queue_depth",
                "High-water mark of the admission queue", max_queue_depth,
            ),
            (
                "repro_serve_peak_pool_ready",
                "High-water mark of warm instances ready to lease",
                self._pool.peak_ready,
            ),
            (
                "repro_serve_pool_target",
                "Autoscale target at end of run", self._pool.target,
            ),
        ):
            registry.gauge(name, help=help_text, **labels).set(value)

    @staticmethod
    def _build_traces(
        tracer: RequestTracer,
        pool_ctx: TraceContext,
        log: list,
        trace_ids: dict[int, str],
    ) -> None:
        """Turn one run's log into span trees, one commit per trace.

        Runs off the hot path (first tracer read; see
        :meth:`RequestTracer.defer`).  The pool trace comes first —
        prewarms, unowned refills and evictions in log order, all roots —
        then one trace per request in arrival (= index) order; within a
        request trace the spans keep the order the run created them in:
        root, queue, admission-time provisions, execute, dispatch-time
        provisions, respond.  ``trace_ids`` holds the ids the recorder's
        exemplars already derived.  The byte-identical golden
        (``tests/golden/serve_traces.json``) and the differential test
        against the open/close reference (``tests/reference.py``) pin
        this.
        """
        pool_rows: list[tuple] = []
        #: per pool row, the instance it built (None for an eviction)
        pool_built: list[int | None] = []
        #: (request, at_dispatch) -> the provisions it triggered
        provisions: dict[tuple[int, bool], list[tuple]] = {}
        #: request -> the entry that resolved it (DONE, DEADLINE, REJECT)
        resolved: dict[int, tuple] = {}
        for entry in log:
            kind = entry[0]
            if kind is Logged.PROVISION:
                if entry[5] is None:
                    pool_rows.append(_provision_row(entry, None))
                    pool_built.append(entry[2])
                else:
                    provisions.setdefault((entry[5], entry[6]), []).append(entry)
            elif kind in (Logged.DONE, Logged.DEADLINE, Logged.REJECT):
                resolved[entry[2]] = entry
            elif kind is Logged.PREWARM:
                _, _, instance_id, sample = entry
                if not sample.failed:
                    attrs = {"instance": instance_id}
                    if sample.source:
                        attrs["source"] = sample.source
                    pool_rows.append(("prewarm", "prewarm", 0, 0, None, attrs))
                    pool_built.append(instance_id)
            elif kind is Logged.EVICT:
                pool_rows.append((
                    "evict", "evict", entry[1], entry[1], None,
                    {"instance": entry[2]},
                ))
                pool_built.append(None)

        #: instance id -> span id of the provision or prewarm that built it
        built_by: dict[int, str] = {}
        for instance_id, span in zip(pool_built, pool_ctx.commit(pool_rows)):
            if instance_id is not None:
                built_by[instance_id] = span.span_id

        # (execute attrs, leased instance id).  FIFO leasing can hand a
        # request an instance that a *later* request's trace provisioned
        # (and the other way round), so the links resolve once every tree
        # is committed.
        links: list[tuple[dict, int]] = []
        # one stage breakdown dict per sample, shared read-only by the
        # execute spans that replay it
        stage_ns_of: dict[int, dict] = {}
        for index in sorted(resolved):
            entry = resolved[index]
            kind = entry[0]
            if kind is Logged.REJECT:
                tracer.trace(f"req/{index}").commit((
                    (
                        "request", "request", entry[1], entry[1], None,
                        {"index": index, "status": "rejected"},
                    ),
                ))
                continue
            arrive = provisions.get((index, False), ())
            if kind is Logged.DEADLINE:
                _, failed_ns, _, arrival_ns = entry
                rows = [
                    (
                        "request", "request", arrival_ns, failed_ns, None,
                        {"index": index, "status": "deadline"},
                    ),
                    ("queue", "queue", arrival_ns, failed_ns, 0, {}),
                ]
                rows.extend(_provision_row(prov) for prov in arrive)
                spans = tracer.trace(f"req/{index}").commit(rows)
                for prov, span in zip(arrive, spans[2:]):
                    built_by[prov[2]] = span.span_id
                continue

            _, done_ns, _, arrival_ns, dispatch_ns, inst, sample = entry
            dispatch = provisions.get((index, True), ())
            attrs = {
                "instance": inst.instance_id,
                "cold": inst.ready_ns > arrival_ns,
                "ready_ns": inst.ready_ns,
                "degraded": inst.degraded,
            }
            links.append((attrs, inst.instance_id))
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
            rows.extend(_provision_row(prov) for prov in arrive)
            rows.append(("execute", "execute", dispatch_ns, done_ns, 0, attrs))
            rows.extend(_provision_row(prov) for prov in dispatch)
            rows.append(("respond", "respond", done_ns, done_ns, 0, {}))
            spans = tracer.trace(f"req/{index}", trace_ids.get(index)).commit(rows)
            for prov, span in zip(arrive, spans[2:]):
                built_by[prov[2]] = span.span_id
            for prov, span in zip(dispatch, spans[3 + len(arrive):]):
                built_by[prov[2]] = span.span_id

        for attrs, instance_id in links:
            attrs["provision_span"] = built_by[instance_id]
