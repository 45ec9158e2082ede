"""Fleet-wide telemetry: metrics registry, boot-event log, exporters.

The paper reads every figure out of ``perf`` traces (Section 5.1) and
its instantiation-rate argument (Section 6) out of repeated, overlapping
boots; this package is the reproduction's equivalent evidence layer.
One :class:`Telemetry` object bundles the two stores —

* a :class:`~repro.telemetry.registry.MetricsRegistry` of labeled
  counters / gauges / histograms, and
* a :class:`~repro.telemetry.events.BootEventLog` of structured,
  monotonically sequenced per-stage records —

and implements the :class:`~repro.telemetry.events.TelemetrySink`
protocol that :func:`repro.monitor.vmm.record_boot` and the fleet
manager feed.  Exporters (:mod:`repro.telemetry.export`) read both
through one frozen :class:`~repro.telemetry.export.TelemetrySnapshot`.

Scoping: a process-wide default instance backs every instrumented layer
that was not handed an explicit registry/telemetry, so ad-hoc scripts
get metrics for free; anything that wants isolated counters (a fleet
launch, a golden test) creates its own ``Telemetry`` and either injects
it or installs it with :func:`scoped_telemetry`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.telemetry.alerts import AlertManager, AlertRule, BurnRateRule
from repro.telemetry.events import (
    KIND_ALERT,
    KIND_BOOT,
    KIND_SERVE,
    KIND_STAGE,
    BootEvent,
    BootEventLog,
    TelemetrySink,
)
from repro.telemetry.export import (
    TelemetrySnapshot,
    to_chrome_trace,
    to_json_dump,
    to_prometheus,
)
from repro.telemetry.profiler import CostProfiler
from repro.telemetry.registry import (
    DEFAULT_NS_BUCKETS,
    NS_PER_MS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricPoint,
    MetricsRegistry,
    ScopedRegistry,
)
from repro.telemetry.critical_path import (
    CriticalPath,
    Segment,
    TailAttribution,
    critical_path,
    request_paths,
    slowest,
    tail_attribution,
)
from repro.telemetry.stats import StageLatency, latency_summary, percentile
from repro.telemetry.timeseries import (
    TimeSeriesRecorder,
    WindowFrame,
    WindowedEmitter,
)
from repro.telemetry.tracing import (
    RequestTracer,
    Span,
    TraceContext,
    derive_trace_id,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simtime.trace import StageSpan


class Telemetry:
    """Registry + event log behind one :class:`TelemetrySink` facade.

    The sink methods translate stage and fleet callbacks into both
    stores: a structured event in the log, and the corresponding
    counters/histograms in the registry (metric names follow the
    ``repro_<subsystem>_<name>_<unit>`` convention).
    """

    def __init__(
        self,
        registry: MetricsRegistry | ScopedRegistry | None = None,
        log: BootEventLog | None = None,
        timeseries: TimeSeriesRecorder | None = None,
        tracer: RequestTracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log = log if log is not None else BootEventLog()
        #: optional flight recorder; sink methods feed it when installed
        self.timeseries = timeseries
        #: shared null-safe recorder facade (fleet timeseries forwarding
        #: and the serve engine write through the same helper)
        self.emitter = WindowedEmitter(timeseries)
        #: optional request tracer; snapshots carry its span trees so the
        #: Chrome exporter can render per-request tracks
        self.tracer = tracer

    def scoped(self, **labels: str) -> "Telemetry":
        """A label-injecting view sharing this instance's log/recorder.

        Metrics written through the view carry ``labels``; the event log,
        flight recorder, and tracer are shared, so one snapshot still
        sees the whole run.  `repro serve` hands each strategy its own
        scope to keep counters from bleeding between strategies in one
        process.
        """
        return Telemetry(
            registry=ScopedRegistry(self.registry, labels),
            log=self.log,
            timeseries=self.timeseries,
            tracer=self.tracer,
        )

    # -- TelemetrySink ---------------------------------------------------------

    def stage_span(self, boot_id: str, span: "StageSpan") -> None:
        """Record one completed pipeline stage (event + stage metrics)."""
        self.log.record(
            boot_id=boot_id,
            kind=KIND_STAGE,
            name=span.name,
            category=span.category,
            principal=span.principal,
            start_ns=span.start_ns,
            duration_ns=span.charged_ns,
            cache_hit=span.cache_hit,
            detail=span.detail,
        )
        self.registry.histogram(
            "repro_pipeline_stage_duration_ms",
            help="Simulated duration of one pipeline stage",
            scale=NS_PER_MS,
            stage=span.name,
        ).observe(span.charged_ns)
        self.registry.counter(
            "repro_pipeline_stage_runs_total",
            help="Pipeline stage executions",
            stage=span.name,
        ).inc()
        if span.cache_hit is True:
            self.registry.counter(
                "repro_pipeline_stage_cache_hits_total",
                help="Pipeline stages served by a cache",
                stage=span.name,
            ).inc()
        elif span.cache_hit is False:
            self.registry.counter(
                "repro_pipeline_stage_cache_misses_total",
                help="Pipeline stages that missed a cache",
                stage=span.name,
            ).inc()

    def boot_window(
        self,
        boot_id: str,
        *,
        worker: int,
        start_ns: int,
        duration_ns: int,
        detail: str = "",
    ) -> None:
        """Record one boot's scheduled wall window on a fleet worker."""
        self.log.record(
            boot_id=boot_id,
            kind=KIND_BOOT,
            name="boot",
            category="boot",
            principal="monitor",
            start_ns=start_ns,
            duration_ns=duration_ns,
            worker=worker,
            detail=detail,
        )
        # fleet wall time: the boot lands in the window it completed
        end_ns = start_ns + duration_ns
        self.emitter.count(end_ns, "fleet_boots")
        self.emitter.observe(end_ns, "boot_ms", duration_ns / NS_PER_MS)

    def serve_span(
        self,
        track: str,
        *,
        name: str,
        start_ns: int,
        duration_ns: int = 0,
        worker: int | None = None,
        detail: str = "",
    ) -> None:
        """Record one serve-engine lifecycle event (provision/lease/...).

        ``track`` groups events into one Chrome-trace track per engine
        run (``serve:<strategy>@<rate>``), separate from worker tracks.
        """
        self.log.record(
            boot_id=track,
            kind=KIND_SERVE,
            name=name,
            category="serve",
            principal="control-plane",
            start_ns=start_ns,
            duration_ns=duration_ns,
            worker=worker,
            detail=detail,
        )

    # -- snapshotting ----------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot.of(
            self.registry, self.log, self.timeseries, tracer=self.tracer
        )


_default = Telemetry()
_default_lock = threading.Lock()


def get_telemetry() -> Telemetry:
    """The process-wide telemetry instance (unless one is scoped in)."""
    with _default_lock:
        return _default


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Install a new process-wide instance; returns the previous one."""
    global _default
    with _default_lock:
        previous = _default
        _default = telemetry
        return previous


@contextmanager
def scoped_telemetry(telemetry: Telemetry | None = None) -> Iterator[Telemetry]:
    """Temporarily make ``telemetry`` (default: a fresh one) the default."""
    scoped = telemetry if telemetry is not None else Telemetry()
    previous = set_telemetry(scoped)
    try:
        yield scoped
    finally:
        set_telemetry(previous)


__all__ = [
    "AlertManager",
    "AlertRule",
    "BootEvent",
    "BootEventLog",
    "BurnRateRule",
    "CostProfiler",
    "Counter",
    "CriticalPath",
    "DEFAULT_NS_BUCKETS",
    "Gauge",
    "Histogram",
    "KIND_ALERT",
    "KIND_BOOT",
    "KIND_SERVE",
    "KIND_STAGE",
    "MetricFamily",
    "MetricPoint",
    "MetricsRegistry",
    "NS_PER_MS",
    "RequestTracer",
    "ScopedRegistry",
    "Segment",
    "Span",
    "StageLatency",
    "TailAttribution",
    "Telemetry",
    "TelemetrySink",
    "TelemetrySnapshot",
    "TimeSeriesRecorder",
    "TraceContext",
    "WindowFrame",
    "WindowedEmitter",
    "critical_path",
    "derive_trace_id",
    "get_telemetry",
    "latency_summary",
    "percentile",
    "request_paths",
    "scoped_telemetry",
    "set_telemetry",
    "slowest",
    "tail_attribution",
    "to_chrome_trace",
    "to_json_dump",
    "to_prometheus",
]
