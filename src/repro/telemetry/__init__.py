"""Fleet-wide telemetry: metrics registry, boot-event log, exporters.

The paper reads every figure out of ``perf`` traces (Section 5.1) and
its instantiation-rate argument (Section 6) out of repeated, overlapping
boots; this package is the reproduction's equivalent evidence layer.
One :class:`Telemetry` object bundles the two stores —

* a :class:`~repro.telemetry.registry.MetricsRegistry` of labeled
  counters / gauges / histograms, and
* a :class:`~repro.telemetry.events.BootEventLog` of structured,
  monotonically sequenced per-stage records —

and takes the calls :func:`repro.monitor.vmm.record_boot` and the fleet
manager make.  Exporters (:mod:`repro.telemetry.export`) read both
through one frozen :class:`~repro.telemetry.export.TelemetrySnapshot`.

Scoping: there is no process-wide default.  Whoever wants telemetry
creates a ``Telemetry`` and hands it (or its registry) to the layers it
should observe; a layer given none records nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.alerts import AlertManager, AlertRule, BurnRateRule
from repro.telemetry.events import (
    KIND_ALERT,
    KIND_BOOT,
    KIND_SERVE,
    KIND_STAGE,
    BootEvent,
    BootEventLog,
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
from repro.telemetry.timeseries import TimeSeriesRecorder, WindowFrame
from repro.telemetry.tracing import (
    RequestTracer,
    Span,
    TraceContext,
    derive_trace_id,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simtime.trace import StageSpan


class Telemetry:
    """Registry + event log behind one facade.

    The recording methods translate stage and fleet callbacks into both
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
        profiler: CostProfiler | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log = log if log is not None else BootEventLog()
        #: optional flight recorder; recording methods feed it when installed
        self.timeseries = timeseries
        #: optional request tracer; snapshots carry its span trees so the
        #: Chrome exporter can render per-request tracks
        self.tracer = tracer
        #: optional cost profile; every boot and restore recorded here
        #: (:func:`repro.monitor.vmm.record_boot`) is folded into it
        self.profiler = profiler

    def scoped(self, **labels: str) -> "Telemetry":
        """A label-injecting view sharing this instance's log/recorder.

        Metrics written through the view carry ``labels``; the event log,
        flight recorder, tracer and profile are shared, so one snapshot
        still sees the whole run.  `repro serve` hands each strategy its
        own scope to keep counters from bleeding between strategies in
        one process.
        """
        return Telemetry(
            registry=ScopedRegistry(self.registry, labels),
            log=self.log,
            timeseries=self.timeseries,
            tracer=self.tracer,
            profiler=self.profiler,
        )

    # -- recording -------------------------------------------------------------

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
        if self.timeseries is not None:
            # fleet wall time: the boot lands in the window it completed
            end_ns = start_ns + duration_ns
            self.timeseries.count(end_ns, "fleet_boots")
            self.timeseries.observe(end_ns, "boot_ms", duration_ns / NS_PER_MS)

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
    "TelemetrySnapshot",
    "TimeSeriesRecorder",
    "TraceContext",
    "WindowFrame",
    "critical_path",
    "derive_trace_id",
    "latency_summary",
    "percentile",
    "request_paths",
    "slowest",
    "tail_attribution",
    "to_chrome_trace",
    "to_json_dump",
    "to_prometheus",
]
