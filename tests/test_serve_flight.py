"""Flight-recorder wiring: engine, fleet, scopes, and the serve track.

Covers the plumbing between the telemetry primitives (tested in
``test_timeseries`` / ``test_alerts`` / ``test_audit``) and the layers
that feed them:

* the serve engine feeds windowed counters whose totals reconcile with
  the ``ServeResult``, audits every provisioned instance, and emits
  lifecycle spans onto a dedicated Chrome-trace track (tid 1000+);
* a recorder-less engine run is bit-for-bit the same result (the
  disabled-path contract);
* ``Telemetry.scoped`` isolates counters between strategies sharing one
  registry, while the event log stays shared;
* the fleet manager audits every boot;
* ``repro serve`` records lifecycle events exactly when it exports the
  event log (``--events-out`` or ``--trace-export``), and every track an
  exporter reads is still there.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter

from repro.cli import main as cli_main
from repro.core import RandomizeMode
from repro.monitor import Firecracker, FleetManager, VmConfig
from repro.host import HostStorage
from repro.security import KaslrAuditor
from repro.serve import (
    ArrivalSpec,
    AutoscalePolicy,
    ProductionSample,
    SampledBackend,
    ServeConfig,
    ServeEngine,
    generate_arrivals,
)
from repro.simtime import CostModel
from repro.telemetry import RequestTracer, Telemetry, TimeSeriesRecorder
from repro.telemetry.export import (
    REQUEST_TID_BASE,
    SERVE_TID_BASE,
    to_chrome_trace,
)

MS = 1_000_000  # ns


def _backend(n: int = 4, digests: bool = True) -> SampledBackend:
    return SampledBackend(
        samples=tuple(
            ProductionSample(
                startup_ns=2 * MS,
                invoke_ns=1 * MS,
                layout_offset=0x1000 * (i + 1),
                layout_digest=f"digest{i:010x}" if digests else "",
            )
            for i in range(n)
        )
    )


def _spec(rate: float = 50.0, seconds: float = 2.0) -> ArrivalSpec:
    return ArrivalSpec(rate_per_s=rate, duration_s=seconds, seed=3)


def test_engine_feeds_recorder_and_totals_reconcile():
    recorder = TimeSeriesRecorder(window_ns=250 * MS)
    engine = ServeEngine(_backend(), ServeConfig(), recorder=recorder)
    result = engine.run(_spec())
    totals = recorder.totals()
    assert totals["serve_arrivals"] == result.arrivals
    assert totals["serve_served"] == result.served
    assert totals.get("serve_cold_starts", 0) == result.cold_starts
    frames = recorder.windows()
    assert frames[0].index == 0
    for left, right in zip(frames, frames[1:]):
        assert left.end_ns == right.start_ns
    # latency distribution sampled once per serve
    observed = sum(
        f.distributions.get("serve_latency_ms", {}).get("count", 0)
        for f in frames
    )
    assert observed == result.served


def test_recorder_closes_windows_at_an_idle_pop_that_evicts_nothing():
    """The idle watchdog's last pop lands past the run horizon and, with
    the pool at its floor, changes nothing; the recorder still closes
    its windows through that instant, as at every processed event."""
    idle_ns, window_ns = 500 * MS, 100 * MS
    config = ServeConfig(
        policy=AutoscalePolicy(
            min_ready=1, max_ready=2, scale_up_depth=100, idle_ns=idle_ns
        )
    )
    spec = ArrivalSpec(rate_per_s=5.0, duration_s=1.0, seed=3)
    recorder = TimeSeriesRecorder(window_ns=window_ns)
    result = ServeEngine(_backend(), config, recorder=recorder).run(spec)
    assert result.pool.retired_idle == 0
    assert result.cold_starts == 0
    # every request leased a ready instance on arrival, so the watchdog
    # last popped one idle timeout after the last arrival
    last_pop_ns = generate_arrivals(spec)[-1] + idle_ns
    assert last_pop_ns // window_ns > result.horizon_ns // window_ns + 1
    assert recorder.windows_closed == last_pop_ns // window_ns


def test_engine_registry_counters_reconcile_per_label():
    """Each labeled serve instrument matches its ``ServeResult`` field.

    The engine resolves an instrument once per (name, labels) and reuses
    it; a cache keyed on the name alone would fold ``reason=rejected``
    into ``reason=deadline`` and ``cold=true`` into ``cold=false``.
    """
    backend = SampledBackend(
        samples=tuple(
            ProductionSample(
                startup_ns=40 * MS, invoke_ns=20 * MS, layout_offset=0x1000 * (i + 1)
            )
            for i in range(4)
        )
    )
    config = ServeConfig(
        policy=AutoscalePolicy(min_ready=1, max_ready=2),
        provisioners=1,
        queue_cap=4,
        deadline_ns=60 * MS,
    )
    telemetry = Telemetry()
    labels = {"strategy": "restore", "mix": "poisson"}
    result = ServeEngine(backend, config, telemetry=telemetry, labels=labels).run(
        ArrivalSpec(rate_per_s=100.0, duration_s=2.0, seed=3)
    )
    warm = result.served - result.cold_starts
    assert result.rejected and result.deadline_missed and result.cold_starts and warm
    points = {
        (family.name, point.labels): point
        for family in telemetry.registry.collect()
        for point in family.points
    }

    def point(name, **extra):
        return points[(name, tuple(sorted({**labels, **extra}.items())))]

    assert point("repro_serve_served_total", cold="true").value == result.cold_starts
    assert point("repro_serve_served_total", cold="false").value == warm
    assert point("repro_serve_failed_total", reason="rejected").value == result.rejected
    assert (
        point("repro_serve_failed_total", reason="deadline").value
        == result.deadline_missed
    )
    assert point("repro_serve_latency_ns").count == result.served

def test_recorder_does_not_change_the_result():
    plain = ServeEngine(_backend(), ServeConfig()).run(_spec())
    recorded = ServeEngine(
        _backend(),
        ServeConfig(),
        recorder=TimeSeriesRecorder(window_ns=100 * MS),
        auditor=KaslrAuditor(),
        telemetry=Telemetry(),
        track="serve:test",
        tracer=RequestTracer(3).scoped("test"),
    ).run(_spec())
    assert recorded == plain


def test_engine_audits_instances_with_sampled_digests():
    auditor = KaslrAuditor()
    engine = ServeEngine(
        _backend(n=3),
        ServeConfig(),
        labels={"strategy": "restore"},
        auditor=auditor,
    )
    result = engine.run(_spec())
    doc = auditor.to_json_dict()["strategies"]["restore"]
    assert doc["boots"] == result.pool.provisioned
    # the cyclic sample table caps diversity at the table size
    assert doc["distinct_layouts"] == 3
    # served instances were touched after provisioning -> lifetimes grow
    assert doc["lifetime_ms"]["max"] > 0


def test_engine_audit_falls_back_to_offset_digests():
    auditor = KaslrAuditor()
    ServeEngine(
        _backend(n=2, digests=False),
        ServeConfig(),
        labels={"strategy": "cold-boot"},
        auditor=auditor,
    ).run(_spec())
    doc = auditor.to_json_dict()["strategies"]["cold-boot"]
    assert doc["distinct_layouts"] == 2  # off:0x1000 / off:0x2000


def test_serve_spans_land_on_dedicated_trace_track():
    telemetry = Telemetry()
    engine = ServeEngine(
        _backend(),
        ServeConfig(policy=AutoscalePolicy(min_ready=1, idle_ns=100 * MS)),
        telemetry=telemetry,
        track="serve:restore@50",
    )
    engine.run(_spec())
    trace = to_chrome_trace(telemetry.snapshot())
    serve_events = [
        e for e in trace["traceEvents"] if e.get("cat") == "serve"
    ]
    assert serve_events, "lifecycle spans missing from the trace"
    assert {e["tid"] for e in serve_events} == {SERVE_TID_BASE}
    names = {e["name"] for e in serve_events}
    assert {"prewarm", "provision", "lease", "evict"} <= names
    metas = [
        e
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert any(e["args"]["name"] == "serve:restore@50" for e in metas)


def test_no_track_means_no_serve_events():
    telemetry = Telemetry()
    ServeEngine(_backend(), ServeConfig(), telemetry=telemetry).run(_spec())
    trace = to_chrome_trace(telemetry.snapshot())
    assert not [e for e in trace["traceEvents"] if e.get("cat") == "serve"]


_DEAD = ProductionSample(
    startup_ns=2 * MS, invoke_ns=1 * MS, layout_offset=0, failed=True
)


def _failure_views(backend, config, rate=50.0):
    """The run, its recorder totals, serve events and registry series."""
    telemetry = Telemetry()
    recorder = TimeSeriesRecorder(window_ns=100 * MS)
    result = ServeEngine(
        backend, config, telemetry=telemetry, recorder=recorder,
        track="serve:test",
    ).run(_spec(rate))
    counters = {
        family.name: sum(point.value for point in family.points)
        for family in telemetry.registry.collect()
    }
    names = Counter(e.name for e in telemetry.log.events())
    return result, recorder.totals(), names, counters


def test_breaker_trip_is_recorded_once():
    """Productions still in flight when the breaker trips die without
    tripping it again."""
    result, totals, names, _ = _failure_views(
        SampledBackend(samples=(_DEAD,)),
        ServeConfig(
            policy=AutoscalePolicy(min_ready=0),
            provisioners=4,
            max_provision_failures=2,
        ),
        rate=400.0,
    )
    assert result.breaker_tripped
    assert totals["serve_provision_failures"] > 2  # in flight at the trip
    assert totals["serve_breaker_trips"] == 1
    assert names["breaker"] == 1


def test_a_dead_prewarm_counts_in_both_failure_series():
    good = _backend(n=1).samples
    result, totals, _, counters = _failure_views(
        SampledBackend(samples=(_DEAD, *good)),
        ServeConfig(policy=AutoscalePolicy(min_ready=2)),
    )
    assert not result.breaker_tripped
    assert (
        counters["repro_serve_provision_failures_total"]
        == totals["serve_provision_failures"]
    )


def test_scoped_registries_do_not_bleed():
    telemetry = Telemetry()
    for strategy in ("cold-boot", "restore"):
        scope = telemetry.scoped(strategy=strategy)
        scope.registry.counter("repro_test_total", help="t").inc()
        scope.log.record(
            boot_id=f"{strategy}:0",
            kind="stage",
            name="noop",
            category="stage",
            principal="test",
            start_ns=0,
            duration_ns=1,
        )
    (family,) = [
        f for f in telemetry.registry.collect() if f.name == "repro_test_total"
    ]
    assert len(family.points) == 2  # one point per strategy label
    for point in family.points:
        assert point.value == 1
    # the log is shared: one snapshot still sees the whole run
    assert len(telemetry.log.events()) == 2


def test_chrome_trace_tid_bands_do_not_collide(tiny_fgkaslr):
    """Worker, serve-lifecycle, and request-trace tracks stay disjoint.

    A high ``max_ready`` pool at high load mints hundreds of request
    traces; their tids (2000+) must never collide with the serve
    lifecycle band (1000+) or the small-integer fleet worker tids.
    """
    tracer = RequestTracer(3)
    telemetry = Telemetry(tracer=tracer)
    vmm = Firecracker(HostStorage(), CostModel(scale=1), telemetry=telemetry)
    FleetManager(vmm, workers=8).launch(
        VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR),
        8,
        fleet_seed=7,
    )
    engine = ServeEngine(
        _backend(),
        ServeConfig(
            policy=AutoscalePolicy(
                min_ready=2, max_ready=64, scale_up_depth=1
            )
        ),
        telemetry=telemetry,
        track="serve:restore@200",
        tracer=tracer.scoped("restore@200"),
    )
    engine.run(_spec(rate=200.0))
    trace = to_chrome_trace(telemetry.snapshot())
    metas = [
        e
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    worker = {e["tid"] for e in metas if e["args"]["name"].startswith("worker-")}
    serve = {e["tid"] for e in metas if e["args"]["name"].startswith("serve:")}
    request = {e["tid"] for e in metas if e["args"]["name"].startswith("trace ")}
    assert worker and serve and len(request) > 100
    assert max(worker) < SERVE_TID_BASE
    assert all(SERVE_TID_BASE <= t < REQUEST_TID_BASE for t in serve)
    assert all(t >= REQUEST_TID_BASE for t in request)
    assert not (worker & serve) and not (serve & request)
    assert not (worker & request)


def test_shared_event_log_stays_seq_ordered_across_strategies():
    """Scoped label injection never reorders the shared event stream."""
    telemetry = Telemetry()
    for strategy in ("cold-boot", "restore"):
        scope = telemetry.scoped(strategy=strategy)
        ServeEngine(
            _backend(),
            ServeConfig(),
            telemetry=scope,
            track=f"serve:{strategy}@50",
        ).run(_spec())
    events = telemetry.log.events()
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    tracks = {e.boot_id for e in events if e.kind == "serve"}
    assert tracks == {"serve:cold-boot@50", "serve:restore@50"}


def test_fleet_launch_feeds_auditor(tiny_fgkaslr):
    auditor = KaslrAuditor()
    vmm = Firecracker(HostStorage(), CostModel(scale=1))
    manager = FleetManager(vmm, workers=4, auditor=auditor)
    report = manager.launch(
        VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR),
        8,
        fleet_seed=7,
    )
    doc = auditor.to_json_dict()["strategies"]["fgkaslr"]
    assert doc["boots"] == len(report.boots) == 8
    assert doc["distinct_layouts"] == report.unique_layouts


# -- the event log through the CLI ---------------------------------------------

#: serve lifecycle events per ``serve:<cell>`` track of :func:`_serve_cli`'s
#: flight, pinned from the engine that recorded them on every audited run
SERVE_TRACK_EVENTS = {
    "serve:cold-boot@60": 224,
    "serve:restore-rebase@60": 220,
    "serve:restore@60": 220,
}
#: request-trace tracks of the same flight with ``--trace-requests``: 327
#: requests, 3 pool traces and 2 production samples per strategy
REQUEST_TRACKS = 336
REQUEST_TRACK_SPANS = 1673


def _serve_cli(tmp_path, *extra: str) -> str:
    """One audited tiny-kernel serve of every strategy at one rate."""
    argv = [
        "serve", "--kernel", "tiny", "--scale", "1", "--jitter", "0",
        "--strategy", "all", "--rate", "60", "--duration", "2",
        "--samples", "2", "--seed", "5", "--json",
        "--audit", "--audit-out", str(tmp_path / "audit.json"), *extra,
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    return (tmp_path / "audit.json").read_text()


def test_events_out_writes_one_serve_track_per_cell(tmp_path):
    events_path = tmp_path / "events.jsonl"
    audit = _serve_cli(tmp_path, "--events-out", str(events_path))
    events = [json.loads(line) for line in events_path.read_text().splitlines()]
    tracks = Counter(e["boot_id"] for e in events if e["kind"] == "serve")
    assert tracks == SERVE_TRACK_EVENTS
    # the track also keys the auditor's records: recording lifecycle
    # events must not move a byte of the audit
    assert _serve_cli(tmp_path) == audit


def test_chrome_export_carries_serve_and_request_tracks(tmp_path):
    trace_path = tmp_path / "trace.json"
    _serve_cli(
        tmp_path, "--trace-requests",
        "--trace-export", "chrome", "--trace-out", str(trace_path),
    )
    events = json.loads(trace_path.read_text())["traceEvents"]
    names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    per_tid = Counter(e["tid"] for e in events if e["ph"] != "M")
    serve = {
        names[tid]: n
        for tid, n in per_tid.items()
        if SERVE_TID_BASE <= tid < REQUEST_TID_BASE
    }
    assert serve == SERVE_TRACK_EVENTS
    requests = [tid for tid in names if tid >= REQUEST_TID_BASE]
    assert all(names[tid].startswith("trace ") for tid in requests)
    assert len(requests) == REQUEST_TRACKS
    assert sum(per_tid[tid] for tid in requests) == REQUEST_TRACK_SPANS
