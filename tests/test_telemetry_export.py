"""Exporter behaviour: golden Prometheus text, Chrome trace schema,
byte-identical seeded runs, and the event log."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core import RandomizeMode
from repro.faults import FaultPlan
from repro.host import HostStorage
from repro.monitor import BootArtifactCache, Firecracker, FleetManager, VmConfig
from repro.simtime import CostModel
from repro.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    get_telemetry,
    scoped_telemetry,
    to_chrome_trace,
    to_json_dump,
    to_prometheus,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

FLEET_VMS = 4
FLEET_WORKERS = 2
FLEET_SEED = 11

#: the faulty golden workload: 10 VMs on 2 workers whose seeded plan
#: fails 15 of 23 attempts (11 reloc-fail, 4 stage-timeout) with 2 retries
FAULTY_VMS = 10
FAULTY_SEED = 7
FAULTY_PLAN = (
    "stage=linux_boot,kind=reloc-fail,rate=0.4,seed=9",
    "stage=randomize_load,kind=stage-timeout,rate=0.2,seed=4",
)


def _seeded_fleet(
    kernel,
    *,
    count: int = FLEET_VMS,
    fleet_seed: int = FLEET_SEED,
    faults: tuple[str, ...] = (),
    retries: int = 1,
) -> tuple[Telemetry, object]:
    """The golden workload: a seeded 4-VM fleet on 2 workers, jitter-free."""
    telemetry = Telemetry()
    vmm = Firecracker(
        HostStorage(),
        CostModel(scale=1),
        artifact_cache=BootArtifactCache(registry=telemetry.registry),
        telemetry=telemetry,
        fault_plan=FaultPlan.parse(faults) if faults else None,
    )
    manager = FleetManager(vmm, workers=FLEET_WORKERS, telemetry=telemetry)
    cfg = VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR)
    report = manager.launch(
        cfg, count, fleet_seed=fleet_seed, retries=retries
    )
    return telemetry, report


# -- golden files -----------------------------------------------------------


def test_prometheus_matches_golden_file(tiny_fgkaslr):
    telemetry, _ = _seeded_fleet(tiny_fgkaslr)
    text = to_prometheus(telemetry.snapshot())
    golden = (GOLDEN / "fleet4_prometheus.txt").read_text()
    assert text == golden


def test_faulty_fleet_prometheus_matches_golden_file(tiny_fgkaslr):
    """Failed attempts keep their stage, fault and failure metrics."""
    telemetry, report = _seeded_fleet(
        tiny_fgkaslr,
        count=FAULTY_VMS,
        fleet_seed=FAULTY_SEED,
        faults=FAULTY_PLAN,
        retries=2,
    )
    assert (report.retries, len(report.failures)) == (13, 2)
    text = to_prometheus(telemetry.snapshot())
    golden = (GOLDEN / "fleet10_faults_prometheus.txt").read_text()
    assert text == golden


def test_exports_byte_identical_across_runs(tiny_fgkaslr):
    first_t, _ = _seeded_fleet(tiny_fgkaslr)
    second_t, _ = _seeded_fleet(tiny_fgkaslr)
    first, second = first_t.snapshot(), second_t.snapshot()
    assert to_prometheus(first) == to_prometheus(second)
    assert json.dumps(to_chrome_trace(first), sort_keys=True) == json.dumps(
        to_chrome_trace(second), sort_keys=True
    )
    # the raw dump keeps append-order seq numbers (thread-scheduling
    # dependent); everything else is canonical
    def strip_seq(dump: dict) -> dict:
        events = [dict(e, seq=None) for e in dump["events"]]
        return {"metrics": dump["metrics"], "events": events}

    assert json.dumps(strip_seq(to_json_dump(first)), sort_keys=True) == json.dumps(
        strip_seq(to_json_dump(second)), sort_keys=True
    )


# -- prometheus text grammar ------------------------------------------------


def test_prometheus_histogram_buckets_sum_to_fleet_total(tiny_fgkaslr):
    telemetry, _ = _seeded_fleet(tiny_fgkaslr)
    lines = to_prometheus(telemetry.snapshot()).splitlines()
    inf_count = boots_total = None
    for line in lines:
        if line.startswith('repro_boot_duration_ms_bucket{le="+Inf"}'):
            inf_count = int(line.split()[-1])
        elif line.startswith("repro_fleet_boots_total "):
            boots_total = int(line.split()[-1])
    assert inf_count == boots_total == FLEET_VMS


def test_prometheus_escapes_label_values():
    telemetry = Telemetry()
    telemetry.registry.counter(
        "repro_esc_total", help="x", stage='we"ird\\label\nvalue'
    ).inc()
    text = to_prometheus(telemetry.snapshot())
    assert 'stage="we\\"ird\\\\label\\nvalue"' in text


def test_prometheus_count_matches_bucket_inf():
    telemetry = Telemetry()
    h = telemetry.registry.histogram("repro_h_ms", help="h")
    for value in (5, 50, 5_000):
        h.observe(value)
    text = to_prometheus(telemetry.snapshot())
    assert 'repro_h_ms_bucket{le="+Inf"} 3' in text
    assert "repro_h_ms_count 3" in text
    assert "repro_h_ms_sum 5055" in text


def test_exporters_surface_reservoir_saturation():
    telemetry = Telemetry()
    h = telemetry.registry.histogram("repro_sat_ms", help="h")
    h.reservoir_size = 4  # shrink so saturating stays cheap
    for value in range(10):
        h.observe(value)
    snapshot = telemetry.snapshot()

    assert "repro_sat_ms_reservoir_dropped 6" in to_prometheus(snapshot)

    (entry,) = to_json_dump(snapshot)["metrics"][0]["points"]
    assert entry["reservoir"] == {"size": 4, "dropped": 6, "saturated": True}

    metadata = [
        e for e in to_chrome_trace(snapshot)["traceEvents"]
        if e["name"] == "reservoir_saturated"
    ]
    assert len(metadata) == 1
    assert metadata[0]["ph"] == "M"
    assert metadata[0]["args"]["histograms"] == ["repro_sat_ms"]


def test_exporters_quiet_while_reservoir_exact(tiny_fgkaslr):
    telemetry, _ = _seeded_fleet(tiny_fgkaslr)
    snapshot = telemetry.snapshot()
    assert "_reservoir_dropped 0" in to_prometheus(snapshot)
    assert not [
        e for e in to_chrome_trace(snapshot)["traceEvents"]
        if e["name"] == "reservoir_saturated"
    ]


# -- chrome trace schema ----------------------------------------------------


def test_chrome_trace_schema_and_worker_tracks(tiny_fgkaslr):
    telemetry, report = _seeded_fleet(tiny_fgkaslr)
    trace = to_chrome_trace(telemetry.snapshot())
    events = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"

    slices = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert slices and metadata
    for event in slices:
        assert set(event) >= {"ph", "ts", "dur", "pid", "tid", "name", "cat"}
        assert event["pid"] == 0
        assert event["ts"] >= 0
        assert event["dur"] >= 0

    boots = [e for e in slices if e["cat"] == "boot"]
    assert len(boots) == FLEET_VMS
    # one track per fleet worker, and the tracks reproduce the makespan
    assert {e["tid"] for e in boots} == set(range(FLEET_WORKERS))
    end_us = max(e["ts"] + e["dur"] for e in boots)
    assert end_us == pytest.approx(report.makespan_ms * 1e3, abs=1e-3)

    thread_names = {e["args"]["name"] for e in metadata if e["name"] == "thread_name"}
    assert any("worker" in name for name in thread_names)


def test_chrome_trace_nests_stage_slices_inside_boot_windows(tiny_fgkaslr):
    telemetry, _ = _seeded_fleet(tiny_fgkaslr)
    events = to_chrome_trace(telemetry.snapshot())["traceEvents"]
    boots = {
        e["args"]["boot_id"]: e
        for e in events
        if e["ph"] == "X" and e["cat"] == "boot"
    }
    stages = [e for e in events if e["ph"] == "X" and e["cat"] != "boot"]
    assert stages
    for stage in stages:
        boot = boots[stage["args"]["boot_id"]]
        assert stage["ts"] >= boot["ts"] - 1e-9
        assert stage["ts"] + stage["dur"] <= boot["ts"] + boot["dur"] + 1e-9


# -- json dump + event log --------------------------------------------------


def test_json_dump_carries_percentiles_and_events(tiny_fgkaslr):
    telemetry, _ = _seeded_fleet(tiny_fgkaslr)
    dump = to_json_dump(telemetry.snapshot())
    assert set(dump) == {"metrics", "events"}
    boot_hist = next(
        m for m in dump["metrics"] if m["name"] == "repro_boot_duration_ms"
    )
    point = boot_hist["points"][0]
    assert set(point["percentiles"]) == {"p50", "p90", "p99"}
    assert point["buckets"][-1]["le"] == "+Inf"
    kinds = {e["kind"] for e in dump["events"]}
    assert kinds == {"stage", "boot"}


def test_event_log_jsonl_is_parseable_with_dense_seqs(tiny_fgkaslr):
    telemetry, _ = _seeded_fleet(tiny_fgkaslr)
    lines = telemetry.log.to_jsonl().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == len(telemetry.log.events())
    # seqs are dense and monotonic in append order
    assert [r["seq"] for r in records] == list(range(len(records)))
    # the snapshot canonicalizes by (boot_id, start_ns, seq)
    snap = telemetry.snapshot()
    keys = [event.sort_key() for event in snap.events]
    assert keys == sorted(keys)


def test_scoped_telemetry_restores_default():
    before = get_telemetry()
    with scoped_telemetry() as scoped:
        assert get_telemetry() is scoped
        assert scoped is not before
    assert get_telemetry() is before


def test_snapshot_is_frozen_view(tiny_fgkaslr):
    telemetry, _ = _seeded_fleet(tiny_fgkaslr)
    snap = telemetry.snapshot()
    assert isinstance(snap, TelemetrySnapshot)
    n_events = len(snap.events)
    telemetry.boot_window("late:0", worker=0, start_ns=0, duration_ns=1)
    assert len(snap.events) == n_events
