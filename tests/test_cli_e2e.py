"""End to end through ``repro.cli.main``: what the command line promises.

Each test drives the real CLI in-process and checks a contract that only
shows at that surface: a flag reaching the run it shapes, a table mode
rendering, an exit code.  The library-level versions of these contracts
(conservation, determinism, containment) are tested in their own
modules; the byte-stable serve documents in the ``*_golden`` modules.

Checks that ask the simulation for an effect (an alert that fires,
warm pools beating cold boots) run a real kernel preset at build scale
16 or 64; checks of wiring alone (exit codes, report keys, reruns)
mostly run the tiny kernel.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli import main as cli_main
from repro.faults import FATAL_KINDS
from repro.serve import SampledBackend
from repro.telemetry.tracing import derive_trace_id


def _run(argv: list[str]) -> tuple[int, str, str]:
    """One CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _doc(argv: list[str]) -> dict:
    code, out, err = _run(argv)
    assert code == 0, err
    return json.loads(out)


#: the shared shape of the simulation-effect serve-family checks
AWS16 = ["--kernel", "aws", "--scale", "16", "--jitter", "0", "--seed", "7"]
TINY = ["--kernel", "tiny", "--scale", "1", "--jitter", "0"]


# -- bad serve-family numbers --------------------------------------------------

_NO_REBASE = (
    "restore-rebase rebases base-KASLR layouts only; "
    "--mode {} supports --strategy cold-boot or restore"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("serve --rate 0", "offered rate must be positive: 0.0"),
        ("serve --rate -5", "offered rate must be positive: -5.0"),
        ("serve --duration -1", "duration must be positive: -1.0"),
        ("serve --samples 0", "need at least one sample, got 0"),
        (
            "serve --pool-min 5 --pool-max 2",
            "max_ready must be >= max(1, min_ready): 2 < 5",
        ),
        ("serve --queue-cap 0", "queue_cap must be >= 1: 0"),
        ("serve --deadline-ms -1", "deadline must be positive: -1000000"),
        ("watch --window-ms 0", "window must be >= 1 ns: 0"),
        ("watch --provisioners 0", "need >= 1 provisioner: 0"),
        ("serve --mode none --strategy restore-rebase", _NO_REBASE.format("none")),
        ("serve --mode fgkaslr", _NO_REBASE.format("fgkaslr")),
        (
            "watch --mode fgkaslr --strategy restore-rebase",
            _NO_REBASE.format("fgkaslr"),
        ),
        ("trace --mode none", _NO_REBASE.format("none")),
    ],
)
def test_bad_flight_numbers_exit_2_before_any_boot(monkeypatch, argv, message):
    def no_sampling(*_args, **_kwargs):
        raise AssertionError("a production was sampled for a bad input")

    monkeypatch.setattr(SampledBackend, "from_platform", no_sampling)
    command, *flags = argv.split()
    code, out, err = _run([command, *TINY, *flags])
    assert (code, out, err) == (2, "", f"repro {command}: {message}\n")


# -- repro watch ---------------------------------------------------------------


def test_watch_json_matches_the_serve_flight_recorder(tmp_path):
    """``watch`` is one cell of the flight ``serve`` records."""
    shape = [
        "--kernel", "aws", "--scale", "64", "--jitter", "0", "--seed", "7",
        "--duration", "4", "--samples", "6", "--strategy", "cold-boot",
        "--rate", "90", "--slo-p99-ms", "5",
    ]
    watch = _doc(["watch", *shape, "--json", "--audit"])
    timeseries, audit = tmp_path / "timeseries.json", tmp_path / "audit.json"
    _doc([
        "serve", *shape, "--json", "--timeseries-out", str(timeseries),
        "--audit", "--audit-out", str(audit),
    ])
    assert watch.pop("audit") == json.loads(audit.read_text())
    assert watch == json.loads(timeseries.read_text())


WATCH = ["watch", *AWS16, "--duration", "4", "--samples", "6"]


def test_watch_rerun_is_byte_identical():
    argv = [*WATCH, "--rate", "40", "--json", "--audit"]
    assert _run(argv) == _run(argv)


def test_watch_windows_tile_and_conserve_counters():
    doc = _doc([*WATCH, "--rate", "60", "--window-ms", "250", "--json"])
    (cell,) = doc["cells"]
    series = cell["timeseries"]
    windows = series["windows"]
    assert windows
    first = windows[0]["index"]
    if series["dropped_windows"] == 0:
        assert first == 0
    assert [w["index"] for w in windows] == list(
        range(first, first + len(windows))
    )
    for left, right in zip(windows, windows[1:]):
        assert left["end_ms"] == right["start_ms"]
    for name, total in series["totals"].items():
        retained = sum(
            w["counters"].get(name, {}).get("delta", 0) for w in windows
        )
        assert retained + series["evicted"].get(name, 0) == total, name
    assert series["totals"]["serve_served"] >= 1


def test_watch_fires_the_slo_alert_and_audits_every_instance():
    # cold boots at 90 req/s against a 5 ms p99 SLO blow the budget
    doc = _doc([
        *WATCH, "--strategy", "cold-boot", "--rate", "90",
        "--slo-p99-ms", "5", "--json", "--audit",
    ])
    (cell,) = doc["cells"]
    assert any(
        t["rule"] == "p99-above-slo" and t["to"] == "firing"
        for t in cell["alerts"]["transitions"]
    )
    audit = doc["audit"]["strategies"]["cold-boot"]
    assert audit["boots"] >= 1
    assert audit["distinct_layouts"] >= 1


def test_watch_table_mode_renders_windows_and_audit():
    code, out, _ = _run([*WATCH, "--rate", "40", "--audit"])
    assert code == 0
    assert "p99 ms" in out
    assert "audit " in out


# -- repro serve ---------------------------------------------------------------


SERVE = ["serve", *AWS16, "--duration", "5", "--samples", "6", "--json"]


def test_serve_table_mode_renders_rows_and_tails():
    argv = [
        "serve", *TINY, "--seed", "7", "--duration", "2", "--samples", "2",
        "--rate", "60", "--trace-requests",
    ]
    code, out, _ = _run(argv)
    assert code == 0
    assert "api-echo under poisson arrivals (2s, pool 2..16)" in out
    report = _doc([*argv, "--json"])
    for row in report["rows"]:
        cell = f"{row['strategy']}@{row['rate_per_s']:g}"
        assert f"  {cell}: p99 tail (" in out
        for s in row["tail"]["slowest"]:
            assert f"    {s['trace_id']}  req {s['request']}  " in out
            # each cell's tail holds only that cell's requests
            key = f"{cell}/req/{s['request']}"
            assert s["trace_id"] == derive_trace_id(7, key)


def test_serve_arrival_mixes_offer_one_volume_in_different_shapes():
    rows = {
        mix: _doc([
            *SERVE, "--rate", "60", "--strategy", "restore",
            "--arrivals", mix,
        ])["rows"][0]
        for mix in ("poisson", "bursty", "diurnal")
    }
    assert {row["mix"] for row in rows.values()} == set(rows)
    assert len({row["arrivals"] for row in rows.values()}) == 1
    # the shape reaches the traffic: same volume, different tails
    assert len({row["p99_ms"] for row in rows.values()}) == 3


def test_serve_restore_holds_p99_under_cold_boot_past_the_knee():
    rows = {
        r["strategy"]: r
        for r in _doc([*SERVE, "--rate", "90", "--pool-max", "32"])["rows"]
    }
    assert rows["restore"]["p99_ms"] < rows["cold-boot"]["p99_ms"]
    assert rows["restore"]["cold_frac"] < 0.5


def test_serve_restore_faults_degrade_without_failing_requests():
    (row,) = _doc([
        *SERVE, "--rate", "40", "--strategy", "restore",
        "--inject-fault", "stage=snapshot_restore,kind=stage-timeout,rate=0.5",
    ])["rows"]
    assert row["degraded_serves"] >= 1
    assert row["served"] + row["rejected"] + row["deadline_missed"] == (
        row["arrivals"]
    )


# -- repro trace ---------------------------------------------------------------


TRACE = [
    "trace", *AWS16, "--duration", "4", "--samples", "6",
    "--strategy", "cold-boot", "--rate", "90",
]


def _trace_ids(doc: dict) -> set[str]:
    return {tid for cell in doc["cells"] for tid in cell["traces"]}


def test_trace_ids_are_scoped_to_their_seed():
    seven = _trace_ids(_doc([*TRACE, "--json"]))
    assert seven
    assert not seven & _trace_ids(_doc([*TRACE, "--seed", "8", "--json"]))
    # the same request under another seed carries another id
    code, _, err = _run([*TRACE, "--seed", "8", "--trace-id", min(seven)])
    assert code == 1
    assert "not found in this flight (seed 8" in err


def test_trace_table_modes_render_tails_and_trees():
    code, out, _ = _run(TRACE)
    assert code == 0
    assert "cold-boot@90: p99 tail (" in out
    tid = min(_trace_ids(_doc([*TRACE, "--json"])))
    code, out, _ = _run([*TRACE, "--trace-id", tid])
    assert code == 0
    assert out.startswith(f"trace {tid}  key cold-boot@90/req/")


# -- fleet faults and boot failures --------------------------------------------


FLEET = ["fleet", *TINY, "--count", "8", "--workers", "4", "--seed", "1", "--json"]
PIN = "stage=linux_boot,kind=reloc-fail,boot=3"


@pytest.mark.parametrize("retries", [0, 2])
def test_fleet_contains_a_pinned_fault_and_spends_its_retries(retries):
    argv = [*FLEET, "--inject-fault", PIN, "--retries", str(retries)]
    code, out, _ = _run(argv)
    assert code == 0
    report = json.loads(out)
    assert len(report["boots"]) == 7
    # a pinned fault tracks the fleet index, so every retry re-fires
    assert report["retries"] == retries
    (failure,) = report["failures"]
    assert (
        failure["index"], failure["stage"], failure["kind"], failure["attempt"]
    ) == (3, "linux_boot", "reloc-fail", retries)
    assert _run(argv) == (code, out, "")


@pytest.mark.parametrize("kind", sorted(FATAL_KINDS))
def test_boot_fatal_fault_exits_1_with_its_attribution(kind):
    code, out, _ = _run([
        "boot", *TINY, "--json", "--inject-fault", f"stage=linux_boot,kind={kind}",
    ])
    assert code == 1
    failure = json.loads(out)["failure"]
    assert (failure["stage"], failure["kind"]) == ("linux_boot", kind)


# -- the process executor and the disk cache tier ------------------------------


LUPINE = [
    "fleet", "--kernel", "lupine", "--scale", "16", "--jitter", "0",
    "--count", "4", "--seed", "11", "--json",
]


def _strip_engine(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in ("executor", "engine")}


def test_fleet_process_executor_matches_threads_beyond_engine_keys():
    thread = _doc([*LUPINE, "--executor", "thread"])
    code, out, _ = _run([*LUPINE, "--executor", "process"])
    assert code == 0
    process = json.loads(out)
    assert (thread["executor"], process["executor"]) == ("thread", "process")
    assert _strip_engine(thread) == _strip_engine(process)
    offsets = [boot["voffset"] for boot in process["boots"]]
    assert len(set(offsets)) == len(offsets)
    assert _run([*LUPINE, "--executor", "process"]) == (code, out, "")


def test_cache_tier_outlives_the_invocation_then_clears(tmp_path):
    argv = [
        *LUPINE, "--executor", "process", "--cold", "--cache-dir", str(tmp_path),
    ]
    assert _doc(argv)["cache"]["parses"] == 1
    second = _doc(argv)["cache"]
    assert second["parses"] == 0
    assert second["disk_hits"] >= 1

    entries = _doc(["cache", "--dir", str(tmp_path), "--json"])["entries"]
    assert entries and all(entry["valid"] for entry in entries)
    code, out, _ = _run(["cache", "--dir", str(tmp_path), "--clear"])
    assert code == 0
    assert out == f"evicted {len(entries)} entries from {tmp_path}\n"
    assert _doc(["cache", "--dir", str(tmp_path), "--json"])["entries"] == []


# -- repro profile -------------------------------------------------------------


def test_profile_table_attributes_every_boot():
    code, out, _ = _run(["profile", "--count", "4", "--workers", "2", "--fmt", "table"])
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("cost attribution: ")
    assert first.endswith(" across 4 boot(s)")
    assert "-- self time by charge kind --" in out
