"""Command-line interface."""

import pytest

from repro.cli import main

SCALE = ["--scale", "64"]


def test_boot_default(capsys):
    assert main(["boot", "--kernel", "tiny", "--scale", "1"]) == 0
    out = capsys.readouterr().out
    assert "tiny-kaslr" in out
    assert "virtual offset" in out
    assert "verified" in out


def test_boot_nokaslr_has_no_offset_line(capsys):
    assert main(["boot", "--kernel", "tiny", "--mode", "none", "--scale", "1"]) == 0
    out = capsys.readouterr().out
    assert "virtual offset" not in out


def test_boot_bzimage(capsys):
    code = main(
        ["boot", "--kernel", "tiny", "--scale", "1", "--format", "bzimage",
         "--codec", "lz4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "loader_decompress" in out


def test_boot_series(capsys):
    assert main(["boot", "--kernel", "tiny", "--scale", "1", "--boots", "3"]) == 0
    out = capsys.readouterr().out
    assert "x3 boots" in out
    assert "total ms" in out


def test_boot_cold(capsys):
    assert main(["boot", "--kernel", "tiny", "--scale", "1", "--cold"]) == 0


def test_boot_qemu(capsys):
    assert main(["boot", "--kernel", "tiny", "--scale", "1", "--qemu"]) == 0
    assert "qemu" in capsys.readouterr().out


def test_boot_pvh(capsys):
    assert main(
        ["boot", "--kernel", "tiny", "--scale", "1", "--protocol", "pvh"]
    ) == 0


def test_boot_json(capsys):
    assert main(["boot", "--kernel", "tiny", "--scale", "1", "--json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["vmm"] == "firecracker"
    assert payload["mode"] == "kaslr"
    assert payload["layout"]["randomized"] is True
    assert payload["total_ms"] > 0
    stages = [span["stage"] for span in payload["stages"]]
    assert stages[0] == "monitor_startup"
    assert "linux_boot" in stages
    assert payload["breakdown_ms"]["linux_boot"] > 0


def test_boot_trace(capsys):
    assert main(["boot", "--kernel", "tiny", "--scale", "1", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "pipeline stages" in out
    for stage in ("monitor_startup", "prepare_image", "randomize_load",
                  "guest_entry", "linux_boot"):
        assert stage in out


def test_boot_trace_bzimage_shows_loader_stages(capsys):
    code = main(
        ["boot", "--kernel", "tiny", "--scale", "1", "--format", "bzimage",
         "--codec", "lz4", "--trace"]
    )
    assert code == 0
    out = capsys.readouterr().out
    for stage in ("loader_bringup", "decompress", "self_randomize",
                  "loader_jump"):
        assert stage in out


def test_boot_fgkaslr_trace(capsys):
    assert main(["boot", "--mode", "fgkaslr", *SCALE, "--trace"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("aws-fgkaslr via firecracker (vmlinux, fgkaslr)")
    assert "pipeline stages" in out
    assert "mode fgkaslr" in out
    assert "monitor_shuffle" in out


def test_boot_fgkaslr_json(capsys):
    assert main(["boot", "--mode", "fgkaslr", *SCALE, "--json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "fgkaslr"
    assert payload["layout"]["randomized"] is True
    assert payload["layout"]["sections_moved"] > 0
    assert [span["stage"] for span in payload["stages"]][-1] == "linux_boot"


def test_boot_json_rejects_series(capsys):
    assert main(
        ["boot", "--kernel", "tiny", "--scale", "1", "--boots", "3", "--json"]
    ) == 2


def test_fleet_json(capsys):
    assert main(
        ["fleet", "--kernel", "tiny", "--scale", "1", "--count", "3",
         "--workers", "2", "--json"]
    ) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["n_vms"] == 3
    assert payload["cache"]["hits"] == 3
    assert len(payload["boots"]) == 3
    assert payload["stages"]["total"]["p50_ms"] > 0


def test_fleet_trace(capsys):
    assert main(
        ["fleet", "--kernel", "tiny", "--scale", "1", "--count", "2",
         "--workers", "2", "--trace"]
    ) == 0
    out = capsys.readouterr().out
    assert "pipeline stages" in out
    assert "randomize_load" in out


def test_codecs(capsys):
    assert main(["codecs", "--kernel", "tiny", "--scale", "1"]) == 0
    out = capsys.readouterr().out
    for codec in ("lz4", "gzip", "xz"):
        assert codec in out


def test_entropy(capsys):
    assert main(["entropy", "--kernel", "tiny", "--scale", "1"]) == 0
    out = capsys.readouterr().out
    assert "bits" in out and "gadgets" in out


def test_bad_kernel_rejected():
    with pytest.raises(SystemExit):
        main(["boot", "--kernel", "nonexistent"])


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


# -- the parsed surface --------------------------------------------------------

#: what each subcommand parses from its bare argv (``func`` aside)
_COMMON = {"scale": 16, "jitter": 0.0}
_FAULTS = {"inject_fault": None, "fault_seed": 0}
_EXPORTS = {
    "metrics": False, "trace_export": None, "trace_out": "-",
    "events_out": None, "profile": None, "profile_out": "-",
}
_ALERTS = {"slo_p99_ms": None, "cold_budget": 0.25, "alert_for": 1}
_FLIGHT = {
    **_COMMON, **_FAULTS, "kernel": "aws", "mode": "kaslr",
    "function": "api-echo", "arrivals": "poisson", "rate": None,
    "duration": 10.0, "strategy": "all", "seed": 1, "samples": 8,
    "pool_min": 2, "pool_max": 16, "scale_up_depth": 2, "idle_ms": 2000.0,
    "provisioners": 4, "queue_cap": 64, "deadline_ms": 30000.0,
}
_IMAGE = {
    "kernel": "aws", "format": "vmlinux", "codec": "lz4", "optimized": False,
    "protocol": "linux64", "mem": 256,
}
_FLEET = {
    **_COMMON, **_FAULTS, **_IMAGE, "mode": "fgkaslr", "count": 64,
    "workers": None, "executor": "thread", "seed": 1, "cache_entries": 64,
    "cache_dir": None, "cold": False, "timeseries_out": None,
    "window_ms": 50.0, "audit": False, "audit_out": "-", "retries": 1,
}
PARSED = {
    "serve": {
        **_FLIGHT, **_EXPORTS, **_ALERTS, "command": "serve", "json": False,
        "trace_requests": False, "timeseries_out": None, "window_ms": 1000.0,
        "audit": False, "audit_out": "-",
    },
    "watch": {
        **_FLIGHT, **_ALERTS, "command": "watch", "rate": 40.0,
        "strategy": "restore", "window_ms": 1000.0, "audit": False,
        "json": False,
    },
    "trace": {
        **_FLIGHT, "command": "trace", "trace_id": None, "top": 5,
        "json": False,
    },
    "boot": {
        **_COMMON, **_FAULTS, **_EXPORTS, **_IMAGE, "command": "boot",
        "mode": "kaslr", "seed": 1, "boots": 1, "cold": False, "qemu": False,
        "timeline": False, "json": False, "trace": False,
    },
    "fleet": {
        **_FLEET, **_EXPORTS, "command": "fleet", "json": False,
        "trace": False,
    },
    "metrics": {**_FLEET, "command": "metrics", "count": 4, "workers_cap": 4},
    "profile": {
        **_FLEET, "command": "profile", "count": 4, "workers_cap": 4,
        "fmt": "folded", "out": "-",
    },
}


def _parsed(argv: list[str]) -> dict:
    from repro.cli import build_parser

    namespace = vars(build_parser().parse_args(argv))
    namespace.pop("func")
    return namespace


@pytest.mark.parametrize("command", sorted(PARSED))
def test_bare_subcommand_parses_to_its_pinned_defaults(command):
    assert _parsed([command]) == PARSED[command]


@pytest.mark.parametrize(
    "argv, changed",
    [
        (
            "serve --rate 30 --rate 90 --strategy restore --audit "
            "--timeseries-out x",
            {"rate": [30.0, 90.0], "strategy": "restore", "audit": True,
             "timeseries_out": "x"},
        ),
        (
            "watch --rate 90 --strategy cold-boot --audit --window-ms 250 "
            "--json",
            {"rate": 90.0, "strategy": "cold-boot", "audit": True,
             "window_ms": 250.0, "json": True},
        ),
        (
            "trace --rate 90 --trace-id abc --top 3",
            {"rate": [90.0], "trace_id": "abc", "top": 3},
        ),
    ],
)
def test_flight_flags_parse_to_their_pinned_values(argv, changed):
    argv = argv.split()
    assert _parsed(argv) == {**PARSED[argv[0]], **changed}
