"""Deterministic fault injection: plan parsing, decisions, containment."""

from __future__ import annotations

import json
import sys

import pytest

from repro.core import RandomizeMode
from repro.errors import (
    BootFailure,
    ElfError,
    FaultPlanError,
    GuestPanic,
    InjectedFault,
    MonitorError,
    failure_kind,
)
from repro.faults import FATAL_KINDS, FAULT_KINDS, FaultPlan, FaultSpec
from repro.host import HostStorage
from repro.monitor import Firecracker, VmConfig
from repro.simtime import CostModel
from repro.snapshot import SnapshotManager
from repro.telemetry import Telemetry
from repro.telemetry.profiler import CostProfiler


def _vmm(plan, **kwargs) -> Firecracker:
    return Firecracker(HostStorage(), CostModel(scale=1), fault_plan=plan, **kwargs)


def _cfg(kernel, seed=7) -> VmConfig:
    return VmConfig(kernel=kernel, randomize=RandomizeMode.KASLR, seed=seed)


# -- FaultSpec parsing ---------------------------------------------------------


def test_spec_parse_roundtrip():
    spec = FaultSpec.parse("stage=linux_boot,kind=reloc-fail,rate=0.25,seed=9,boot=3")
    assert spec == FaultSpec(
        stage="linux_boot", kind="reloc-fail", rate=0.25, boot_index=3, seed=9
    )
    assert "reloc-fail at linux_boot" in spec.describe()


def test_spec_parse_defaults():
    spec = FaultSpec.parse("stage=prepare_image,kind=corrupt-elf")
    assert spec.rate == 1.0
    assert spec.boot_index is None
    assert spec.seed == 0


@pytest.mark.parametrize(
    "text, match",
    [
        ("kind=corrupt-elf", "stage"),
        ("stage=linux_boot", "stage= and kind="),
        ("stage=linux_boot,kind=nope", "unknown fault kind"),
        ("stage=linux_boot,kind=corrupt-elf,rate=2.0", "rate"),
        ("stage=linux_boot,kind=corrupt-elf,boot=-1", "boot index"),
        ("stage=linux_boot,kind=corrupt-elf,bogus=1", "unknown fault spec keys"),
        ("stage=linux_boot,kind=corrupt-elf,rate=abc", "bad fault spec"),
        ("just-words", "key=value"),
        ("stage=linux_boot,kind=cache-drop", "cache-drop fires only at prepare_image"),
        ("stage=randomize_load,kind=cache-drop,boot=1", "consults the artifact cache"),
    ],
)
def test_spec_parse_rejects(text, match):
    with pytest.raises(FaultPlanError, match=match):
        FaultSpec.parse(text)


def test_plan_parse_rejects_empty():
    with pytest.raises(FaultPlanError, match="at least one"):
        FaultPlan.parse([])


def test_fault_kind_catalog():
    assert set(FATAL_KINDS) == set(FAULT_KINDS) - {"cache-drop"}


# -- decisions -----------------------------------------------------------------


def test_matches_is_deterministic_and_order_independent():
    plan = FaultPlan.parse(
        ["stage=linux_boot,kind=reloc-fail,rate=0.5,seed=3"], seed=11
    )
    draws = [
        bool(plan.matches("linux_boot", boot_id=f"k:{i:016x}", boot_index=i))
        for i in range(200)
    ]
    again = [
        bool(plan.matches("linux_boot", boot_id=f"k:{i:016x}", boot_index=i))
        for i in reversed(range(200))
    ]
    assert draws == list(reversed(again))
    # a 0.5 rate actually splits the population
    assert 40 < sum(draws) < 160


def test_matches_pins_boot_index():
    plan = FaultPlan.parse(["stage=linux_boot,kind=stage-timeout,boot=2"])
    assert plan.matches("linux_boot", boot_id="a", boot_index=2)
    assert not plan.matches("linux_boot", boot_id="a", boot_index=1)
    assert not plan.matches("other_stage", boot_id="a", boot_index=2)


def test_matches_respects_rate_extremes():
    always = FaultPlan.parse(["stage=s,kind=corrupt-elf,rate=1.0"])
    never = FaultPlan.parse(["stage=s,kind=corrupt-elf,rate=0.0"])
    for i in range(20):
        assert always.matches("s", boot_id=f"b{i}", boot_index=i)
        assert not never.matches("s", boot_id=f"b{i}", boot_index=i)


# -- single-boot containment ---------------------------------------------------


@pytest.mark.parametrize("kind", sorted(FATAL_KINDS))
def test_fatal_kind_aborts_boot_with_attribution(tiny_kaslr, kind):
    plan = FaultPlan.parse([f"stage=linux_boot,kind={kind}"])
    vmm = _vmm(plan)
    with pytest.raises(BootFailure) as excinfo:
        vmm.boot(_cfg(tiny_kaslr), boot_index=4, attempt=1)
    failure = excinfo.value
    assert failure.stage == "linux_boot"
    assert failure.kind == kind
    assert failure.attempt == 1
    assert failure.index == 4
    assert failure.boot_id.startswith(tiny_kaslr.name)
    # BootFailure stays catchable as the monitor's base error type
    assert isinstance(failure, MonitorError)
    assert isinstance(failure.__cause__, InjectedFault)


def test_boot_failure_to_json_is_complete(tiny_kaslr):
    plan = FaultPlan.parse(["stage=prepare_image,kind=corrupt-elf"])
    with pytest.raises(BootFailure) as excinfo:
        _vmm(plan).boot(_cfg(tiny_kaslr))
    data = excinfo.value.to_json()
    assert set(data) == {
        "index", "seed", "boot_id", "stage", "kind", "attempt", "error"
    }
    json.dumps(data)  # serializable as-is


def test_injection_ticks_failure_counters(tiny_kaslr):
    telemetry = Telemetry()
    plan = FaultPlan.parse(["stage=linux_boot,kind=entropy-exhausted"])
    vmm = _vmm(plan, telemetry=telemetry)
    with pytest.raises(BootFailure):
        vmm.boot(_cfg(tiny_kaslr))
    registry = telemetry.registry
    assert registry.counter(
        "repro_fault_injections_total",
        stage="linux_boot", kind="entropy-exhausted",
    ).value == 1
    assert registry.counter(
        "repro_boot_failures_total",
        stage="linux_boot", kind="entropy-exhausted",
    ).value == 1


def test_aborted_stage_appears_in_profile(tiny_kaslr):
    profiler = CostProfiler()
    plan = FaultPlan.parse(["stage=page_tables,kind=stage-timeout"])
    vmm = _vmm(plan, profiler=profiler)
    with pytest.raises(BootFailure):
        vmm.boot(_cfg(tiny_kaslr))
    folded = profiler.render("folded")
    assert "aborted.page_tables" in folded


def test_restore_aborted_at_rebase_records_its_completed_stage(tiny_kaslr):
    """A restore records only its stages, the ones before an abort too."""
    telemetry = Telemetry()
    _report, vm = _vmm(None).boot_vm(_cfg(tiny_kaslr))
    manager = SnapshotManager(
        CostModel(scale=1),
        telemetry=telemetry,
        fault_plan=FaultPlan.parse(["stage=rebase,kind=stage-timeout"]),
    )
    snapshot = manager.capture(vm)
    with pytest.raises(BootFailure, match="at rebase"):
        manager.restore_rebased(snapshot, seed=5)
    snap = telemetry.snapshot()
    assert [(e.kind, e.name) for e in snap.events] == [
        ("stage", "snapshot_restore")
    ]
    assert telemetry.registry.counter(
        "repro_fault_injections_total", stage="rebase", kind="stage-timeout"
    ).value == 1
    names = {m.name for m in snap.metrics}
    assert "repro_boot_failures_total" not in names
    assert "repro_snapshot_restores_total" not in names


def test_organic_failures_keep_their_type_but_gain_attribution(tiny_kaslr):
    """Exception enrichment: organic errors are stamped, never wrapped."""
    from repro.core.policy import RandomizationPolicy
    from repro.errors import RandomizationError

    cfg = _cfg(tiny_kaslr)
    # zero-width randomization window: the offset draw cannot fit the image
    cfg.policy = RandomizationPolicy(
        min_offset=16 << 20, max_offset=16 << 20
    )
    vmm = Firecracker(HostStorage(), CostModel(scale=1))
    with pytest.raises(RandomizationError) as excinfo:
        vmm.boot(cfg)
    assert getattr(excinfo.value, "boot_stage", None)
    assert failure_kind(excinfo.value) == "randomization"


def test_failure_kind_taxonomy():
    assert failure_kind(GuestPanic("x")) == "guest-panic"
    assert failure_kind(ElfError("x")) == "elf-parse"
    assert failure_kind(MonitorError("x")) == "monitor"
    assert failure_kind(ValueError("x")) == "error"
    assert failure_kind(
        InjectedFault("x", stage="s", kind="stage-timeout")
    ) == "stage-timeout"


def test_cache_drop_is_nonfatal_and_forces_reparse(tiny_kaslr):
    plan = FaultPlan.parse(["stage=prepare_image,kind=cache-drop"])
    from repro.monitor import BootArtifactCache

    cache = BootArtifactCache()
    vmm = _vmm(plan, artifact_cache=cache)
    cfg = _cfg(tiny_kaslr)
    vmm.warm_caches(cfg)
    primed = cache.stats()
    assert primed.entries == 1
    report = vmm.boot(cfg)
    assert report.total_ms > 0
    after = cache.stats()
    # the boot skipped the primed entry, re-parsed and re-inserted it
    assert after.misses == primed.misses + 1
    assert after.parses == primed.parses + 1
    assert after.entries == 1
    assert report.timeline.faults == [("prepare_image", "cache-drop")]


def test_cache_drop_skips_the_disk_tier(tiny_kaslr, tmp_path):
    from repro.monitor import BootArtifactCache

    warm = BootArtifactCache(disk_path=tmp_path)
    warm.get_or_parse(tiny_kaslr.elf, RandomizeMode.KASLR, _cfg(tiny_kaslr).policy)
    # a fresh memory tier over the same directory: only the disk holds it
    cache = BootArtifactCache(disk_path=tmp_path)
    plan = FaultPlan.parse(["stage=prepare_image,kind=cache-drop"])
    _vmm(plan, artifact_cache=cache).boot(_cfg(tiny_kaslr))
    stats = cache.stats()
    assert (stats.hits, stats.disk_hits, stats.misses, stats.parses) == (0, 0, 1, 1)


def test_rate_based_cache_drop_is_deterministic_on_many_workers(tiny_fgkaslr):
    """A cache-drop forces a miss on its own boot only, so a seeded fleet
    on four worker threads reports the same thing on every run: one miss
    per fired fault, and every other boot hits the warmed entry."""
    from repro.monitor import FleetManager

    spec = "stage=prepare_image,kind=cache-drop,rate=0.3,seed=5"
    cfg = VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR)
    reports = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the worker threads finely
    try:
        for _ in range(8):
            vmm = _vmm(FaultPlan.parse([spec]))
            report = FleetManager(vmm, workers=4).launch(
                cfg, 16, fleet_seed=3, retries=0
            )
            fired = sum(len(boot.report.timeline.faults) for boot in report.boots)
            assert 0 < fired < 16
            assert report.cache.misses == report.cache.parses == fired
            assert report.cache.hits == 16 - fired
            reports.add(json.dumps(report.to_json(), sort_keys=True))
    finally:
        sys.setswitchinterval(interval)
    assert len(reports) == 1


# -- CLI -----------------------------------------------------------------------


def test_cli_faults_listing_json(capsys):
    from repro.cli import main

    assert main(["faults", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["kinds"]) == set(FAULT_KINDS)
    assert "linux_boot" in data["stages"]["direct"]


def test_cli_boot_fault_exit_code(capsys):
    from repro.cli import main

    code = main([
        "boot", "--kernel", "aws", "--scale", "4", "--json",
        "--inject-fault", "stage=linux_boot,kind=reloc-fail",
    ])
    assert code == 1
    failure = json.loads(capsys.readouterr().out)["failure"]
    assert failure["stage"] == "linux_boot"
    assert failure["kind"] == "reloc-fail"


def test_cli_rejects_bad_fault_spec(capsys):
    from repro.cli import main

    code = main([
        "boot", "--kernel", "aws", "--scale", "4",
        "--inject-fault", "stage=linux_boot,kind=bogus",
    ])
    assert code == 2
    assert "bad --inject-fault" in capsys.readouterr().err
