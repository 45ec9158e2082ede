"""Cost-attribution profiler: exact accounting and determinism.

The headline invariant (profiler totals == clock elapsed time, to the
nanosecond) is structural — the fold apportions each clock charge's own
rounded duration — so these tests sweep it across every monitor flavor,
randomization mode, and the snapshot restore path, then pin the
byte-identical-output guarantee the folded renderer makes.
"""

from __future__ import annotations

import pytest

from repro.artifacts import VARIANT_FOR_MODE, get_kernel
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import TINY
from repro.monitor import Firecracker, FleetManager, Qemu, VmConfig
from repro.simtime import CostModel, JitterModel
from repro.simtime.costs import take_pending_costs
from repro.simtime.trace import (
    BootCategory,
    BootStep,
    StageSpan,
    Timeline,
    TraceEvent,
)
from repro.snapshot.checkpoint import SnapshotManager
from repro.telemetry import CostProfiler, Telemetry
from repro.telemetry.profiler import (
    NO_BOOT,
    NO_STAGE,
    UNCOSTED_PREFIX,
    _apportion,
)
from repro.unikernel import UnikernelMonitor


def _boot_profiled(monitor_cls, mode, *, jitter=False):
    profiler = CostProfiler()
    jm = JitterModel(sigma=0.03, seed=5) if jitter else JitterModel(sigma=0.0)
    vmm = monitor_cls(
        HostStorage(),
        CostModel(scale=1, jitter=jm),
        telemetry=Telemetry(profiler=profiler),
    )
    kernel = get_kernel(TINY, VARIANT_FOR_MODE[mode], scale=1, seed=3)
    report, vm = vmm.boot_vm(VmConfig(kernel=kernel, randomize=mode, seed=9))
    return profiler, report, vm


# -- the exact-attribution invariant ----------------------------------------


@pytest.mark.parametrize("monitor_cls", [Firecracker, Qemu, UnikernelMonitor])
@pytest.mark.parametrize("mode", list(VARIANT_FOR_MODE))
def test_every_simulated_ns_is_attributed(monitor_cls, mode):
    profiler, _report, vm = _boot_profiled(monitor_cls, mode)
    (boot_id,) = profiler.boot_ids()
    assert profiler.total_ns(boot_id) == vm.clock.now_ns
    assert profiler.total_ns() == vm.clock.now_ns
    assert vm.clock.now_ns > 0
    assert take_pending_costs() == ()


@pytest.mark.parametrize("mode", list(VARIANT_FOR_MODE))
def test_attribution_exact_under_jitter(mode):
    """Rounding float jitter to whole ns never loses or invents time."""
    profiler, _report, vm = _boot_profiled(Firecracker, mode, jitter=True)
    (boot_id,) = profiler.boot_ids()
    assert profiler.total_ns(boot_id) == vm.clock.now_ns
    assert sum(ns for _key, ns, _count in profiler.cells()) == vm.clock.now_ns
    assert take_pending_costs() == ()


def test_cost_no_charge_paid_for_stays_out_of_the_next_boot():
    """Cost records are always filed; a new boot's clock drops stale ones."""
    CostModel(scale=1).disk_read_ns(1 << 20, cached=False)  # never charged
    profiler, _report, vm = _boot_profiled(Firecracker, RandomizeMode.KASLR)
    clean, _report, _vm = _boot_profiled(Firecracker, RandomizeMode.KASLR)
    assert profiler.cells() == clean.cells()
    assert not [
        key for key, _ns, _count in profiler.cells()
        if key.stage == "monitor_startup" and key.kind == "disk_read"
    ]
    assert profiler.total_ns() == vm.clock.now_ns


def test_pipeline_boot_has_no_uncosted_time():
    """Every nanosecond of a pipeline boot pairs with a cost method.

    Zero-duration milestone charges (``exec /sbin/init``) legitimately
    have no cost call; what must never appear is uncosted *time*.
    """
    profiler, _report, _vm = _boot_profiled(Firecracker, RandomizeMode.FGKASLR)
    assert profiler.cells()
    uncosted = [
        (key, ns)
        for key, ns, _count in profiler.cells()
        if key.kind.startswith(UNCOSTED_PREFIX) and ns > 0
    ]
    assert not uncosted


def test_attribution_contexts_cover_pipeline_stages():
    profiler, _report, _vm = _boot_profiled(Firecracker, RandomizeMode.FGKASLR)
    stages = {key.stage for key, _ns, _count in profiler.cells()}
    principals = {key.principal for key, _ns, _count in profiler.cells()}
    assert {"monitor_startup", "randomize_load", "linux_boot"} <= stages
    assert {"monitor", "kernel"} <= principals


def test_post_boot_charges_attributed_outside_frames():
    """Module loads after boot still balance, under the no-boot bucket."""
    from repro.kernel.modules import build_module

    profiler, _report, vm = _boot_profiled(Firecracker, RandomizeMode.FGKASLR)
    booted_ns = vm.clock.now_ns
    vm.load_module(build_module("virtio_net", vm.kernel, seed=4), seed=99)
    assert vm.clock.now_ns > booted_ns
    assert profiler.total_ns() == vm.clock.now_ns
    assert profiler.total_ns(NO_BOOT) == vm.clock.now_ns - booted_ns


def test_snapshot_restore_is_fully_attributed(tiny_kaslr):
    profiler = CostProfiler()
    telemetry = Telemetry(profiler=profiler)
    vmm = Firecracker(HostStorage(), CostModel(scale=1), telemetry=telemetry)
    cfg = VmConfig(kernel=tiny_kaslr, randomize=RandomizeMode.KASLR, seed=9)
    _report, vm = vmm.boot_vm(cfg)
    assert take_pending_costs() == ()
    manager = SnapshotManager(costs=CostModel(scale=1), telemetry=telemetry)
    snapshot = manager.capture(vm)  # charged on the boot's own clock
    clone, _ms = manager.restore_rebased(snapshot, seed=77)
    assert take_pending_costs() == ()
    restore_ids = [b for b in profiler.boot_ids() if b.startswith("restore:")]
    assert len(restore_ids) == 1
    assert profiler.total_ns(restore_ids[0]) == clone.clock.now_ns
    assert profiler.total_ns() == vm.clock.now_ns + clone.clock.now_ns


# -- determinism ------------------------------------------------------------


def _profiled_fleet(kernel):
    profiler = CostProfiler()
    vmm = Firecracker(
        HostStorage(), CostModel(scale=1),
        telemetry=Telemetry(profiler=profiler),
    )
    manager = FleetManager(vmm, workers=3, telemetry=vmm.telemetry)
    cfg = VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR)
    manager.launch(cfg, 6, fleet_seed=21)
    return profiler


def test_folded_output_byte_identical_across_runs(tiny_fgkaslr):
    first = _profiled_fleet(tiny_fgkaslr)
    second = _profiled_fleet(tiny_fgkaslr)
    for per_boot in (False, True):
        folded = first.to_folded(per_boot=per_boot)
        assert folded == second.to_folded(per_boot=per_boot)
        assert folded  # non-trivial output
        for line in folded.strip().splitlines():
            stack, ns = line.rsplit(" ", 1)
            assert int(ns) >= 0
            assert len(stack.split(";")) == (4 if per_boot else 3)
    assert first.to_json() == second.to_json()
    assert first.to_table() == second.to_table()
    # fleet totals balance too: per-boot sums equal the grand total
    assert sum(first.total_ns(b) for b in first.boot_ids()) == first.total_ns()


def test_render_dispatch_and_unknown_format():
    profiler = CostProfiler()
    assert profiler.render("folded") == ""
    assert "no attributed cost" in profiler.render("table")
    with pytest.raises(ValueError):
        profiler.render("svg")


# -- apportioning unit behavior ---------------------------------------------


def test_apportion_is_exact_and_deterministic():
    pending = [("a", 1.0), ("b", 1.0), ("c", 1.0)]
    shares = _apportion(pending, 100)
    assert sum(ns for _, ns in shares) == 100
    # ties break on list order: the first kinds absorb the remainder
    assert shares == [("a", 34), ("b", 33), ("c", 33)]
    assert _apportion(pending, 100) == shares


def test_apportion_handles_zero_and_negative_weights():
    assert _apportion([("a", 0.0), ("b", 0.0)], 7) == [("a", 7), ("b", 0)]
    shares = _apportion([("a", -5.0), ("b", 10.0)], 9)
    assert shares == [("a", 0), ("b", 9)]


def test_uncharged_clock_event_becomes_uncosted():
    timeline = Timeline()
    timeline.append(
        TraceEvent(0, 42, BootCategory.IN_MONITOR, BootStep.MONITOR_GUEST_ENTRY)
    )
    timeline.add_span(StageSpan("guest_entry", "guest_entry", "monitor", 0, 42))
    profiler = CostProfiler()
    profiler.add("b", timeline)
    ((key, ns, count),) = profiler.cells()
    assert key.kind == UNCOSTED_PREFIX + "monitor_guest_entry"
    assert (ns, count) == (42, 1)
    assert profiler.total_ns("b") == 42


def _event(start, ns, *costs):
    return TraceEvent(
        start, ns, BootCategory.IN_MONITOR, BootStep.MONITOR_STARTUP,
        costs=tuple(costs),
    )


def _cell_map(profiler):
    return {
        (key.boot_id, key.stage, key.kind): (ns, count)
        for key, ns, count in profiler.cells()
    }


def test_fold_attributes_events_by_position_not_timestamp():
    """Zero-ns charges on a stage boundary keep the stage that made them."""
    timeline = Timeline()
    timeline.append(_event(0, 10, ("a", 4.0)))
    timeline.append(_event(10, 0, ("end_of_a", 0.0)))
    timeline.add_span(StageSpan("A", "a", "monitor", 0, 10))
    timeline.append(_event(10, 0, ("start_of_b", 0.0)))
    timeline.append(_event(10, 10, ("b", 1.0), ("b2", 3.0)))
    timeline.add_span(StageSpan("B", "b", "guest", 10, 20))
    timeline.append(_event(20, 5, ("post_boot", 5.0)))  # e.g. a module load
    profiler = CostProfiler()
    profiler.add("boot", timeline)
    assert _cell_map(profiler) == {
        ("boot", "A", "a"): (10, 1),
        ("boot", "A", "end_of_a"): (0, 1),
        ("boot", "B", "start_of_b"): (0, 1),
        ("boot", "B", "b"): (3, 1),
        ("boot", "B", "b2"): (7, 1),
        (NO_BOOT, NO_STAGE, "post_boot"): (5, 1),
    }
    assert profiler.total_ns("boot") == 20
    assert profiler.total_ns() == timeline.total_ns


def test_fold_gives_an_aborted_timeline_its_stage():
    """Charges after the last span belong to the aborted stage."""
    timeline = Timeline()
    timeline.append(_event(0, 10, ("a", 1.0)))
    timeline.add_span(StageSpan("A", "a", "monitor", 0, 10))
    timeline.append(_event(10, 3, ("partial", 1.0)))
    timeline.aborted = ("B", "guest", (("unpaid", 2.0),))
    profiler = CostProfiler()
    profiler.add("boot", timeline)
    assert _cell_map(profiler) == {
        ("boot", "A", "a"): (10, 1),
        ("boot", "B", "partial"): (3, 1),
        ("boot", "B", "unpaid"): (0, 1),
        ("boot", "B", "aborted.B"): (0, 1),
    }
    assert profiler.boot_ids() == ["boot"]
