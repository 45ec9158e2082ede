"""Snapshot capture, CoW restore, and in-place re-randomization."""

import pytest

from repro.core import RandomizeMode
from repro.errors import MonitorError, RandomizationError
from repro.kernel import layout as kl
from repro.kernel.verify import verify_guest_kernel
from repro.monitor import VmConfig
from repro.simtime import CostModel
from repro.snapshot import SnapshotManager
from repro.vm.bootparams import BootParams
from repro.workloads import InstanceStrategy, ServerlessPlatform


@pytest.fixture()
def booted(fc, tiny_kaslr):
    cfg = VmConfig(kernel=tiny_kaslr, randomize=RandomizeMode.KASLR, seed=41)
    fc.warm_caches(cfg)
    report, vm = fc.boot_vm(cfg)
    return fc, report, vm


def test_capture_restores_identical_guest(booted, tiny_kaslr):
    fc, report, vm = booted
    manager = SnapshotManager(fc.costs)
    snapshot = manager.capture(vm)
    clone, latency = manager.restore(snapshot)
    assert clone.layout.voffset == report.layout.voffset
    verify_guest_kernel(clone.memory, clone.walker, clone.layout, tiny_kaslr.manifest)
    assert latency > 0
    assert snapshot.restore_count() == 1


def test_restore_much_faster_than_boot(booted):
    fc, report, vm = booted
    manager = SnapshotManager(fc.costs)
    snapshot = manager.capture(vm)
    _clone, latency = manager.restore(snapshot)
    assert latency < report.total_ms / 3


def test_clone_writes_do_not_leak_into_snapshot(booted, tiny_kaslr):
    fc, _report, vm = booted
    manager = SnapshotManager(fc.costs)
    snapshot = manager.capture(vm)
    clone_a, _ = manager.restore(snapshot)
    clone_b, _ = manager.restore(snapshot)
    probe = clone_a.layout.phys_load + 0x40
    clone_a.memory.write(probe, b"\xde\xad\xbe\xef")
    assert clone_b.memory.read(probe, 4) != b"\xde\xad\xbe\xef"
    # a third restore still sees the pristine image
    clone_c, _ = manager.restore(snapshot)
    verify_guest_kernel(clone_c.memory, clone_c.walker, clone_c.layout,
                        tiny_kaslr.manifest)


def test_rebase_produces_fresh_verified_layout(booted, tiny_kaslr):
    fc, report, vm = booted
    manager = SnapshotManager(fc.costs)
    snapshot = manager.capture(vm)
    offsets = set()
    for seed in range(6):
        clone, _latency = manager.restore_rebased(snapshot, seed=seed)
        offsets.add(clone.layout.voffset)
        verify_guest_kernel(
            clone.memory, clone.walker, clone.layout, tiny_kaslr.manifest
        )
    assert len(offsets) >= 4  # distinct offsets across seeds


def test_rebased_restore_equals_a_cold_boot_of_the_same_seed(booted, tiny_kaslr):
    """A re-randomized clone is indistinguishable from a fresh guest: same
    voffset, and every resident page byte-identical to a cold KASLR boot
    drawn with the same seed."""
    fc, _report, vm = booted
    manager = SnapshotManager(fc.costs)
    snapshot = manager.capture(vm)
    for seed in range(6):
        clone, _latency = manager.restore_rebased(snapshot, seed=seed)
        _cold_report, cold = fc.boot_vm(
            VmConfig(kernel=tiny_kaslr, randomize=RandomizeMode.KASLR, seed=seed)
        )
        assert clone.layout.voffset == cold.layout.voffset
        assert list(clone.memory.iter_resident_pages()) == list(
            cold.memory.iter_resident_pages()
        )


def test_rebase_updates_boot_params(booted):
    fc, report, vm = booted
    manager = SnapshotManager(fc.costs)
    snapshot = manager.capture(vm)
    clone, _ = manager.restore_rebased(snapshot, seed=123)
    params = BootParams.unpack(clone.memory.read(kl.BOOT_PARAMS_ADDR, 4096))
    assert params.kaslr_virt_offset == clone.layout.voffset


def test_rebase_entry_point_remapped(booted, tiny_kaslr):
    fc, _report, vm = booted
    manager = SnapshotManager(fc.costs)
    snapshot = manager.capture(vm)
    clone, _ = manager.restore_rebased(snapshot, seed=5)
    from repro.kernel.manifest import FUNCTION_PROLOGUE

    first = clone.walker.read_virt(clone.layout.entry_vaddr, 8)
    assert first == FUNCTION_PROLOGUE


def test_rebase_rejects_fgkaslr(fc, tiny_fgkaslr):
    cfg = VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR, seed=4)
    fc.warm_caches(cfg)
    _report, vm = fc.boot_vm(cfg)
    manager = SnapshotManager(fc.costs)
    snapshot = manager.capture(vm)
    with pytest.raises(RandomizationError, match="zygote"):
        manager.restore_rebased(snapshot, seed=1)


def test_rebase_requires_relocs(fc, tiny_nokaslr):
    cfg = VmConfig(kernel=tiny_nokaslr, randomize=RandomizeMode.NONE, seed=4)
    fc.warm_caches(cfg)
    _report, vm = fc.boot_vm(cfg)
    manager = SnapshotManager(fc.costs)
    snapshot = manager.capture(vm)
    with pytest.raises(MonitorError, match="relocation info"):
        manager.restore_rebased(snapshot, seed=1)


def _zygote_factory(kernel, base=0):
    def factory(i):
        return VmConfig(kernel=kernel, randomize=RandomizeMode.KASLR, seed=base + i)

    return factory


def test_zygote_policies(fc, tiny_kaslr):
    """Section 7's three strategies: shared zygote, pool, rebase."""
    factory = _zygote_factory(tiny_kaslr, base=100)
    diversity = {}
    for name, strategy, zygotes in (
        ("shared", InstanceStrategy.RESTORE, 1),
        ("pool", InstanceStrategy.RESTORE, 3),
        ("rebase", InstanceStrategy.RESTORE_REBASE, 1),
    ):
        platform = ServerlessPlatform(fc, factory, strategy=strategy, zygotes=zygotes)
        platform.setup()
        offsets = {platform.produce(9_000 + i).layout_offset for i in range(9)}
        diversity[name] = len(offsets)
    assert diversity["shared"] == 1
    assert diversity["pool"] == 3
    assert diversity["rebase"] >= 7


def test_zygote_pool_fill_cost_scales_with_size(fc, tiny_kaslr):
    factory = _zygote_factory(tiny_kaslr)
    shared = ServerlessPlatform(fc, factory, strategy=InstanceStrategy.RESTORE)
    pool = ServerlessPlatform(
        fc, factory, strategy=InstanceStrategy.RESTORE, zygotes=4
    )
    shared.setup()
    pool.setup()
    assert pool.setup_ms > 3 * shared.setup_ms


def test_acquire_before_fill_rejected(fc, tiny_kaslr):
    factory = _zygote_factory(tiny_kaslr)
    with pytest.raises(MonitorError, match="at least one zygote"):
        ServerlessPlatform(fc, factory, strategy=InstanceStrategy.RESTORE, zygotes=0)
    platform = ServerlessPlatform(
        fc, factory, strategy=InstanceStrategy.RESTORE, zygotes=2
    )
    with pytest.raises(MonitorError, match="setup"):
        platform.produce(0)
