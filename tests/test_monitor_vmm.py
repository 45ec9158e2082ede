"""Firecracker monitor: full boots, protocols, failure modes."""

from dataclasses import replace

import pytest

from repro.artifacts import get_kernel
from repro.bzimage import build_bzimage
from repro.core import RandomizeMode, siteplan
from repro.core.fgkaslr import FgkaslrEngine
from repro.errors import MonitorError
from repro.kernel import TINY, KernelVariant
from repro.monitor import BootFormat, BootProtocol, Firecracker, VmConfig
from repro.simtime import BootCategory
from repro.vm.portio import MILESTONE_INIT_RUN, MILESTONE_KERNEL_ENTRY


def _boot(fc, img, **kwargs):
    cfg = VmConfig(kernel=img, seed=17, **kwargs)
    fc.warm_caches(cfg)
    return fc.boot(cfg)


def test_direct_boot_nokaslr(fc, tiny_nokaslr):
    report = _boot(fc, tiny_nokaslr, randomize=RandomizeMode.NONE)
    assert report.total_ms > 0
    assert report.layout.voffset == 0
    assert report.verification.functions_checked > 0
    assert report.boot_format == "vmlinux"


def test_direct_boot_inmonitor_kaslr(fc, tiny_kaslr):
    report = _boot(fc, tiny_kaslr, randomize=RandomizeMode.KASLR)
    assert report.layout.voffset != 0
    assert report.verification.sites_checked > 0


def test_direct_boot_inmonitor_fgkaslr(fc, tiny_fgkaslr):
    report = _boot(fc, tiny_fgkaslr, randomize=RandomizeMode.FGKASLR)
    assert report.layout.fine_grained
    assert report.verification.kallsyms_stale  # lazy by default


def test_bzimage_boot(fc, tiny_kaslr):
    bz = build_bzimage(tiny_kaslr, "lz4")
    report = _boot(
        fc, tiny_kaslr,
        boot_format=BootFormat.BZIMAGE, bzimage=bz, randomize=RandomizeMode.KASLR,
    )
    assert report.decompression_ms > 0
    assert report.codec == "lz4"
    assert report.layout.voffset != 0


def test_pvh_boot(fc, tiny_kaslr):
    report = _boot(
        fc, tiny_kaslr,
        randomize=RandomizeMode.KASLR, boot_protocol=BootProtocol.PVH,
    )
    assert report.verification.functions_checked > 0


def test_milestones_bracket_linux_boot(fc, tiny_nokaslr):
    report = _boot(fc, tiny_nokaslr, randomize=RandomizeMode.NONE)
    values = [w.value for w in report.milestones]
    assert values[-2:] == [MILESTONE_KERNEL_ENTRY, MILESTONE_INIT_RUN]
    entry_ns = report.milestones[-2].timestamp_ns
    init_ns = report.milestones[-1].timestamp_ns
    assert init_ns - entry_ns == pytest.approx(
        report.linux_boot_ms * 1e6, rel=1e-6
    )


def test_randomize_on_nonrelocatable_rejected(fc, tiny_nokaslr):
    cfg = VmConfig(kernel=tiny_nokaslr, randomize=RandomizeMode.KASLR)
    with pytest.raises(MonitorError, match="not relocatable"):
        fc.boot(cfg)


def test_fgkaslr_on_kaslr_kernel_rejected(fc, tiny_kaslr):
    cfg = VmConfig(kernel=tiny_kaslr, randomize=RandomizeMode.FGKASLR)
    with pytest.raises(MonitorError, match="function sections"):
        fc.boot(cfg)


def test_bzimage_format_without_bzimage_rejected(fc, tiny_kaslr):
    cfg = VmConfig(kernel=tiny_kaslr, boot_format=BootFormat.BZIMAGE)
    with pytest.raises(MonitorError, match="without a bzImage"):
        fc.boot(cfg)


def test_tiny_guest_rejected(fc, tiny_kaslr):
    cfg = VmConfig(kernel=tiny_kaslr, mem_mib=16)
    with pytest.raises(MonitorError, match="32 MiB"):
        fc.boot(cfg)


def test_cached_boot_faster_than_cold(fc, tiny_nokaslr):
    cold_cfg = VmConfig(
        kernel=tiny_nokaslr, randomize=RandomizeMode.NONE, seed=3, drop_caches=True
    )
    cold = fc.boot(cold_cfg)
    warm_cfg = VmConfig(kernel=tiny_nokaslr, randomize=RandomizeMode.NONE, seed=3)
    fc.warm_caches(warm_cfg)
    warm = fc.boot(warm_cfg)
    assert warm.total_ms < cold.total_ms
    assert not cold.cached and warm.cached


def test_linux_boot_grows_with_guest_memory(fc, tiny_nokaslr):
    small = _boot(fc, tiny_nokaslr, randomize=RandomizeMode.NONE, mem_mib=256)
    big = _boot(fc, tiny_nokaslr, randomize=RandomizeMode.NONE, mem_mib=2048)
    assert big.linux_boot_ms > small.linux_boot_ms
    # the monitor portion is unaffected by guest memory (Figure 10)
    assert big.in_monitor_ms == pytest.approx(small.in_monitor_ms, rel=0.05)


def test_different_seeds_different_offsets(fc, tiny_kaslr):
    cfg1 = VmConfig(kernel=tiny_kaslr, randomize=RandomizeMode.KASLR, seed=1)
    cfg2 = VmConfig(kernel=tiny_kaslr, randomize=RandomizeMode.KASLR, seed=2)
    fc.warm_caches(cfg1)
    r1, r2 = fc.boot(cfg1), fc.boot(cfg2)
    assert r1.layout.voffset != r2.layout.voffset


def test_none_seed_draws_from_host_pool(fc, tiny_kaslr):
    cfg = VmConfig(kernel=tiny_kaslr, randomize=RandomizeMode.KASLR, seed=None)
    fc.warm_caches(cfg)
    before = fc.entropy.draws
    fc.boot(cfg)
    assert fc.entropy.draws > before


def test_report_breakdown_sums_to_total(fc, tiny_kaslr):
    report = _boot(fc, tiny_kaslr, randomize=RandomizeMode.KASLR)
    assert sum(report.breakdown_ms().values()) == pytest.approx(
        report.total_ms, rel=1e-9
    )
    assert report.category_ms(BootCategory.BOOTSTRAP_SETUP) == 0  # direct boot


def test_summary_mentions_kernel(fc, tiny_kaslr):
    report = _boot(fc, tiny_kaslr, randomize=RandomizeMode.KASLR)
    assert "tiny-kaslr" in report.summary()


def test_repeat_warm_up_derives_no_site_plan(fc, tiny_fgkaslr, monkeypatch):
    """FGKASLR plans derive once per kernel content, a warm boot derives
    none, and boots never notice."""
    monkeypatch.setattr(siteplan, "_plans", {})
    derived = []

    def counted(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args: derived.append(name) or real(*args)
        )

    counted(siteplan, "split_runs")
    counted(FgkaslrEngine, "inventory")
    cfg = VmConfig(kernel=tiny_fgkaslr, seed=17, randomize=RandomizeMode.FGKASLR)
    fc.warm_caches(cfg)
    assert "split_runs" in derived and "inventory" in derived
    derived.clear()
    first = fc.boot(cfg)
    # the boot (which parses: the monitor has no cache) finds the
    # warm-up's plans under its inventory's window key
    assert "split_runs" not in derived
    derived.clear()
    fc.warm_caches(cfg)
    # a copy of the image has the same content, so it shares the derivation
    fc.warm_caches(replace(cfg, kernel=replace(tiny_fgkaslr)))
    assert derived == []
    again = fc.boot(cfg)
    assert [(s.name, s.charged_ns) for s in again.timeline.spans] == [
        (s.name, s.charged_ns) for s in first.timeline.spans
    ]
    # another mode has plans of its own; a rebuild with other bytes derives again
    fc.warm_caches(replace(cfg, randomize=RandomizeMode.KASLR))
    assert "split_runs" in derived
    derived.clear()
    rebuilt = get_kernel(TINY, KernelVariant.FGKASLR, scale=1, seed=4)
    assert rebuilt.vmlinux != tiny_fgkaslr.vmlinux
    fc.warm_caches(replace(cfg, kernel=rebuilt))
    assert "split_runs" in derived and "inventory" in derived
