"""Differential regression: the staged pipeline reproduces seed behaviour.

Golden values below were captured by running the pre-refactor monolithic
boot paths (``Firecracker._direct_boot`` / ``_bzimage_boot`` and the
non-pipeline ``SnapshotManager.restore``) at these exact seeds.  The
refactor's contract is byte-identical layouts and nanosecond-identical
per-category timeline totals, so every row must match exactly — no
tolerances.
"""

from __future__ import annotations

import pytest

from repro.artifacts import VARIANT_FOR_MODE, get_bzimage, get_kernel
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import TINY, KernelVariant
from repro.monitor import BootFormat, Firecracker, Qemu, VmConfig
from repro.simtime import CostModel
from repro.simtime.trace import BootCategory
from repro.unikernel import UnikernelMonitor
from repro.workloads import InstanceStrategy, ServerlessPlatform

_MONITORS = {
    "firecracker": Firecracker,
    "qemu": Qemu,
    "ukvm": UnikernelMonitor,
}

# (vmm, mode) -> (voffset, moved, entropy_base, entropy_fg, total_ms,
#                 {category: ns}, n_events)
GOLDEN_DIRECT = {
    ("firecracker", RandomizeMode.NONE): (
        0, 0, 0.0, 0.0, 9.899544,
        {"in_monitor": 1827544, "linux_boot": 8072000}, 10,
    ),
    ("firecracker", RandomizeMode.KASLR): (
        702545920, 0, 8.977279923499916, 0.0, 10.027616,
        {"in_monitor": 1955616, "linux_boot": 8072000}, 13,
    ),
    ("firecracker", RandomizeMode.FGKASLR): (
        882900992, 48, 8.977279923499916, 202.94957202970025, 10.168529,
        {"in_monitor": 2096529, "linux_boot": 8072000}, 17,
    ),
    ("qemu", RandomizeMode.NONE): (
        0, 0, 0.0, 0.0, 88.639544,
        {"in_monitor": 80567544, "linux_boot": 8072000}, 10,
    ),
    ("qemu", RandomizeMode.KASLR): (
        702545920, 0, 8.977279923499916, 0.0, 88.767616,
        {"in_monitor": 80695616, "linux_boot": 8072000}, 13,
    ),
    ("qemu", RandomizeMode.FGKASLR): (
        882900992, 48, 8.977279923499916, 202.94957202970025, 88.908529,
        {"in_monitor": 80836529, "linux_boot": 8072000}, 17,
    ),
    ("ukvm", RandomizeMode.NONE): (
        0, 0, 0.0, 0.0, 8.799544,
        {"in_monitor": 727544, "linux_boot": 8072000}, 10,
    ),
    ("ukvm", RandomizeMode.KASLR): (
        702545920, 0, 8.977279923499916, 0.0, 8.927616,
        {"in_monitor": 855616, "linux_boot": 8072000}, 13,
    ),
    ("ukvm", RandomizeMode.FGKASLR): (
        882900992, 48, 8.977279923499916, 202.94957202970025, 9.068529,
        {"in_monitor": 996529, "linux_boot": 8072000}, 17,
    ),
}

PHYS_LOAD = 16777216  # 16 MiB: physical randomization off at this config


def _category_ns(timeline) -> dict[str, int]:
    return {
        category.value: ns
        for category, ns in timeline.category_totals_ns().items()
        if ns
    }


@pytest.mark.parametrize(
    ("vmm_name", "mode"), sorted(GOLDEN_DIRECT, key=str)
)
def test_direct_boot_matches_seed_behaviour(vmm_name, mode):
    voffset, moved, eb, ef, total_ms, cats, n_events = GOLDEN_DIRECT[
        (vmm_name, mode)
    ]
    kernel = get_kernel(TINY, VARIANT_FOR_MODE[mode], scale=1, seed=3)
    mon = _MONITORS[vmm_name](HostStorage(), CostModel(scale=1))
    cfg = VmConfig(kernel=kernel, randomize=mode, seed=42)
    mon.warm_caches(cfg)
    report = mon.boot(cfg)

    assert report.layout.voffset == voffset
    assert report.layout.phys_load == PHYS_LOAD
    assert len(report.layout.moved) == moved
    assert report.layout.entropy_bits_base == eb
    assert report.layout.entropy_bits_fg == ef
    assert report.total_ms == total_ms
    assert _category_ns(report.timeline) == cats
    assert len(report.timeline.events) == n_events


def test_bzimage_boot_matches_seed_behaviour():
    kernel = get_kernel(TINY, KernelVariant.KASLR, scale=1, seed=3)
    bz = get_bzimage(TINY, KernelVariant.KASLR, "lz4", scale=1, seed=3)
    mon = Firecracker(HostStorage(), CostModel(scale=1))
    cfg = VmConfig(
        kernel=kernel,
        boot_format=BootFormat.BZIMAGE,
        bzimage=bz,
        randomize=RandomizeMode.KASLR,
        seed=42,
    )
    mon.warm_caches(cfg)
    report = mon.boot(cfg)

    assert report.layout.voffset == 702545920
    assert report.layout.phys_load == PHYS_LOAD
    assert report.total_ms == 15.46591
    assert _category_ns(report.timeline) == {
        "in_monitor": 1816952,
        "bootstrap_setup": 5517892,
        "decompression": 59066,
        "linux_boot": 8072000,
    }
    assert len(report.timeline.events) == 18


_ZYGOTE_STRATEGY = {
    "shared": InstanceStrategy.RESTORE,
    "rebase": InstanceStrategy.RESTORE_REBASE,
}


@pytest.mark.parametrize(
    ("zygote", "voffset", "latency_ms", "in_monitor_ns"),
    [
        ("shared", 171966464, 2.5045, 2504500),
        ("rebase", 874512384, 2.5124, 2512400),
    ],
)
def test_zygote_restore_matches_seed_behaviour(
    zygote, voffset, latency_ms, in_monitor_ns
):
    kernel = get_kernel(TINY, KernelVariant.KASLR, scale=1, seed=3)
    mon = Firecracker(HostStorage(), CostModel(scale=1))
    platform = ServerlessPlatform(
        vmm=mon,
        cfg_factory=lambda i: VmConfig(
            kernel=kernel, randomize=RandomizeMode.KASLR, seed=100 + i
        ),
        strategy=_ZYGOTE_STRATEGY[zygote],
    )
    platform.setup()
    produced = platform.produce(77)

    assert not produced.degraded
    assert produced.layout_offset == voffset
    assert produced.startup_ms == latency_ms
    cats = _category_ns(produced.vm.clock.timeline)
    assert cats == {"in_monitor": in_monitor_ns}


def test_monolithic_boot_paths_are_gone():
    """Acceptance: no caller (or definition) of the old private methods."""
    for cls in (Firecracker, Qemu, UnikernelMonitor):
        for legacy in ("_direct_boot", "_bzimage_boot", "_finish_setup",
                       "_enter_guest", "_run_guest"):
            assert not hasattr(cls, legacy)
