"""Section 2.2 cross-check — the cache-effects conclusion holds on QEMU.

Repeats the Figure 4 comparison on the QEMU monitor profile.  The paper's
takeaway: "in both VMMs, an uncompressed and cached kernel is the fastest
way to boot Linux" — with margins compressed by QEMU's larger monitor
overhead.
"""

from __future__ import annotations

from _common import ENV
from repro.analysis import render_table
from repro.artifacts import bzimage_cfg, direct_cfg
from repro.core import RandomizeMode
from repro.experiments import KERNELS
from repro.monitor import Qemu


def _run():
    qemu = ENV.vmm(Qemu)
    fc = ENV.vmm()
    results = {}
    for config in KERNELS:
        for vmm, name in ((fc, "firecracker"), (qemu, "qemu")):
            direct = ENV.measure(
                vmm, direct_cfg(config, RandomizeMode.NONE, scale=ENV.scale)
            )
            bz = ENV.measure(
                vmm,
                bzimage_cfg(config, RandomizeMode.NONE, "lz4", scale=ENV.scale),
            )
            results[(config.name, name)] = (direct, bz)
    return results


def test_qemu_crosscheck(benchmark, record):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    gaps = {}
    for (kernel, vmm), (direct, bz) in results.items():
        gap = (bz.total.mean - direct.total.mean) / bz.total.mean
        gaps[(kernel, vmm)] = gap
        rows.append(
            [kernel, vmm, direct.total.mean, bz.total.mean, f"{gap * 100:.0f}%"]
        )
    table = render_table(
        ["kernel", "vmm", "direct ms", "lz4 bzImage ms", "direct faster by"],
        rows,
        title=f"QEMU cross-check, cached ({ENV.boots} boots/series)",
    )
    series_out = {}
    for (kernel, vmm), (direct, bz) in results.items():
        series_out[f"{kernel}/{vmm}/direct_ms"] = direct.total.mean
        series_out[f"{kernel}/{vmm}/bzimage_lz4_ms"] = bz.total.mean
    record("qemu crosscheck", table, series=series_out)

    for config in KERNELS:
        fc_direct, fc_bz = results[(config.name, "firecracker")]
        q_direct, q_bz = results[(config.name, "qemu")]
        # same conclusion on both VMMs...
        assert fc_direct.total.mean < fc_bz.total.mean
        assert q_direct.total.mean < q_bz.total.mean
        # ...with relative margins compressed under QEMU's overhead
        assert gaps[(config.name, "qemu")] < gaps[(config.name, "firecracker")]
