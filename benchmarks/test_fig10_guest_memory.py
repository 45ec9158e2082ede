"""Figure 10 — guest memory impact on boot time.

Sweeps guest RAM (256 MiB .. 2 GiB) for baseline and in-monitor-randomized
boots of every kernel.  Expected: Linux Boot grows linearly with RAM; the
In-Monitor portion (and thus randomization cost) does not change.
"""

from __future__ import annotations

import pytest

from _common import ENV
from repro.analysis import render_table
from repro.artifacts import direct_cfg
from repro.core import RandomizeMode
from repro.experiments import KERNELS
from repro.simtime import BootCategory

MEM_SIZES_MIB = [256, 512, 1024, 2048]
MODES = [RandomizeMode.NONE, RandomizeMode.KASLR, RandomizeMode.FGKASLR]


def _run():
    vmm = ENV.vmm()
    results = {}
    for config in KERNELS:
        for mode in MODES:
            for mem in MEM_SIZES_MIB:
                cfg = direct_cfg(config, mode, scale=ENV.scale, mem_mib=mem)
                results[(config.name, mode, mem)] = ENV.measure(vmm, cfg)
    return results


def test_fig10_guest_memory(benchmark, record):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [
        [
            kernel,
            str(mode),
            mem,
            series.total.mean,
            series.category(BootCategory.IN_MONITOR).mean,
            series.category(BootCategory.LINUX_BOOT).mean,
        ]
        for (kernel, mode, mem), series in results.items()
    ]
    table = render_table(
        ["kernel", "rando", "mem MiB", "total ms", "in-monitor ms", "linux ms"],
        rows,
        title=f"Figure 10: guest memory sweep ({ENV.boots} boots/series)",
    )
    record(
        "fig10 guest memory",
        table,
        series={
            f"{kernel}/{mode}/{mem}mib_ms": series.total.mean
            for (kernel, mode, mem), series in results.items()
        },
    )

    for config in KERNELS:
        for mode in MODES:
            linux = [
                results[(config.name, mode, mem)]
                .category(BootCategory.LINUX_BOOT)
                .mean
                for mem in MEM_SIZES_MIB
            ]
            inmon = [
                results[(config.name, mode, mem)]
                .category(BootCategory.IN_MONITOR)
                .mean
                for mem in MEM_SIZES_MIB
            ]
            # Linux Boot strictly grows with RAM (≈12 µs/MiB of struct-page
            # init: +256 MiB -> 2 GiB adds ~21 ms regardless of kernel)...
            assert linux == sorted(linux) and linux[-1] - linux[0] > 10.0
            # ...while the monitor portion is flat (within jitter noise).
            assert max(inmon) == pytest.approx(min(inmon), rel=0.08)

        # randomization does not change how memory size affects boot
        base_slope = (
            results[(config.name, RandomizeMode.NONE, 2048)].total.mean
            - results[(config.name, RandomizeMode.NONE, 256)].total.mean
        )
        fg_slope = (
            results[(config.name, RandomizeMode.FGKASLR, 2048)].total.mean
            - results[(config.name, RandomizeMode.FGKASLR, 256)].total.mean
        )
        assert fg_slope == pytest.approx(base_slope, rel=0.25)
