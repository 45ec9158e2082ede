"""Figure 5 — microbenchmark of each bootstrap-loader step.

Breaks one warm LZ4 bzImage boot per kernel (seed ``SEED0``) into the
loader's individual steps; decompression is expected to dominate (the
paper reports up to 73% of loader time).
"""

from __future__ import annotations

from _common import ENV
from repro.analysis import render_table, run_boots
from repro.artifacts import bzimage_cfg
from repro.core import RandomizeMode
from repro.experiments import KERNELS
from repro.simtime import BootStep

_LOADER_STEPS = [
    BootStep.LOADER_INIT,
    BootStep.LOADER_HEAP_ZERO,
    BootStep.LOADER_COPY_KERNEL,
    BootStep.LOADER_DECOMPRESS,
    BootStep.LOADER_ELF_PARSE,
    BootStep.LOADER_SEGMENT_LOAD,
    BootStep.LOADER_RELOCATE,
    BootStep.LOADER_JUMP,
]


def _run():
    vmm = ENV.vmm()
    out = {}
    for config in KERNELS:
        cfg = bzimage_cfg(config, RandomizeMode.NONE, "lz4", scale=ENV.scale)
        out[config.name] = run_boots(vmm, cfg, n=1).first
    return out


def test_fig5_bootstrap_breakdown(benchmark, record):
    reports = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    shares = {}
    series_out = {}
    for kernel, report in reports.items():
        steps = {step: report.step_ms(step) for step in _LOADER_STEPS}
        loader_total = sum(steps.values())
        share = steps[BootStep.LOADER_DECOMPRESS] / loader_total
        shares[kernel] = share
        series_out[f"{kernel}/loader_total_ms"] = loader_total
        series_out[f"{kernel}/decompress_ms"] = steps[BootStep.LOADER_DECOMPRESS]
        rows.append(
            [kernel, loader_total]
            + [steps[s] for s in _LOADER_STEPS]
            + [f"{share * 100:.0f}%"]
        )
    table = render_table(
        ["kernel", "loader total"]
        + [s.value.removeprefix("loader_") for s in _LOADER_STEPS]
        + ["decompress share"],
        rows,
        title="Figure 5: bootstrap loader step breakdown (LZ4 bzImage, ms)",
    )
    record("fig5 bootstrap breakdown", table, series=series_out)

    # Decompression dominates loader time, approaching the paper's 73%.
    assert max(shares.values()) > 0.55
    for share in shares.values():
        assert share > 0.35
