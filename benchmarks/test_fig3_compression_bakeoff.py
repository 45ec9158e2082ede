"""Figure 3 — compression bakeoff: bzImage boot time per codec.

Boots each kernel's bzImage under all six Linux compression schemes
(cached) and reports total boot time; LZ4 is expected to be the fastest
booting codec (which is why the paper configures guests with LZ4).
"""

from __future__ import annotations

from _common import ENV
from repro.experiments import CODECS, KERNELS, fig3_compression_bakeoff


def test_fig3_compression_bakeoff(benchmark, record):
    fig = benchmark.pedantic(
        fig3_compression_bakeoff, (ENV,), rounds=1, iterations=1
    )
    record(fig.name, fig.table, series=fig.series, units=fig.units)

    # Paper claim: LZ4 is the fastest-booting compression scheme.
    for config in KERNELS:
        lz4 = fig.series[f"{config.name}/lz4_ms"]
        for codec in CODECS:
            assert lz4 <= fig.series[f"{config.name}/{codec}_ms"], (
                config.name,
                codec,
            )
