"""Figure 4 — cached vs uncached boots: bzImage (LZ4) vs direct vmlinux.

Reproduces the crossover of Section 2.2: with a cold page cache the
compressed bzImage wins (less I/O); once the kernel image is cached, the
direct uncompressed boot wins (no bootstrap loader).
"""

from __future__ import annotations

from _common import ENV
from repro.experiments import KERNELS, fig4_cache_effects


def test_fig4_cache_effects(benchmark, record):
    fig = benchmark.pedantic(
        fig4_cache_effects, (ENV,), rounds=1, iterations=1
    )
    record(fig.name, fig.table, series=fig.series, units=fig.units)

    # The crossover must hold for every kernel config.
    for config in KERNELS:

        def ms(state, boot):
            return fig.series[f"{config.name}/{state}/{boot}_ms"]

        assert ms("cold", "bzimage_lz4") < ms("cold", "direct"), config.name
        assert ms("cached", "direct") < ms("cached", "bzimage_lz4"), config.name
