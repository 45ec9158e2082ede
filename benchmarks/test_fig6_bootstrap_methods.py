"""Figure 6 — bootstrap method comparison.

Four ways to get a kernel running (all nokaslr, cached):

* ``none``            — uncompressed payload, unmodified loader (both copies)
* ``lz4``             — stock LZ4 bzImage
* ``none-optimized``  — uncompressed, copies eliminated (Section 3.3)
* ``uncompressed``    — direct vmlinux boot (no loader at all)

Expected order (paper): none > lz4 > none-optimized > uncompressed.
"""

from __future__ import annotations

from _common import ENV
from repro.experiments import KERNELS, fig6_bootstrap_methods


def test_fig6_bootstrap_methods(benchmark, record):
    fig = benchmark.pedantic(
        fig6_bootstrap_methods, (ENV,), rounds=1, iterations=1
    )
    record(fig.name, fig.table, series=fig.series, units=fig.units)

    for config in KERNELS:
        none, lz4, optimized, direct = (
            fig.series[f"{config.name}/{method}_ms"]
            for method in ("none", "lz4", "none-optimized", "uncompressed")
        )
        # the paper's ordering, including "optimized still loses to direct"
        assert none > lz4 > optimized > direct, config.name
