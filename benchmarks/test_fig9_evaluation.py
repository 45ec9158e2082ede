"""Figure 9 — the main evaluation.

For each kernel config and randomization level, compares:

* **uncompressed** — direct vmlinux boot; randomization (if any) happens
  in-monitor (the paper's contribution),
* **compression-none** — the optimized self-randomizing bootstrap loader,
* **lz4** — a stock LZ4 bzImage with self-randomization,

plus the firecracker-baseline (nokaslr, direct) each is judged against.
Reports the paper's four-way breakdown per series.
"""

from __future__ import annotations

from _common import fig9
from repro.experiments import KERNELS


def test_fig9_evaluation(benchmark, record):
    fig = benchmark.pedantic(fig9, rounds=1, iterations=1)
    record(fig.name, fig.table, series=fig.series, units=fig.units)

    for config in KERNELS:
        name = config.name

        def ms(mode, method):
            return fig.series[f"{name}/{mode}/{method}_ms"]

        for mode in ("kaslr", "fgkaslr"):
            # in-monitor randomization beats both self-randomized methods
            assert (
                ms(mode, "uncompressed")
                < ms(mode, "compression-none")
                < ms(mode, "lz4")
            ), (name, mode)

        base = ms("none", "uncompressed")
        # Section 5.2: in-monitor KASLR adds only a few percent; FGKASLR
        # costs roughly 1.8x-2.5x the baseline
        assert 1.0 < ms("kaslr", "uncompressed") / base < 1.10, name
        assert 1.5 < ms("fgkaslr", "uncompressed") / base < 2.8, name

    # The paper's AWS headline: in-monitor FGKASLR still meets the 150 ms
    # Firecracker boot target.
    assert fig.series["aws/fgkaslr/uncompressed_ms"] < 150.0
