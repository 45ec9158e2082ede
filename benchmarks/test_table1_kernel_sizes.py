"""Table 1 — kernels used in Firecracker boot-time experiments.

Regenerates the vmlinux / bzImage (none, LZ4) / relocs size columns for all
nine kernels, projected back to paper scale.
"""

from __future__ import annotations

from _common import ENV
from repro.experiments import table1_kernel_sizes


def test_table1_kernel_sizes(benchmark, record):
    fig = benchmark.pedantic(
        table1_kernel_sizes, (ENV,), rounds=1, iterations=1
    )
    record(fig.name, fig.table, series=fig.series, units=fig.units)

    # paper shape: nokaslr has no relocs; fgkaslr has the most; sizes grow
    # lupine < aws < ubuntu
    relocs = {row[0]: row[4] for row in fig.rows}
    vmlinux_mb = {
        name.removesuffix("/vmlinux_mb"): mb for name, mb in fig.series.items()
    }
    assert relocs["lupine-nokaslr"] == "N/A"
    for config in ("lupine", "aws", "ubuntu"):
        assert vmlinux_mb[f"{config}-fgkaslr"] > vmlinux_mb[f"{config}-kaslr"]
    assert vmlinux_mb["lupine-kaslr"] < vmlinux_mb["ubuntu-kaslr"]
