"""Section 7 — zygote/snapshot strategies vs. fresh in-monitor boots.

Quantifies the trade-off the related-work section describes: restore-based
platforms are an order of magnitude faster than cold boots but share one
layout (ASLR nullified); Morula-style pools buy diversity with up-front
boots; in-place rebase (enabled by the monitor holding vmlinux.relocs)
gets per-instance layouts at restore-class latency.
"""

from __future__ import annotations

from _common import ENV
from repro.analysis import render_table
from repro.artifacts import direct_cfg
from repro.core import RandomizeMode
from repro.kernel import AWS
from repro.workloads import InstanceStrategy, ServerlessPlatform

ACQUISITIONS = 24
POOL_SIZE = 4
#: row label -> (strategy, zygotes): one shared zygote, a Morula-style
#: pool of diverse zygotes, and rebase-on-restore
STRATEGIES = {
    "shared": (InstanceStrategy.RESTORE, 1),
    "pool": (InstanceStrategy.RESTORE, POOL_SIZE),
    "rebase": (InstanceStrategy.RESTORE_REBASE, 1),
}


def _run():
    vmm = ENV.vmm()

    cold = ENV.measure(
        vmm, direct_cfg(AWS, RandomizeMode.KASLR, scale=ENV.scale)
    )

    def factory(i):
        return direct_cfg(
            AWS, RandomizeMode.KASLR, scale=ENV.scale, seed=500 + i
        )

    strategies = {}
    for name, (strategy, zygotes) in STRATEGIES.items():
        platform = ServerlessPlatform(
            vmm, factory, strategy=strategy, zygotes=zygotes
        )
        platform.setup()
        latencies, offsets = [], set()
        for i in range(ACQUISITIONS):
            produced = platform.produce(7_000 + i)
            latencies.append(produced.startup_ms)
            offsets.add(produced.layout_offset)
        strategies[name] = (platform.setup_ms, latencies, offsets)
    return cold, strategies


def test_snapshot_strategies(benchmark, record):
    cold, strategies = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [
        ["cold boot (in-monitor KASLR)", f"{cold.total.mean:.2f}", "-",
         str(ENV.boots), "unbounded"],
    ]
    for name, (fill_ms, latencies, offsets) in strategies.items():
        rows.append(
            [
                f"zygote: {name}",
                f"{sum(latencies) / len(latencies):.2f}",
                f"{fill_ms:.1f}",
                str(len(offsets)),
                "unbounded" if name == "rebase" else str(len(offsets)),
            ]
        )
    table = render_table(
        ["strategy", "acquire ms", "up-front ms", "distinct layouts",
         "diversity bound"],
        rows,
        title=f"Zygote strategies, aws kernel, {ACQUISITIONS} acquisitions",
    )
    series_out = {"cold_boot_ms": cold.total.mean}
    for name, (fill_ms, latencies, _offsets) in strategies.items():
        series_out[f"{name}/acquire_ms"] = sum(latencies) / len(latencies)
        series_out[f"{name}/fill_ms"] = fill_ms
    record("snapshot strategies", table, series=series_out)

    shared = strategies["shared"]
    pool = strategies["pool"]
    rebase = strategies["rebase"]

    # restores are much faster than cold boots
    assert max(shared[1]) < cold.total.mean / 3
    # shared zygotes nullify ASLR; pools bound diversity at pool size
    assert len(shared[2]) == 1
    assert len(pool[2]) == POOL_SIZE
    # rebase achieves per-acquisition diversity at near-restore latency
    assert len(rebase[2]) > POOL_SIZE * 2
    rebase_mean = sum(rebase[1]) / len(rebase[1])
    shared_mean = sum(shared[1]) / len(shared[1])
    assert rebase_mean < shared_mean * 3
    # and pools pay ~POOL_SIZE x the up-front cost of a single zygote
    assert pool[0] > 3 * shared[0]
