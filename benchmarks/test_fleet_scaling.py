"""Section 6 at fleet scale — instantiation throughput vs boot-slot count.

A 256-VM fleet of the aws FGKASLR kernel is launched through one monitor
at increasing worker counts.  The boot-artifact cache serves the parse
phase for every instance after warm-up (the hard gate below asserts a
>=90% hit rate), so the per-instance hot path is shuffle + offset draw +
relocations, and wall-clock scales with the worker count until the longest
boot dominates.
"""

from __future__ import annotations

from _common import ENV
from repro.analysis import render_table
from repro.artifacts import direct_cfg
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import AWS
from repro.monitor import Firecracker, FleetManager
from repro.simtime import CostModel, JitterModel

FLEET_SIZE = 256
WORKER_SWEEP = (1, 2, 4, 8, 16)
JITTER_SIGMA = 0.02


def _launch(workers: int):
    costs = CostModel(scale=ENV.scale, jitter=JitterModel(sigma=JITTER_SIGMA))
    vmm = Firecracker(HostStorage(), costs)
    manager = FleetManager(vmm, workers=workers)
    cfg = direct_cfg(AWS, RandomizeMode.FGKASLR, scale=ENV.scale)
    return manager.launch(cfg, FLEET_SIZE, fleet_seed=606)


def _run():
    return {workers: _launch(workers) for workers in WORKER_SWEEP}


def test_fleet_scaling(benchmark, record):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = []
    for workers, report in results.items():
        total = report.stages["total"]
        rows.append(
            [
                str(workers),
                f"{report.makespan_ms:.1f}",
                f"{report.speedup:.2f}",
                f"{report.rate_per_s:.1f}",
                f"{report.cache.hit_rate * 100:.1f}%",
                f"{total.p50_ms:.2f}",
                f"{total.p99_ms:.2f}",
            ]
        )
    sweep = render_table(
        ["workers", "wall ms", "speedup", "VMs/s", "cache hits", "p50 ms", "p99 ms"],
        rows,
        title=f"{FLEET_SIZE}-VM aws/fgkaslr fleet vs boot slots "
        f"(one monitor, shared artifact cache)",
    )

    widest = results[WORKER_SWEEP[-1]]
    stages = render_table(
        ["stage", "p50 ms", "p99 ms", "mean ms", "max ms"],
        widest.stage_rows(),
        title=f"per-boot stage latency across the {FLEET_SIZE}-VM fleet "
        f"({WORKER_SWEEP[-1]} workers)",
    )
    series_out = {}
    for workers, report in results.items():
        series_out[f"{workers}w/wall_ms"] = report.makespan_ms
        series_out[f"{workers}w/rate_per_s"] = report.rate_per_s
    record("fleet scaling", sweep + "\n\n" + stages, series=series_out)

    for workers, report in results.items():
        # the ISSUE gate: a warmed 256-VM fleet must run >=90% out of cache
        assert report.cache.hit_rate >= 0.90, (
            f"{workers} workers: hit rate {report.cache.hit_rate:.2%}"
        )
        assert report.n_vms == FLEET_SIZE
        assert report.unique_layouts == FLEET_SIZE

    serial = results[1]
    for workers, report in results.items():
        # identical results at every worker count: same seeds, same layouts
        assert [b.voffset for b in report.boots] == [
            b.voffset for b in serial.boots
        ]
        # wall-clock bounded by serial time and by perfect speedup
        assert report.makespan_ms <= serial.makespan_ms
        assert report.makespan_ms * workers >= report.serial_ms

    # scaling must actually pay: 16 slots beat 1 slot by >=4x wall-clock
    assert results[16].makespan_ms * 4 <= results[1].makespan_ms
