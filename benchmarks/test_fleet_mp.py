"""Break-the-GIL evidence — thread vs process boot-engine throughput.

A warm FGKASLR fleet of the aws kernel is launched twice with identical
seeds: once on the thread backend (whose engine makespan is bounded below
by the GIL-serialized byte work: parse, segment copies, relocations,
shuffle) and once on the multiprocess engine (shared-memory artifacts,
replayed observability), which spreads that work across workers.  The
gate asserts the modeled process rate is at least 5x the thread rate and
that both backends produced byte-identical layouts — the speedup must be
an engine property, never a behaviour change.
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

FLEET_SIZE = 16
WORKERS = 16
#: jitter stays off regardless of REPRO_JITTER: the layout-identity gate
#: compares the two backends boot for boot
JITTER_SIGMA = 0.0


def _launch(executor: str):
    costs = CostModel(scale=ENV.scale, jitter=JitterModel(sigma=JITTER_SIGMA))
    vmm = Firecracker(HostStorage(), costs)
    manager = FleetManager(vmm, workers=WORKERS, executor=executor)
    cfg = direct_cfg(AWS, RandomizeMode.FGKASLR, scale=ENV.scale)
    return manager.launch(cfg, FLEET_SIZE, fleet_seed=909)


def _run():
    return {executor: _launch(executor) for executor in ("thread", "process")}


def test_fleet_mp(benchmark, record):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    thread = results["thread"]
    process = results["process"]

    speedup = thread.engine_makespan_ms / process.engine_makespan_ms
    rows = [
        [
            report.executor,
            f"{report.gil_bound_ms:.1f}",
            f"{report.engine_makespan_ms:.1f}",
            f"{report.engine_rate_per_s:.2f}",
            f"{report.cache.hit_rate * 100:.1f}%",
        ]
        for report in (thread, process)
    ]
    table = render_table(
        ["engine", "GIL-bound ms", "makespan ms", "VMs/s", "cache hits"],
        rows,
        title=f"{FLEET_SIZE}-VM aws/fgkaslr warm fleet, {WORKERS} boot "
        f"slots — thread vs multiprocess engine (x{speedup:.2f})",
    )
    record(
        "fleet mp",
        table,
        series={
            "thread_rate_per_s": thread.engine_rate_per_s,
            "process_rate_per_s": process.engine_rate_per_s,
            "speedup_x": speedup,
        },
        units="1/s",
    )

    # the tentpole gate: >=5x modeled cold-path throughput from the
    # process engine, with more than half of each boot GIL-serialized
    assert thread.gil_bound_ms > thread.makespan_ms
    assert speedup >= 5.0

    # equivalence gate: same seeds, same layouts, byte for byte
    t_layouts = [
        (b.voffset, tuple(b.report.layout.moved)) for b in thread.boots
    ]
    p_layouts = [
        (b.voffset, tuple(b.report.layout.moved)) for b in process.boots
    ]
    assert t_layouts == p_layouts
    assert thread.cache.hits == process.cache.hits == FLEET_SIZE
