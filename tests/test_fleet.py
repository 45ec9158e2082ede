"""Fleet instantiation: cache behaviour, concurrency, wall-clock model."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import RandomizeMode
from repro.errors import MonitorError
from repro.host import HostStorage
from repro.host.entropy import HostEntropyPool
from repro.monitor import (
    BootArtifactCache,
    Firecracker,
    FleetManager,
    VmConfig,
)
from repro.monitor.fleet import percentile
from repro.simtime import CostModel, FleetWallClock, JitterModel
from repro.snapshot.zygote import ZygotePolicy, ZygotePool


def _manager(kernel, workers: int, sigma: float = 0.0) -> FleetManager:
    vmm = Firecracker(
        HostStorage(), CostModel(scale=1, jitter=JitterModel(sigma=sigma))
    )
    return FleetManager(vmm, workers=workers)


def _cfg(kernel, mode=RandomizeMode.FGKASLR) -> VmConfig:
    return VmConfig(kernel=kernel, randomize=mode)


# -- FleetManager --------------------------------------------------------------


def test_fleet_launch_basics(tiny_fgkaslr):
    manager = _manager(tiny_fgkaslr, workers=4)
    report = manager.launch(_cfg(tiny_fgkaslr), 12, fleet_seed=7)
    assert report.n_vms == 12
    assert len(report.boots) == 12
    assert len({boot.seed for boot in report.boots}) == 12
    assert report.makespan_ms <= report.serial_ms
    assert report.makespan_ms >= max(b.total_ms for b in report.boots)
    assert report.serial_ms == pytest.approx(
        sum(b.total_ms for b in report.boots), abs=1e-3
    )
    assert 1.0 <= report.speedup <= manager.workers + 1e-9
    assert report.rate_per_s > 0
    assert "total" in report.stages
    assert "randomize" in report.stages


def test_fleet_warm_launch_hits_cache(tiny_fgkaslr):
    manager = _manager(tiny_fgkaslr, workers=4)
    report = manager.launch(_cfg(tiny_fgkaslr), 16, fleet_seed=1)
    # warm-up primed the artifact cache: every fleet boot is a hit
    assert report.cache.hits == 16
    assert report.cache.misses == 0
    assert report.cache.hit_rate == 1.0


def test_fleet_cold_launch_counts_misses(tiny_fgkaslr):
    manager = _manager(tiny_fgkaslr, workers=1)
    report = manager.launch(_cfg(tiny_fgkaslr), 8, fleet_seed=1, warm=False)
    # serial cold fleet: first boot misses, the rest hit
    assert report.cache.misses == 1
    assert report.cache.hits == 7


def test_fleet_produces_distinct_layouts(tiny_fgkaslr):
    manager = _manager(tiny_fgkaslr, workers=4)
    report = manager.launch(_cfg(tiny_fgkaslr), 16, fleet_seed=3)
    assert report.unique_layouts == 16


def test_fleet_matches_serial_execution(tiny_fgkaslr):
    """Worker count must not influence results — only wall-clock overlap."""
    serial = _manager(tiny_fgkaslr, workers=1).launch(
        _cfg(tiny_fgkaslr), 10, fleet_seed=42
    )
    fleet = _manager(tiny_fgkaslr, workers=8).launch(
        _cfg(tiny_fgkaslr), 10, fleet_seed=42
    )
    for a, b in zip(serial.boots, fleet.boots):
        assert a.seed == b.seed
        assert a.voffset == b.voffset
        assert a.total_ms == b.total_ms
        assert a.report.breakdown_ms() == b.report.breakdown_ms()
    assert serial.serial_ms == fleet.serial_ms
    assert fleet.makespan_ms <= serial.makespan_ms


def test_fleet_deterministic_under_jitter(tiny_kaslr):
    """Per-boot cost clones keep jitter seed-keyed, not scheduling-keyed."""
    cfg = _cfg(tiny_kaslr, RandomizeMode.KASLR)
    serial = _manager(tiny_kaslr, workers=1, sigma=0.05).launch(
        cfg, 10, fleet_seed=9
    )
    fleet = _manager(tiny_kaslr, workers=8, sigma=0.05).launch(
        cfg, 10, fleet_seed=9
    )
    assert [b.total_ms for b in serial.boots] == [b.total_ms for b in fleet.boots]
    # jitter actually fired: not all boots cost the same
    assert len({b.total_ms for b in fleet.boots}) > 1


def test_cache_does_not_change_layouts(tiny_fgkaslr):
    """The cache is a pure timing optimization; layouts must not move."""
    plain = Firecracker(HostStorage(), CostModel(scale=1))
    cfg = VmConfig(
        kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR, seed=777
    )
    plain.warm_caches(cfg)
    baseline = plain.boot(cfg)

    report = _manager(tiny_fgkaslr, workers=2).launch(
        _cfg(tiny_fgkaslr), 3, seeds=[111, 777, 999]
    )
    cached = report.boots[1].report
    assert cached.layout.voffset == baseline.layout.voffset
    assert cached.layout.moved == baseline.layout.moved
    assert cached.layout.phys_load == baseline.layout.phys_load


def test_fleet_rejects_bad_arguments(tiny_kaslr):
    vmm = Firecracker(HostStorage(), CostModel(scale=1))
    with pytest.raises(MonitorError, match="worker"):
        FleetManager(vmm, workers=0)
    manager = FleetManager(vmm, workers=2)
    with pytest.raises(MonitorError, match="VM"):
        manager.launch(_cfg(tiny_kaslr, RandomizeMode.KASLR), 0)
    with pytest.raises(MonitorError, match="seeds"):
        manager.launch(_cfg(tiny_kaslr, RandomizeMode.KASLR), 3, seeds=[1, 2])


def test_fleet_manager_installs_cache():
    vmm = Firecracker(HostStorage(), CostModel(scale=1))
    assert vmm.artifact_cache is None
    FleetManager(vmm, workers=2)
    assert isinstance(vmm.artifact_cache, BootArtifactCache)


# -- BootArtifactCache ---------------------------------------------------------


def test_cache_eviction_counted(tiny_kaslr, tiny_fgkaslr, tiny_nokaslr):
    cache = BootArtifactCache(max_entries=2)
    for kernel in (tiny_kaslr, tiny_fgkaslr, tiny_nokaslr):
        cache.get_or_parse(
            kernel.elf, RandomizeMode.NONE, VmConfig(kernel=kernel).policy
        )
    stats = cache.stats()
    assert stats.misses == 3
    assert stats.evictions == 1
    assert stats.entries == 2
    # the first-inserted (LRU) kernel was evicted: probing it misses again
    _, hit = cache.get_or_parse(
        tiny_kaslr.elf, RandomizeMode.NONE, VmConfig(kernel=tiny_kaslr).policy
    )
    assert not hit


def test_cache_keyed_on_mode(tiny_fgkaslr):
    cache = BootArtifactCache()
    policy = VmConfig(kernel=tiny_fgkaslr).policy
    a, hit_a = cache.get_or_parse(tiny_fgkaslr.elf, RandomizeMode.KASLR, policy)
    b, hit_b = cache.get_or_parse(tiny_fgkaslr.elf, RandomizeMode.FGKASLR, policy)
    assert not hit_a and not hit_b
    assert a.fg_inventory is None
    assert b.fg_inventory is not None and b.fg_inventory.n_sections > 0


def test_cache_rejects_zero_capacity():
    with pytest.raises(ValueError, match="at least one"):
        BootArtifactCache(max_entries=0)


# -- shared-state concurrency --------------------------------------------------


def test_entropy_pool_concurrent_draws_lose_nothing():
    pool = HostEntropyPool(seed=5)
    with ThreadPoolExecutor(max_workers=8) as executor:
        drawn = list(executor.map(lambda _: pool.draw_u64(), range(400)))
    assert pool.draws == 400
    reference = HostEntropyPool(seed=5)
    expected = {reference.draw_u64() for _ in range(400)}
    # interleaving may permute the assignment, never the drawn set
    assert set(drawn) == expected


def test_zygote_fleet_fanout_is_deterministic(tiny_kaslr):
    vmm = Firecracker(HostStorage(), CostModel(scale=1))
    pool = ZygotePool(
        vmm=vmm,
        cfg_factory=lambda i: VmConfig(
            kernel=tiny_kaslr, randomize=RandomizeMode.KASLR, seed=100 + i
        ),
        policy=ZygotePolicy.POOL,
        pool_size=3,
    )
    pool.fill()
    seeds = list(range(9))
    results = pool.acquire_fleet(seeds, workers=4)
    assert [r.zygote_index for r in results] == [i % 3 for i in range(9)]
    assert sum(s.restore_count() for s in pool.zygotes) == 9
    # position fixes the zygote, so layouts repeat with period pool_size
    assert results[0].vm.layout.voffset == results[3].vm.layout.voffset
    assert results[1].vm.layout.voffset == results[4].vm.layout.voffset


def test_zygote_fleet_requires_fill(tiny_kaslr):
    vmm = Firecracker(HostStorage(), CostModel(scale=1))
    pool = ZygotePool(
        vmm=vmm,
        cfg_factory=lambda i: VmConfig(
            kernel=tiny_kaslr, randomize=RandomizeMode.KASLR, seed=i
        ),
    )
    with pytest.raises(MonitorError, match="empty"):
        pool.acquire_fleet([1, 2])


# -- FleetWallClock ------------------------------------------------------------


def test_wall_clock_single_worker_is_serial():
    wall = FleetWallClock(1)
    for duration in (10, 20, 30):
        wall.admit(duration)
    assert wall.makespan_ns == wall.serial_ns == 60


def test_wall_clock_overlaps_boots():
    wall = FleetWallClock(2)
    windows = [wall.admit(d) for d in (10, 10, 10, 10)]
    assert wall.serial_ns == 40
    assert wall.makespan_ns == 20
    assert windows[0] == (0, 10)
    assert windows[1] == (0, 10)
    assert windows[2] == (10, 20)
    assert wall.speedup == pytest.approx(2.0)


def test_wall_clock_longest_boot_bounds_makespan():
    wall = FleetWallClock(8)
    for duration in (5, 5, 100, 5):
        wall.admit(duration)
    assert wall.makespan_ns == 100


def test_wall_clock_rejects_bad_input():
    with pytest.raises(ValueError, match="worker"):
        FleetWallClock(0)
    wall = FleetWallClock(1)
    with pytest.raises(ValueError, match="negative"):
        wall.admit(-1)


# -- percentile ----------------------------------------------------------------


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_sample():
    # an empty sample used to alias to 0.0, indistinguishable from an
    # infinitely fast stage; it is an explicit error now
    with pytest.raises(ValueError, match="empty"):
        percentile([], 50)


def test_latency_summary_rejects_empty_sample():
    from repro.telemetry.stats import latency_summary

    with pytest.raises(ValueError, match="no samples"):
        latency_summary("parse", [])


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- report serialization ------------------------------------------------------


def test_cache_hit_rate_zero_on_no_lookups():
    from repro.monitor.artifact_cache import CacheStats

    stats = CacheStats(hits=0, misses=0, evictions=0, entries=0)
    assert stats.lookups == 0
    assert stats.hit_rate == 0.0


def test_report_json_carries_workers_and_hit_rate(tiny_fgkaslr):
    manager = _manager(tiny_fgkaslr, workers=2)
    report = manager.launch(_cfg(tiny_fgkaslr), 4, fleet_seed=5)
    data = report.to_json()
    assert data["cache"]["hit_rate"] == report.cache.hit_rate
    assert data["cache"]["lookups"] == report.cache.lookups
    workers = [boot["worker"] for boot in data["boots"]]
    assert set(workers) == {0, 1}
    for boot, parsed in zip(report.boots, data["boots"]):
        assert parsed["worker"] == boot.worker


# -- failure containment -------------------------------------------------------


def _faulty_manager(kernel, spec: str, workers: int = 4) -> FleetManager:
    from repro.faults import FaultPlan

    vmm = Firecracker(
        HostStorage(), CostModel(scale=1), fault_plan=FaultPlan.parse([spec])
    )
    return FleetManager(vmm, workers=workers)


def test_fleet_contains_one_fatal_fault(tiny_fgkaslr):
    """N boots, one pinned fatal fault, no retry: N-1 survivors + 1 failure."""
    manager = _faulty_manager(
        tiny_fgkaslr, "stage=linux_boot,kind=stage-timeout,boot=2"
    )
    report = manager.launch(_cfg(tiny_fgkaslr), 8, fleet_seed=7, retries=0)
    assert len(report.boots) == 7
    assert [b.index for b in report.boots] == [0, 1, 3, 4, 5, 6, 7]
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.index == 2
    assert failure.stage == "linux_boot"
    assert failure.kind == "stage-timeout"
    assert failure.attempt == 0
    assert report.retries == 0
    # the invariant: every index is accounted for exactly once
    assert len(report.boots) + len(report.failures) == report.n_vms


def test_fleet_failure_sets_deterministic(tiny_fgkaslr):
    """Same fleet_seed + plan => byte-identical to_json failure sets."""
    import json

    spec = "stage=linux_boot,kind=reloc-fail,rate=0.4,seed=9"
    a = _faulty_manager(tiny_fgkaslr, spec).launch(
        _cfg(tiny_fgkaslr), 10, fleet_seed=3, retries=0
    )
    b = _faulty_manager(tiny_fgkaslr, spec).launch(
        _cfg(tiny_fgkaslr), 10, fleet_seed=3, retries=0
    )
    assert a.failures  # the rate actually fired
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )
    # worker count changes wall-clock scheduling, never fault decisions
    serial = _faulty_manager(tiny_fgkaslr, spec, workers=1).launch(
        _cfg(tiny_fgkaslr), 10, fleet_seed=3, retries=0
    )
    assert [f.to_json() for f in serial.failures] == [
        f.to_json() for f in a.failures
    ]


def test_fleet_retry_redraws_seed_and_recovers(tiny_fgkaslr):
    """A rate fault keyed on boot_id clears on retry: fresh seed, new draw."""
    spec = "stage=linux_boot,kind=entropy-exhausted,rate=0.4,seed=9"
    no_retry = _faulty_manager(tiny_fgkaslr, spec).launch(
        _cfg(tiny_fgkaslr), 10, fleet_seed=3, retries=0
    )
    assert no_retry.failures
    retried = _faulty_manager(tiny_fgkaslr, spec).launch(
        _cfg(tiny_fgkaslr), 10, fleet_seed=3, retries=3
    )
    # retries were spent, and at least the first-wave failures recovered
    assert retried.retries >= len(no_retry.failures)
    assert len(retried.boots) > len(no_retry.boots)
    assert len(retried.boots) + len(retried.failures) == retried.n_vms
    # recovered boots carry their redrawn seed, distinct from the original
    original = {b.index: b.seed for b in no_retry.boots}
    for boot in retried.boots:
        if boot.index not in original:
            continue
        assert boot.seed == original[boot.index]


def test_fleet_inert_plan_output_identical_to_no_plan(tiny_fgkaslr):
    """rate=0 plan installed => byte-identical report to a plain launch."""
    import json

    plain = _manager(tiny_fgkaslr, workers=4).launch(
        _cfg(tiny_fgkaslr), 6, fleet_seed=11
    )
    inert = _faulty_manager(
        tiny_fgkaslr, "stage=linux_boot,kind=stage-timeout,rate=0.0"
    ).launch(_cfg(tiny_fgkaslr), 6, fleet_seed=11)
    assert json.dumps(plain.to_json(), sort_keys=True) == json.dumps(
        inert.to_json(), sort_keys=True
    )
    assert "failures" not in plain.to_json()
    assert "retries" not in plain.to_json()


def test_fleet_rejects_negative_retries(tiny_fgkaslr):
    manager = _manager(tiny_fgkaslr, workers=2)
    with pytest.raises(MonitorError, match="retry"):
        manager.launch(_cfg(tiny_fgkaslr), 2, retries=-1)


def test_cache_gauge_tracks_occupancy_under_concurrency(tiny_kaslr, tiny_fgkaslr):
    """The occupancy gauge is published under the cache lock: it must equal
    stats().entries after any storm of concurrent inserts, LRU evictions
    and clears."""
    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    # every thread cycles four keys through two LRU slots, so nearly
    # every lookup misses and every insert evicts
    cache = BootArtifactCache(max_entries=2, registry=registry)
    cfgs = [
        VmConfig(kernel=k, randomize=m)
        for k in (tiny_kaslr, tiny_fgkaslr)
        for m in (RandomizeMode.KASLR, RandomizeMode.FGKASLR)
    ]

    def churn(offset):
        for i in range(25):
            cfg = cfgs[(offset + i) % len(cfgs)]
            cache.get_or_parse(cfg.kernel.elf, cfg.randomize, cfg.policy)
            if i % 10 == 9:
                cache.clear()

    with ThreadPoolExecutor(max_workers=8) as executor:
        list(executor.map(churn, range(8)))
    stats = cache.stats()
    assert stats.evictions > 0
    gauge = registry.gauge("repro_cache_entries", help="")
    assert gauge.value == stats.entries
