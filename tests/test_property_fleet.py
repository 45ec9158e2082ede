"""Property tests for the fleet subsystem (hypothesis).

The three contract properties from the fleet design:

1. distinct seeds produce distinct layouts across a fleet;
2. a cache hit is byte-identical to a cold parse (fingerprint oracle);
3. fleet wall-clock never exceeds the sum of serial boots, never beats
   perfect speedup, and never undercuts the longest single boot.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RandomizeMode, prepare_image
from repro.host import HostStorage
from repro.monitor import BootArtifactCache, Firecracker, FleetManager, VmConfig
from repro.simtime import CostModel, FleetWallClock

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
FAST_SETTINGS = settings(
    max_examples=50,
    deadline=None,
)


def _launch(kernel, seeds, workers):
    vmm = Firecracker(HostStorage(), CostModel(scale=1))
    manager = FleetManager(vmm, workers=workers)
    cfg = VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR)
    return manager.launch(cfg, len(seeds), seeds=list(seeds))


@SETTINGS
@given(
    seeds=st.sets(st.integers(min_value=0, max_value=2**64 - 1), min_size=2, max_size=6),
    workers=st.integers(min_value=1, max_value=8),
)
def test_distinct_seeds_distinct_layouts(tiny_fgkaslr, seeds, workers):
    report = _launch(tiny_fgkaslr, sorted(seeds), workers)
    assert report.unique_layouts == len(seeds)


@SETTINGS
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
    workers=st.integers(min_value=1, max_value=8),
)
def test_fleet_wall_clock_bounds(tiny_fgkaslr, seeds, workers):
    report = _launch(tiny_fgkaslr, seeds, workers)
    longest = max(boot.total_ms for boot in report.boots)
    assert report.makespan_ms <= report.serial_ms + 1e-9
    assert report.makespan_ms >= report.serial_ms / workers - 1e-9
    assert report.makespan_ms >= longest - 1e-9


@SETTINGS
@given(mode=st.sampled_from(list(RandomizeMode)), probes=st.integers(1, 4))
def test_cache_hit_is_byte_identical_to_cold_parse(tiny_fgkaslr, mode, probes):
    cold = prepare_image(tiny_fgkaslr.elf, mode)
    cache = BootArtifactCache()
    policy = VmConfig(kernel=tiny_fgkaslr).policy
    first, hit = cache.get_or_parse(tiny_fgkaslr.elf, mode, policy)
    assert not hit
    assert first.fingerprint() == cold.fingerprint()
    for _ in range(probes):
        cached, hit = cache.get_or_parse(tiny_fgkaslr.elf, mode, policy)
        assert hit
        assert cached is first  # the same immutable parse product
        assert cached.fingerprint() == cold.fingerprint()


@FAST_SETTINGS
@given(
    durations=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=40),
    workers=st.integers(min_value=1, max_value=16),
)
def test_wall_clock_model_invariants(durations, workers):
    wall = FleetWallClock(workers)
    for duration in durations:
        wall.admit(duration)
    assert wall.serial_ns == sum(durations)
    assert wall.makespan_ns <= wall.serial_ns
    assert wall.makespan_ns >= max(durations)
    # list scheduling with identical admission order is conservative: at
    # most `workers` boots overlap, so perfect speedup is the ceiling
    assert wall.makespan_ns * workers >= wall.serial_ns
    assert wall.admitted == len(durations)


@FAST_SETTINGS
@given(
    durations=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30)
)
def test_wall_clock_more_workers_never_hurt(durations):
    spans = []
    for workers in (1, 2, 4, 8):
        wall = FleetWallClock(workers)
        for duration in durations:
            wall.admit(duration)
        spans.append(wall.makespan_ns)
    assert all(a >= b for a, b in zip(spans, spans[1:]))


# 4. injected faults never poison the shared artifact cache: whatever
# entries survive a faulty fleet are byte-identical to a cold parse.


@SETTINGS
@given(
    rate=st.floats(min_value=0.2, max_value=0.9),
    spec_seed=st.integers(min_value=0, max_value=2**16),
    workers=st.integers(min_value=1, max_value=8),
)
def test_faulty_fleet_never_poisons_cache(tiny_fgkaslr, rate, spec_seed, workers):
    from repro.faults import FaultPlan
    from repro.monitor.artifact_cache import cache_key_for

    plan = FaultPlan.parse(
        [f"stage=prepare_image,kind=corrupt-elf,rate={rate},seed={spec_seed}"]
    )
    vmm = Firecracker(HostStorage(), CostModel(scale=1), fault_plan=plan)
    manager = FleetManager(vmm, workers=workers)
    cfg = VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR)
    report = manager.launch(cfg, 6, fleet_seed=13, retries=1, warm=False)
    assert len(report.boots) + len(report.failures) == 6
    # a failed parse must never have been inserted: any surviving entry
    # fingerprints identically to a cold parse of the pristine image
    cache = vmm.artifact_cache
    cached = cache.lookup(cache_key_for(cfg))
    if cached is not None:
        cold = prepare_image(
            tiny_fgkaslr.elf,
            RandomizeMode.FGKASLR,
            digest=tiny_fgkaslr.elf.digest,
        )
        assert cached.fingerprint() == cold.fingerprint()
