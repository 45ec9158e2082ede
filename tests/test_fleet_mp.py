"""Multiprocess boot engine: thread/process equivalence, disk cache tier.

The process backend must be an *implementation detail*: byte-identical
layouts, exactly-conserved profiler attribution, and identical fault
decisions versus the thread backend, with only the engine model allowed
to differ.  The disk tier must round-trip across cache instances and
degrade any corruption to a miss, never a wrong parse.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import get_bzimage
from repro.core import RandomizeMode
from repro.core.policy import RandomizationPolicy
from repro.errors import MonitorError
from repro.faults import FaultPlan
from repro.host import HostStorage
from repro.kernel import TINY, KernelVariant
from repro.monitor.artifact_cache import cache_key_for
from repro.monitor import (
    BootArtifactCache,
    BootFormat,
    CacheScope,
    DiskCacheTier,
    Firecracker,
    FleetManager,
    ProcessBootExecutor,
    SharedArtifactStore,
    VmConfig,
    default_workers,
    make_boot_executor,
)
from repro.simtime import CostModel
from repro.snapshot.zygote import ZygotePolicy, ZygotePool
from repro.telemetry import Telemetry, to_prometheus
from repro.telemetry.profiler import CostProfiler


def _vmm(*fault_specs: str, profiled: bool = False) -> Firecracker:
    telemetry = Telemetry()
    return Firecracker(
        HostStorage(),
        CostModel(scale=1),
        artifact_cache=BootArtifactCache(registry=telemetry.registry),
        telemetry=telemetry,
        profiler=CostProfiler() if profiled else None,
        fault_plan=FaultPlan.parse(fault_specs) if fault_specs else None,
    )


def _cfg(kernel) -> VmConfig:
    return VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR)


def _launch(kernel, executor: str, *, faults=(), profiled=False,
            count=6, warm=True, retries=1, workers=2):
    vmm = _vmm(*faults, profiled=profiled)
    manager = FleetManager(vmm, workers=workers, executor=executor)
    report = manager.launch(
        _cfg(kernel), count, fleet_seed=7, warm=warm, retries=retries
    )
    return report, vmm


def _strip_engine(data: dict) -> dict:
    data = dict(data)
    data.pop("executor")
    data.pop("engine")
    return data


# -- differential: thread vs process -------------------------------------------


def test_process_backend_layouts_byte_identical(tiny_fgkaslr):
    """Same seeds => byte-identical report JSON, engine keys aside."""
    thread, _ = _launch(tiny_fgkaslr, "thread")
    process, _ = _launch(tiny_fgkaslr, "process")
    assert thread.executor == "thread"
    assert process.executor == "process"
    assert json.dumps(_strip_engine(thread.to_json()), sort_keys=True) == \
        json.dumps(_strip_engine(process.to_json()), sort_keys=True)
    # the layout digest, explicitly: (voffset, section order) per boot
    t_layouts = [
        (b.voffset, tuple(b.report.layout.moved)) for b in thread.boots
    ]
    p_layouts = [
        (b.voffset, tuple(b.report.layout.moved)) for b in process.boots
    ]
    assert t_layouts == p_layouts


def test_process_backend_conserves_profiler_attribution(tiny_fgkaslr):
    """Replayed worker cells must equal the thread path's, cell for cell."""
    thread, t_vmm = _launch(tiny_fgkaslr, "thread", profiled=True, count=4)
    process, p_vmm = _launch(tiny_fgkaslr, "process", profiled=True, count=4)
    def cell_map(profiler):
        return {
            (key.boot_id, key.stage, key.principal, key.kind): (ns, count)
            for key, ns, count in profiler.cells()
        }

    t_cells = cell_map(t_vmm.profiler)
    p_cells = cell_map(p_vmm.profiler)
    assert t_cells == p_cells
    assert t_vmm.profiler.total_ns() == p_vmm.profiler.total_ns()
    for boot_id in t_vmm.profiler.boot_ids():
        assert t_vmm.profiler.total_ns(boot_id) == p_vmm.profiler.total_ns(
            boot_id
        )
    # conservation against the reports themselves: nothing lost in replay
    assert thread.to_json()["boots"] == process.to_json()["boots"]


#: (fault specs, fleet size, workers, retries)
REPLAY_CASES = {
    "fault-free": ((), 4, 2, 1),
    "faulty": (
        (
            "stage=linux_boot,kind=reloc-fail,rate=0.4,seed=9",
            "stage=randomize_load,kind=stage-timeout,rate=0.2,seed=4",
        ),
        10, 2, 2,
    ),
    "cache-drop": (("stage=prepare_image,kind=cache-drop,boot=3",), 6, 1, 1),
    "cache-drop-rate": (
        ("stage=prepare_image,kind=cache-drop,rate=0.4,seed=5",), 8, 2, 1,
    ),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_process_backend_replays_telemetry(tiny_fgkaslr, case):
    """The parent's telemetry matches the thread path's, text for text.

    Failed attempts included: their completed stages, fired faults and
    failure counters cross the process boundary inside the timeline.
    """
    specs, count, workers, retries = REPLAY_CASES[case]
    texts, events = [], []
    for executor in ("thread", "process"):
        _, vmm = _launch(
            tiny_fgkaslr, executor, faults=specs, count=count,
            workers=workers, retries=retries,
        )
        snap = vmm.telemetry.snapshot()
        texts.append(to_prometheus(snap))
        events.append(sorted(
            (e.boot_id, e.kind, e.name, e.start_ns, e.duration_ns, e.worker,
             e.cache_hit, e.detail)
            for e in snap.events
        ))
    assert texts[0] == texts[1]
    assert events[0] == events[1]
    assert ("repro_fault_injections_total" in texts[1]) == bool(specs)


def test_process_backend_fault_decisions_identical(tiny_fgkaslr):
    """Seeded fault plans fire identically across the process boundary."""
    spec = "stage=linux_boot,kind=reloc-fail,rate=0.4,seed=9"
    thread, _ = _launch(
        tiny_fgkaslr, "thread", faults=(spec,), count=10, retries=0
    )
    process, _ = _launch(
        tiny_fgkaslr, "process", faults=(spec,), count=10, retries=0
    )
    assert thread.failures  # the rate actually fired
    assert [f.to_json() for f in thread.failures] == [
        f.to_json() for f in process.failures
    ]
    assert json.dumps(_strip_engine(thread.to_json()), sort_keys=True) == \
        json.dumps(_strip_engine(process.to_json()), sort_keys=True)


def test_process_backend_retries_recover(tiny_fgkaslr):
    """Retry waves reuse the worker pool and redraw the same seeds."""
    spec = "stage=linux_boot,kind=entropy-exhausted,rate=0.4,seed=9"
    thread, _ = _launch(
        tiny_fgkaslr, "thread", faults=(spec,), count=10, retries=3
    )
    process, _ = _launch(
        tiny_fgkaslr, "process", faults=(spec,), count=10, retries=3
    )
    assert process.retries == thread.retries > 0
    assert [b.seed for b in process.boots] == [b.seed for b in thread.boots]


def test_engine_model_thread_bounded_by_gil(tiny_fgkaslr):
    thread, _ = _launch(tiny_fgkaslr, "thread", count=4)
    process, _ = _launch(tiny_fgkaslr, "process", count=4)
    assert thread.gil_bound_ms == pytest.approx(process.gil_bound_ms)
    assert thread.engine_makespan_ms == pytest.approx(
        max(thread.makespan_ms, thread.gil_bound_ms)
    )
    assert process.engine_makespan_ms == pytest.approx(process.makespan_ms)
    assert process.engine_rate_per_s >= thread.engine_rate_per_s


def test_process_executor_rejects_bzimage(tiny_fgkaslr):
    bz = get_bzimage(TINY, KernelVariant.FGKASLR, "lz4", scale=1)
    cfg = VmConfig(
        kernel=tiny_fgkaslr, boot_format=BootFormat.BZIMAGE, bzimage=bz,
        randomize=RandomizeMode.FGKASLR,
    )
    vmm = _vmm()
    executor = ProcessBootExecutor()
    with pytest.raises(MonitorError, match="vmlinux"):
        with executor.launch(
            vmm=vmm, cfg=cfg, workers=1, scope=CacheScope(),
            telemetry=vmm.telemetry, profiler=None, warm=False,
        ):
            pass  # pragma: no cover - never entered


def test_make_boot_executor_rejects_unknown():
    with pytest.raises(MonitorError, match="unknown boot executor"):
        make_boot_executor("greenlet")


def test_worker_defaults_clamp_to_host_cores(tiny_fgkaslr):
    cores = os.cpu_count() or 8
    assert default_workers(8) == max(1, min(8, cores))
    assert default_workers(4) == max(1, min(4, cores))
    vmm = _vmm()
    assert FleetManager(vmm).workers == default_workers(8)


# -- shared-memory transport ---------------------------------------------------


def test_shared_blob_round_trip_and_pickle_is_view():
    import pickle

    with SharedArtifactStore() as store:
        blob = store.put(b"vmlinux bytes")
        assert blob.bytes() == b"vmlinux bytes"
        wire = pickle.dumps(blob)
        # the pickle carries the view, never the payload
        assert b"vmlinux bytes" not in wire
        clone = pickle.loads(wire)
        assert clone.bytes() == b"vmlinux bytes"
    # after close the segment is gone; cached copies keep working
    assert blob.bytes() == b"vmlinux bytes"
    stale = pickle.loads(wire)
    with pytest.raises(MonitorError, match="gone"):
        stale.bytes()


def test_shared_blob_empty_payload_inlines():
    with SharedArtifactStore() as store:
        blob = store.put(b"")
        assert blob.name == ""
        assert blob.bytes() == b""


# -- persistent disk tier ------------------------------------------------------


def _parse_into(cache: BootArtifactCache, kernel, scope=None):
    return cache.get_or_parse(
        kernel.elf, RandomizeMode.FGKASLR, RandomizationPolicy(), scope=scope
    )


def test_disk_tier_round_trips_across_cache_instances(tiny_fgkaslr, tmp_path):
    first = BootArtifactCache(disk_path=tmp_path)
    scope = CacheScope()
    prepared, hit = _parse_into(first, tiny_fgkaslr, scope)
    assert not hit
    assert scope.counts()["parses"] == 1
    assert len(first.disk.entries()) == 1
    # a fresh process's cache: memory-cold, disk-warm
    second = BootArtifactCache(disk_path=tmp_path)
    scope2 = CacheScope()
    again, hit = _parse_into(second, tiny_fgkaslr, scope2)
    assert hit
    assert again.digest == prepared.digest
    assert again.fingerprint() == prepared.fingerprint()
    counts = scope2.counts()
    assert counts == {
        "hits": 1, "misses": 0, "evictions": 0, "disk_hits": 1, "parses": 0,
    }
    # the disk hit promoted the entry: the next lookup is a memory hit
    _parse_into(second, tiny_fgkaslr, scope2)
    assert scope2.counts()["disk_hits"] == 1
    assert scope2.counts()["hits"] == 2


def test_disk_tier_evict_and_clear(tiny_fgkaslr, tmp_path):
    cache = BootArtifactCache(disk_path=tmp_path)
    _parse_into(cache, tiny_fgkaslr)
    entry = cache.disk.entries()[0]
    assert entry["valid"]
    assert cache.disk.evict(entry["file"][:8]) == 1
    assert cache.disk.entries() == []
    _parse_into(BootArtifactCache(disk_path=tmp_path), tiny_fgkaslr)
    assert cache.disk.clear() == 1


@settings(deadline=None, max_examples=25)
@given(position=st.integers(min_value=0), flip=st.integers(1, 255))
def test_disk_tier_corruption_never_yields_wrong_parse(
    tiny_fgkaslr, tmp_path_factory, position, flip
):
    """Any single-byte corruption degrades to a miss or the exact value."""
    tmp_path = tmp_path_factory.mktemp("tier")
    cache = BootArtifactCache(disk_path=tmp_path)
    prepared, _ = _parse_into(cache, tiny_fgkaslr)
    tier = DiskCacheTier(tmp_path)
    file = tmp_path / cache.disk.entries()[0]["file"]
    key = cache_key_for(
        VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR)
    )
    data = bytearray(file.read_bytes())
    index = position % len(data)
    data[index] ^= flip
    file.write_bytes(bytes(data))
    loaded = tier.load(key)
    if loaded is not None:  # pragma: no cover - vanishingly rare
        assert loaded.fingerprint() == prepared.fingerprint()


def test_disk_tier_ignores_truncated_and_alien_files(tiny_fgkaslr, tmp_path):
    (tmp_path / "alien.pkl").write_bytes(b"not a pickle")
    cache = BootArtifactCache(disk_path=tmp_path)
    key = cache_key_for(
        VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR)
    )
    assert cache.disk.load(key) is None
    rows = cache.disk.entries()
    assert len(rows) == 1
    assert rows[0]["valid"] is False


# -- per-launch cache attribution (the stats-delta bugfix) ---------------------


def test_interleaved_fleets_report_only_their_own_traffic(tiny_fgkaslr):
    """Two fleets on one cache: each scope sees exactly its own lookups.

    The old before/after ``stats()`` delta blended concurrent launches;
    the per-launch scope must not.
    """
    vmm = _vmm()
    a = FleetManager(vmm, workers=2)
    b = FleetManager(vmm, workers=2)
    cfg = _cfg(tiny_fgkaslr)
    with ThreadPoolExecutor(max_workers=2) as pool:
        fut_a = pool.submit(a.launch, cfg, 12, 1)
        fut_b = pool.submit(b.launch, cfg, 8, 2)
        report_a = fut_a.result()
        report_b = fut_b.result()
    assert report_a.cache.lookups == 12
    assert report_a.cache.hits == 12
    assert report_a.cache.misses == 0
    assert report_b.cache.lookups == 8
    assert report_b.cache.hits == 8
    assert report_b.cache.misses == 0


def test_scope_absorb_matches_note():
    scope = CacheScope()
    scope.note(hits=2, disk_hits=1)
    scope.absorb({"hits": 1, "misses": 3, "parses": 2})
    assert scope.counts() == {
        "hits": 3, "misses": 3, "evictions": 0, "disk_hits": 1, "parses": 2,
    }
    stats = scope.snapshot(entries=5)
    assert stats.entries == 5
    assert stats.lookups == 6


# -- zygote fan-out partial results --------------------------------------------


def test_zygote_fleet_contains_failures_as_typed_records(tiny_kaslr):
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
    original = pool._acquire_from

    def flaky(index: int, seed: int):
        if seed == 5:
            raise MonitorError("injected restore failure")
        return original(index, seed)

    pool._acquire_from = flaky  # type: ignore[method-assign]
    result = pool.acquire_fleet(list(range(9)), workers=4)
    assert not result.ok
    assert len(result) == 8  # sequence interface: successes only
    assert [r.zygote_index for r in result] == [
        i % 3 for i in range(9) if i != 5
    ]
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.position == 5
    assert failure.seed == 5
    assert failure.zygote_index == 5 % 3
    assert failure.kind == "monitor"
    assert "injected restore failure" in failure.error


def test_zygote_fleet_all_success_is_ok(tiny_kaslr):
    vmm = Firecracker(HostStorage(), CostModel(scale=1))
    pool = ZygotePool(
        vmm=vmm,
        cfg_factory=lambda i: VmConfig(
            kernel=tiny_kaslr, randomize=RandomizeMode.KASLR, seed=100 + i
        ),
    )
    pool.fill()
    result = pool.acquire_fleet([1, 2, 3])
    assert result.ok
    assert result.failures == ()
    assert len(result) == 3
    assert list(result)[0] is result[0]
