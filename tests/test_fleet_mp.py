"""Multiprocess boot engine: thread/process equivalence, disk cache tier.

The process backend must be an *implementation detail*: byte-identical
layouts, exactly-conserved profiler attribution, identical fault
decisions and the same event log, as logged, versus the thread backend,
with only the engine model allowed to differ; a cold launch reads the
same on every backend and worker count.  Its workers inherit the parent's warmed substrate under
``fork`` and rebuild it under ``spawn``; a manager keeps its pool between
launches and reports exactly what fresh pools report; a dead worker ends
the launch in a typed error, and a killed parent takes its kept workers
with it.  The disk tier must round-trip across cache instances and
degrade any corruption to a miss, never a wrong parse.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.artifacts import bzimage_cfg, get_bzimage
from repro.core import RandomizeMode
from repro.core.prepared import prepare_image
from repro.errors import MonitorError, WorkerPoolBroken
from repro.faults import FaultPlan
from repro.host import HostStorage
from repro.kernel import TINY, KernelVariant
from repro.monitor import executor
from repro.monitor.artifact_cache import cache_key_for
from repro.monitor import (
    BootArtifactCache,
    BootFormat,
    CacheScope,
    CacheStats,
    DiskCacheTier,
    Firecracker,
    FleetManager,
    ProcessBootExecutor,
    Qemu,
    SharedArtifactStore,
    VmConfig,
    default_workers,
    make_boot_executor,
)
from repro.simtime import CostModel
from repro.telemetry import Telemetry, to_prometheus
from repro.telemetry.profiler import CostProfiler
from repro.unikernel import UnikernelMonitor


def _vmm(*fault_specs: str, profiled: bool = False) -> Firecracker:
    telemetry = Telemetry(profiler=CostProfiler() if profiled else None)
    return Firecracker(
        HostStorage(),
        CostModel(scale=1),
        artifact_cache=BootArtifactCache(registry=telemetry.registry),
        telemetry=telemetry,
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

    t_profiler = t_vmm.telemetry.profiler
    p_profiler = p_vmm.telemetry.profiler
    t_cells = cell_map(t_profiler)
    p_cells = cell_map(p_profiler)
    assert t_cells == p_cells
    assert t_profiler.total_ns() == p_profiler.total_ns()
    for boot_id in t_profiler.boot_ids():
        assert t_profiler.total_ns(boot_id) == p_profiler.total_ns(boot_id)
    # conservation against the reports themselves: nothing lost in replay
    assert thread.to_json()["boots"] == process.to_json()["boots"]


#: ``repro profile`` over a faulty, retried fleet: 12 boot ids, two of
#: them attempts aborted in randomize_load.  Regenerate (and say so in
#: review) only for an intentional change to the profile or the model:
#:     PYTHONPATH=src python -m repro profile <PROFILE_ARGV[1:]> \
#:         > tests/golden/profile_fleet10_faults.json
PROFILE_GOLDEN = Path(__file__).parent / "golden" / "profile_fleet10_faults.json"
PROFILE_ARGV = [
    "profile", "--kernel", "tiny", "--scale", "1", "--mode", "fgkaslr",
    "--count", "10", "--workers", "2", "--seed", "11",
    "--inject-fault", "stage=randomize_load,kind=reloc-fail,rate=0.3",
    "--retries", "2", "--fmt", "json",
]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_profile_matches_golden_bytes_on_both_executors(backend):
    """Both executors fold the same timelines into the same profile."""
    from repro.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(PROFILE_ARGV + ["--executor", backend])
    assert code == 0
    assert out.getvalue() == PROFILE_GOLDEN.read_text()


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
    Both executors replay every record in fleet-index order, so the
    event logs are equal as logged, sequence numbers included.
    """
    specs, count, workers, retries = REPLAY_CASES[case]
    texts, events, logs = [], [], []
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
        logs.append([e.to_json() for e in vmm.telemetry.log.events()])
    assert texts[0] == texts[1]
    assert events[0] == events[1]
    assert logs[0] == logs[1]
    assert ("repro_fault_injections_total" in texts[1]) == bool(specs)


#: the fleet whose thread export once changed from run to run
EXPORT_ARGV = [
    "fleet", "--kernel", "tiny", "--scale", "1", "--mode", "fgkaslr",
    "--count", "8", "--workers", "2", "--seed", "3", "--trace-export", "json",
]


def _export_digest(backend: str) -> str:
    from repro.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(EXPORT_ARGV + ["--executor", backend]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_thread_trace_export_is_the_same_on_every_run():
    """Thread boots record nothing themselves: the replay records each
    boot on the launching thread in fleet-index order, so the exported
    event log, sequence numbers included, is one digest over 20 runs at
    a fine switch interval, and the process export's."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        digests = {_export_digest("thread") for _ in range(20)}
    finally:
        sys.setswitchinterval(interval)
    assert digests == {_export_digest("process")}


def test_fleet_telemetry_gets_all_of_its_launch(tiny_fgkaslr):
    """With a fleet telemetry over a monitor that holds its own, the
    fleet's gets every stage event and boot window of the launch (8
    stages and a window for each of 4 VMs) on both executors, and the
    monitor's gets none."""
    logs = []
    for backend in ("thread", "process"):
        vmm = _vmm()
        fleet = Telemetry()
        with FleetManager(vmm, workers=2, telemetry=fleet, executor=backend) as manager:
            manager.launch(_cfg(tiny_fgkaslr), 4, fleet_seed=7)
        events = fleet.log.events()
        assert len(events) == 36
        assert [e.kind for e in events].count("boot") == 4
        assert vmm.telemetry.log.events() == ()
        logs.append([e.to_json() for e in events])
    assert logs[0] == logs[1]


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_no_thread_fleet_boot_runs_on_the_fleet_monitor(tiny_fgkaslr, monkeypatch, warm):
    """Thread boots run on a substrate of their launch, as process boots
    do: the fleet's own monitor boots nothing, warm or cold."""
    vmm = _vmm()

    def refuse(*args, **kwargs):
        raise AssertionError("a fleet boot ran on the fleet's own monitor")

    monkeypatch.setattr(vmm, "boot_vm", refuse)
    report = FleetManager(vmm, workers=2).launch(
        _cfg(tiny_fgkaslr), 4, fleet_seed=7, warm=warm
    )
    assert len(report.boots) == 4 and not report.failures


@pytest.mark.parametrize(
    "monitor", [Firecracker, Qemu, UnikernelMonitor], ids=lambda cls: cls.__name__
)
def test_every_executor_boots_the_monitor_class_it_was_given(
    tiny_fgkaslr, monkeypatch, monitor
):
    """A substrate is a monitor of the fleet monitor's own class, so a
    fleet reads the same on threads, under fork and under spawn, and
    every boot names that monitor."""
    cfg = _cfg(tiny_fgkaslr)
    docs = []
    for backend, start in (("thread", None), ("process", "fork"), ("process", "spawn")):
        if start is not None:
            _start_method(monkeypatch, start)
        vmm = monitor(HostStorage(), CostModel(scale=1))
        with FleetManager(vmm, workers=2, executor=backend) as manager:
            report = manager.launch(cfg, 4, fleet_seed=7)
        assert {b.report.vmm_name for b in report.boots} == {monitor.profile.name}
        docs.append(json.dumps(_strip_engine(report.to_json()), sort_keys=True))
    assert docs[0] == docs[1] == docs[2]


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
            telemetry=vmm.telemetry,
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


# -- the worker substrate: inherited under fork, rebuilt under spawn -----------

_real_worker_init = executor._worker_init
_real_worker_boot = executor._worker_boot
#: what this worker process's init built, and what its boots derived
#: after it, read back by :func:`_worker_state`
_BUILT: dict = {}
_BOOTED: dict = {}


def _counting_worker_init(spec, ticket) -> None:
    """The real worker init, counting ELF parses, disk-tier loads, site
    plans and relocation word maps; plans and word maps stay counted, in
    ``_BOOTED``, through the worker's boots."""
    from repro.core import relocator, siteplan
    from repro.elf.reader import ElfImage

    counted = (
        (ElfImage, "__init__", "elf_parses"),
        (DiskCacheTier, "load", "disk_loads"),
        (siteplan, "split_runs", "plan_derivations"),
        (relocator, "link_words", "word_maps"),
    )
    real = {key: getattr(owner, name) for owner, name, key in counted}
    _BUILT.update(dict.fromkeys(real, 0))
    _BOOTED.update(plan_derivations=0, word_maps=0)
    counts = [_BUILT]

    def counting(key):
        def call(*args, **kwargs):
            counts[0][key] += 1
            return real[key](*args, **kwargs)

        return call

    for owner, name, key in counted:
        setattr(owner, name, counting(key))
    try:
        _real_worker_init(spec, ticket)
    finally:
        for owner, name, key in counted[:2]:
            setattr(owner, name, real[key])
        counts[0] = _BOOTED


def _worker_state(ticket) -> dict:
    """Run in a worker: build the launch's substrate with the counting
    init (the first call of a launch does) and read what it holds."""
    executor._worker_init = _counting_worker_init
    cfg, vmm = executor._worker_substrate(ticket)
    return {
        **_BUILT,
        "booted": dict(_BOOTED),
        "page_cached": vmm.storage.is_cached(cfg.kernel_file_name()),
        "memory_entries": vmm.artifact_cache.stats().entries,
    }


def _start_method(monkeypatch, start: str) -> None:
    if start not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start} start method on this platform")
    monkeypatch.setenv(executor.MP_START_ENV, start)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_worker_inherits_under_fork_and_rebuilds_under_spawn(
    tiny_fgkaslr, tmp_path, monkeypatch, start, warm
):
    """Counts, not host time, show which path a worker's init took.

    Before the launch the parent either ran its warm-up or, as a cold
    launch does, booted its first VM alone on a cold substrate; either
    way its cache holds the parse, and every worker starts with the
    kernel page-cached and the parse in its memory tier.  A boot then
    derives no site plan and no relocation word map: a worker that
    derived them on its first boot ran ~20% fewer fleet-process launches
    per second.
    """
    _start_method(monkeypatch, start)
    vmm = Firecracker(
        HostStorage(),
        CostModel(scale=1),
        artifact_cache=BootArtifactCache(disk_path=tmp_path),
        telemetry=Telemetry(),
    )
    cfg = _cfg(tiny_fgkaslr)
    if warm:
        vmm.warm_caches(cfg)
    else:
        (first,) = executor.cold_boots(vmm, cfg, [4], CacheScope(), vmm.telemetry)
        first.result()
    with ProcessBootExecutor() as pools, pools.launch(
        vmm=vmm, cfg=cfg, workers=1, scope=CacheScope(), telemetry=vmm.telemetry,
    ) as launch:
        (ticket,) = launch.boot.args
        state = launch.pool.submit(_worker_state, ticket).result()
        launch.submit(replace(cfg, seed=5), index=0, attempt=0).result()
        booted = launch.pool.submit(_worker_state, ticket).result()["booted"]
    rebuilt = start == "spawn"
    assert state["elf_parses"] == int(rebuilt)
    assert state["disk_loads"] == int(rebuilt)
    assert (state["plan_derivations"] > 0) == rebuilt
    assert (state["word_maps"] > 0) == rebuilt
    assert state["page_cached"]
    assert state["memory_entries"] == 1
    assert booted["plan_derivations"] == 0
    assert booted["word_maps"] == 0


def _crash_index_1(ticket, index: int, seed: int, attempt: int) -> dict:
    if index == 1 and attempt == 0:
        os._exit(3)
    return _real_worker_boot(ticket, index, seed, attempt)


def _src_path() -> str:
    """``PYTHONPATH`` for a subprocess that imports this checkout's package."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - no POSIX shm directory
        return set()


def test_dead_worker_ends_launch_in_typed_error(tiny_fgkaslr, monkeypatch):
    """A worker that dies mid-launch breaks the pool: a typed error, no leak."""
    _start_method(monkeypatch, "fork")
    monkeypatch.setattr(executor, "_worker_boot", _crash_index_1)
    before = _shm_entries()
    with pytest.raises(WorkerPoolBroken, match="died") as info:
        _launch(tiny_fgkaslr, "process", count=6, retries=2)
    assert isinstance(info.value, MonitorError)
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert _shm_entries() <= before


_SPAWN_LAUNCH = """
from repro.artifacts import get_kernel
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import TINY, KernelVariant
from repro.monitor import Firecracker, FleetManager, VmConfig
from repro.simtime import CostModel

kernel = get_kernel(TINY, KernelVariant.FGKASLR, scale=1, seed=3)
manager = FleetManager(
    Firecracker(HostStorage(), CostModel(scale=1)), workers=2, executor="process"
)
report = manager.launch(
    VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR), 4, fleet_seed=7
)
print(len(report.boots), len(report.failures))
"""


def test_spawn_launch_leaves_no_tracker_traceback_or_segment():
    """Workers attach without dropping the parent's tracker registration."""
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("no spawn start method on this platform")
    before = _shm_entries()
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN_LAUNCH],
        env={
            **os.environ,
            "PYTHONPATH": _src_path(),
            executor.MP_START_ENV: "spawn",
        },
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4", "0"]
    assert "Traceback" not in proc.stderr, proc.stderr
    assert _shm_entries() <= before


# -- the kept pool: forked once, reset once per launch --------------------------


def _worker_pids() -> set[int]:
    """Pids of this process's live worker processes (of any pool)."""
    return {child.pid for child in multiprocessing.active_children()}


def _report_json(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


#: (workers, launches in a row on one monitor as launch arguments);
#: ``faults`` replaces the monitor's fault plan before its launch.  A
#: cold launch boots its first VM in the parent and seeds the parent's
#: cache with its parse, so its workers start warm and its worker spec
#: is the warm launch's.
SEQUENCES = {
    "warm-warm": (2, ({}, {})),
    "warm-cold": (2, ({}, {"warm": False})),
    "new-fault-plan": (
        2, ({}, {"faults": ("stage=linux_boot,kind=reloc-fail,rate=0.4,seed=9",)}),
    ),
}


def _run_sequence(kernel, workers, steps, *, kept: bool):
    """Run ``steps`` on one monitor, all on one manager (``kept``) or each
    on a fresh one.  Returns, per launch, its report JSON and the cache's
    ``stats()`` after it; then the monitor's ``repro_cache_*`` lines and
    event log; then the worker pids each launch left alive."""
    vmm = _vmm()
    cfg = _cfg(kernel)
    outputs, pids = [], []
    with FleetManager(vmm, workers=workers, executor="process") as one:
        for fleet_seed, step in enumerate(steps):
            step = dict(step)
            if "faults" in step:
                vmm.fault_plan = FaultPlan.parse(step.pop("faults"))
            manager = (
                one if kept else FleetManager(vmm, workers=workers, executor="process")
            )
            with contextlib.nullcontext() if kept else manager:
                report = manager.launch(cfg, 4, fleet_seed=fleet_seed, **step)
                pids.append(_worker_pids())
            outputs.append((_report_json(report), vmm.artifact_cache.stats()))
    snap = vmm.telemetry.snapshot()
    lines = [line for line in to_prometheus(snap).splitlines() if "repro_cache_" in line]
    events = [
        (e.boot_id, e.kind, e.name, e.start_ns, e.duration_ns, e.worker,
         e.cache_hit, e.detail)
        for e in snap.events
    ]
    return outputs, lines, events, pids


@pytest.mark.parametrize("sequence", sorted(SEQUENCES))
@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_kept_pool_launches_match_fresh_pools(tiny_fgkaslr, monkeypatch, start, sequence):
    """Launches on one manager give the same reports, cache tally,
    Prometheus cache lines and event log as the same launches on fresh
    managers.  A warm or cold launch after a warm one runs on the same
    workers; a launch whose worker spec changed (a new fault plan) forks
    new ones."""
    _start_method(monkeypatch, start)
    workers, steps = SEQUENCES[sequence]
    *kept, (first, second) = _run_sequence(tiny_fgkaslr, workers, steps, kept=True)
    *fresh, _ = _run_sequence(tiny_fgkaslr, workers, steps, kept=False)
    assert kept == fresh
    assert len(first) == workers
    if sequence in ("warm-warm", "warm-cold"):
        assert second == first
    else:
        assert not second & first
    assert not _worker_pids()


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_concurrent_launches_never_share_a_pool(tiny_fgkaslr, monkeypatch, start):
    """Two launches running at once on one manager each get their own
    pool (one takes the kept pool, the other forks), each reports what it
    reports alone, and the manager keeps one pool afterwards."""
    _start_method(monkeypatch, start)
    cfg = _cfg(tiny_fgkaslr)
    alone = {}
    for fleet_seed in (1, 2):
        with FleetManager(_vmm(), workers=2, executor="process") as manager:
            alone[fleet_seed] = _report_json(manager.launch(cfg, 4, fleet_seed=fleet_seed))
    real_launch = ProcessBootExecutor.launch
    inside = threading.Barrier(2, timeout=120)
    pools = []

    @contextlib.contextmanager
    def launch_together(self, **kwargs):
        with real_launch(self, **kwargs) as launch:
            pools.append(launch.pool)
            inside.wait()
            yield launch

    with FleetManager(_vmm(), workers=2, executor="process") as manager:
        manager.launch(cfg, 4, fleet_seed=0)
        monkeypatch.setattr(ProcessBootExecutor, "launch", launch_together)
        with ThreadPoolExecutor(max_workers=2) as threads:
            futures = {
                fleet_seed: threads.submit(manager.launch, cfg, 4, fleet_seed)
                for fleet_seed in (1, 2)
            }
            together = {
                seed: _report_json(f.result(timeout=300)) for seed, f in futures.items()
            }
        assert pools[0] is not pools[1]
        assert len(_worker_pids()) == 2
    assert together == alone
    assert not _worker_pids()


def _count_resets(ticket) -> tuple[int, int]:
    """Run in a worker: count its substrate builds from the first call
    on, build (or find) this launch's, and return (pid, builds)."""
    if not hasattr(executor._worker_init, "builds"):
        real = executor._worker_init

        def counted(spec, ticket):
            counted.builds += 1
            real(spec, ticket)

        counted.builds = 0
        executor._worker_init = counted
    executor._worker_substrate(ticket)
    return os.getpid(), executor._worker_init.builds


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_kept_worker_resets_once_per_launch(tiny_fgkaslr, monkeypatch, start):
    """Three launches on one executor run on one worker process, which
    builds its substrate once per launch, on the launch's first task."""
    _start_method(monkeypatch, start)
    vmm = _vmm()
    cfg = _cfg(tiny_fgkaslr)
    vmm.warm_caches(cfg)
    seen = []
    with ProcessBootExecutor() as pools:
        for fleet_seed in range(3):
            with pools.launch(
                vmm=vmm, cfg=cfg, workers=1, scope=CacheScope(),
                telemetry=vmm.telemetry,
            ) as launch:
                (ticket,) = launch.boot.args
                probe = launch.pool.submit(_count_resets, ticket)
                seen.append(probe.result(timeout=120))
                boot = launch.submit(replace(cfg, seed=fleet_seed), index=0, attempt=0)
                boot.result()
                probe = launch.pool.submit(_count_resets, ticket)
                assert probe.result(timeout=120) == seen[-1]
    assert [builds for _, builds in seen] == [1, 2, 3]
    assert len({pid for pid, _ in seen}) == 1
    assert not _worker_pids()


def test_spawn_worker_started_by_a_later_launch_reads_its_own_segments(
    tiny_fgkaslr, monkeypatch
):
    """Under spawn a pool starts a worker at a submit that finds none
    idle, so a kept pool of two that served a 1-VM launch starts its
    second worker in the next launch, after the first launch unlinked
    its segments; that worker re-hydrates from its own launch's."""
    _start_method(monkeypatch, "spawn")
    cfg = _cfg(tiny_fgkaslr)
    with FleetManager(_vmm(), workers=2, executor="process") as fresh:
        want = _report_json(fresh.launch(cfg, 4, fleet_seed=2))
    with FleetManager(_vmm(), workers=2, executor="process") as manager:
        manager.launch(cfg, 1, fleet_seed=1)
        (first,) = _worker_pids()
        got = _report_json(manager.launch(cfg, 4, fleet_seed=2))
        assert first in _worker_pids() and len(_worker_pids()) == 2
    assert got == want


def test_launching_threads_on_one_manager_stress(tiny_fgkaslr, monkeypatch):
    """More launching threads than cores on one manager, with a short
    switch interval: every launch reports what it reports when run
    alone, and the manager keeps at most one pool between launches."""
    _start_method(monkeypatch, "fork")
    cfg = _cfg(tiny_fgkaslr)
    seeds = range(8)
    with FleetManager(_vmm(), workers=1, executor="process") as serial:
        alone = {s: _report_json(serial.launch(cfg, 2, fleet_seed=s)) for s in seeds}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with FleetManager(_vmm(), workers=1, executor="process") as manager:
            with ThreadPoolExecutor(max_workers=4) as threads:
                futures = {s: threads.submit(manager.launch, cfg, 2, s) for s in seeds}
                together = {
                    s: _report_json(f.result(timeout=300)) for s, f in futures.items()
                }
            assert len(_worker_pids()) <= 1
    finally:
        sys.setswitchinterval(interval)
    assert together == alone
    assert not _worker_pids()


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_launch_after_a_dead_worker_starts_a_fresh_pool(tiny_fgkaslr, monkeypatch, start):
    """A worker that dies in a launch on a kept pool still ends that launch
    in a typed error; the broken pool is not kept, and the next launch
    on the manager forks new workers and reports what a fresh one does."""
    _start_method(monkeypatch, start)
    cfg = _cfg(tiny_fgkaslr)
    with FleetManager(_vmm(), workers=2, executor="process") as fresh:
        want = _report_json(fresh.launch(cfg, 4, fleet_seed=3))
    with FleetManager(_vmm(), workers=2, executor="process") as manager:
        manager.launch(cfg, 4, fleet_seed=1)
        first = _worker_pids()
        monkeypatch.setattr(executor, "_worker_boot", _crash_index_1)
        with pytest.raises(WorkerPoolBroken, match="died"):
            manager.launch(cfg, 6, fleet_seed=7, retries=2)
        assert not _worker_pids()
        monkeypatch.setattr(executor, "_worker_boot", _real_worker_boot)
        got = _report_json(manager.launch(cfg, 4, fleet_seed=3))
        assert _worker_pids() and not _worker_pids() & first
    assert got == want


def test_worker_killed_between_launches_is_not_handed_on(tiny_fgkaslr, monkeypatch):
    """A kept pool whose worker was killed while it waited is broken; the
    next launch forks fresh workers instead of failing on it."""
    _start_method(monkeypatch, "fork")
    cfg = _cfg(tiny_fgkaslr)
    with FleetManager(_vmm(), workers=2, executor="process") as fresh:
        want = _report_json(fresh.launch(cfg, 4, fleet_seed=2))
    with FleetManager(_vmm(), workers=2, executor="process") as manager:
        manager.launch(cfg, 4, fleet_seed=1)
        victim = min(_worker_pids())
        os.kill(victim, signal.SIGKILL)
        kept = manager.executor._kept._pool.executor
        deadline = time.monotonic() + 30
        while not kept._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert kept._broken
        got = _report_json(manager.launch(cfg, 4, fleet_seed=2))
        assert len(_worker_pids()) == 2 and victim not in _worker_pids()
    assert got == want


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_interrupted_launch_keeps_no_pool_or_segment(tiny_fgkaslr, monkeypatch, start):
    """A ``KeyboardInterrupt`` out of a replay ends the launch on the kept
    pool: the pool is shut down, not kept, and no segment is left."""
    _start_method(monkeypatch, start)
    cfg = _cfg(tiny_fgkaslr)

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    before = _shm_entries()
    with FleetManager(_vmm(), workers=2, executor="process") as manager:
        manager.launch(cfg, 4, fleet_seed=1)
        monkeypatch.setattr(executor, "record_boot", interrupt)
        with pytest.raises(KeyboardInterrupt):
            manager.launch(cfg, 4, fleet_seed=2)
        assert not _worker_pids()
    gc.collect()  # a spawn pool's named semaphores go with its queues
    assert _shm_entries() <= before


_KEEP_POOL_AND_WAIT = """
import multiprocessing, time
from repro.artifacts import get_kernel
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import TINY, KernelVariant
from repro.monitor import Firecracker, FleetManager, VmConfig
from repro.simtime import CostModel

kernel = get_kernel(TINY, KernelVariant.FGKASLR, scale=1, seed=3)
manager = FleetManager(
    Firecracker(HostStorage(), CostModel(scale=1)), workers=2, executor="process"
)
manager.launch(VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR), 4, fleet_seed=7)
print(*sorted(child.pid for child in multiprocessing.active_children()), flush=True)
time.sleep(600)
"""


_STOP_TRACKER_AFTER_LAUNCH = """
from multiprocessing import resource_tracker
from repro.artifacts import get_kernel
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import TINY, KernelVariant
from repro.monitor import Firecracker, FleetManager, VmConfig
from repro.simtime import CostModel

kernel = get_kernel(TINY, KernelVariant.FGKASLR, scale=1, seed=3)
manager = FleetManager(
    Firecracker(HostStorage(), CostModel(scale=1)), workers=1, executor="process"
)
manager.launch(VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR), 4, fleet_seed=7)
resource_tracker._resource_tracker._stop()
print("stopped")
"""


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_kept_pool_lets_the_resource_tracker_stop(start):
    """A worker drops its copy of the parent's resource-tracker pipe once
    it attaches no more shared memory, so a parent that stops its
    tracker while a pool is kept (as perfbench does when a workload
    ends) does not wait on the workers."""
    if start not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start} start method on this platform")
    proc = subprocess.run(
        [sys.executable, "-c", _STOP_TRACKER_AFTER_LAUNCH],
        env={**os.environ, "PYTHONPATH": _src_path(), executor.MP_START_ENV: start},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout.split()) == (0, ["stopped"]), proc.stderr


def _exited(pid: int) -> bool:
    """Whether ``pid`` is gone, or a zombie that no one has reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def test_kept_pool_workers_exit_when_their_parent_is_killed():
    """A kept pool outlives its launch; its workers watch their parent
    and exit within seconds of a SIGKILL that left no time to shut
    them down."""
    if not sys.platform.startswith("linux"):
        pytest.skip("reads process states from /proc")
    proc = subprocess.Popen(
        [sys.executable, "-c", _KEEP_POOL_AND_WAIT],
        env={**os.environ, "PYTHONPATH": _src_path()},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(300, proc.kill)
    watchdog.start()
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
    finally:
        watchdog.cancel()
        proc.kill()
        _, err = proc.communicate(timeout=60)
    assert len(pids) == 2, err
    deadline = time.monotonic() + 10
    while not all(map(_exited, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(map(_exited, pids)), [p for p in pids if not _exited(p)]


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


def test_shared_blob_attach_from_unrelated_process_leaves_segment():
    """A process with its own tracker attaches without adopting the segment.

    Its tracker would otherwise unlink the creator's segment (and warn
    of a leak) when that process exits.
    """
    import pickle

    with SharedArtifactStore() as store:
        blob = store.put(b"vmlinux bytes")
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import pickle, sys; "
                "sys.stdout.write(pickle.loads(bytes.fromhex(sys.argv[1]))"
                ".bytes().decode())",
                pickle.dumps(blob).hex(),
            ],
            env={**os.environ, "PYTHONPATH": _src_path()},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "vmlinux bytes"), proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        assert pickle.loads(pickle.dumps(blob)).bytes() == b"vmlinux bytes"


# -- persistent disk tier ------------------------------------------------------


def _parse_into(cache: BootArtifactCache, kernel, scope=None):
    return cache.get_or_parse(_cfg(kernel), scope)


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


def test_disk_tier_format_1_entry_loads_as_a_miss(tiny_fgkaslr, tmp_path):
    """An entry from before the header layout (one pickled envelope
    around the payload bytes, format 1) is a miss, listed as invalid."""
    prepared, _ = _parse_into(BootArtifactCache(), tiny_fgkaslr)
    key = cache_key_for(
        VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR)
    )
    tier = DiskCacheTier(tmp_path)
    payload = pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL)
    tier.file_for(key).write_bytes(pickle.dumps({
        "format": 1,
        "key": (key.image_digest, key.policy),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload": payload,
    }))
    assert tier.load(key) is None
    (row,) = tier.entries()
    assert row["image_digest"] == key.image_digest
    assert row["valid"] is False
    tier.store(key, prepared)
    assert tier.load(key).fingerprint() == prepared.fingerprint()
    assert [row["valid"] for row in tier.entries()] == [True]


def test_disk_tier_format_3_entry_loads_as_a_miss(tiny_fgkaslr, tmp_path):
    """An entry from before the trailer (format 3: a seed class in the
    key, the payload digest in the header) is a miss, listed as invalid,
    even under the name a format-4 entry of its key takes."""
    prepared, _ = _parse_into(BootArtifactCache(), tiny_fgkaslr)
    key = cache_key_for(_cfg(tiny_fgkaslr))
    tier = DiskCacheTier(tmp_path)
    payload = pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "format": 3,
        "key": (key.image_digest, key.policy, "per-vm"),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    tier.file_for(key).write_bytes(
        pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL) + payload
    )
    assert tier.load(key) is None
    assert [row["valid"] for row in tier.entries()] == [False]
    tier.store(key, prepared)
    assert tier.load(key).fingerprint() == prepared.fingerprint()
    assert [row["valid"] for row in tier.entries()] == [True]


@settings(deadline=None, max_examples=25)
@given(length=st.integers(min_value=0))
def test_disk_tier_truncated_entry_is_a_miss(
    tiny_fgkaslr, tmp_path_factory, length
):
    """An entry cut short at any length (a crash mid-copy, a full disk)
    loads as a miss and is listed as invalid."""
    tmp_path = tmp_path_factory.mktemp("tier")
    cache = BootArtifactCache(disk_path=tmp_path)
    _parse_into(cache, tiny_fgkaslr)
    file = tmp_path / cache.disk.entries()[0]["file"]
    data = file.read_bytes()
    file.write_bytes(data[: length % len(data)])
    tier = DiskCacheTier(tmp_path)
    assert tier.load(cache_key_for(_cfg(tiny_fgkaslr))) is None
    assert [row["valid"] for row in tier.entries()] == [False]


def test_disk_tier_threads_storing_one_key_each_write_their_own_file(
    tiny_fgkaslr, tmp_path
):
    """Concurrent stores of one key never collide on a temp file: none
    raises, the entry loads, and no temp file is left behind."""
    prepared, _ = _parse_into(BootArtifactCache(), tiny_fgkaslr)
    key = cache_key_for(
        VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR)
    )
    tier = DiskCacheTier(tmp_path)
    threads = 4
    barrier = threading.Barrier(threads)

    def store(_):
        barrier.wait(timeout=30)
        tier.store(key, prepared)

    with ThreadPoolExecutor(threads) as pool:
        for _round in range(25):
            list(pool.map(store, range(threads)))
    assert tier.load(key).fingerprint() == prepared.fingerprint()
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".pkl"]


def _store_in_rounds(path, key, prepared, barrier, rounds: int) -> None:
    tier = DiskCacheTier(path)
    for _ in range(rounds):
        barrier.wait(timeout=60)
        tier.store(key, prepared)
        # the other process may have replaced the file: a whole entry
        # either way, never a torn one
        assert tier.load(key) is not None


def test_disk_tier_processes_storing_one_key_at_once(tiny_fgkaslr, tmp_path):
    """Two processes store one key at the same time, round after round:
    both finish, the entry left fingerprints like a cold parse, and no
    temp file is left behind."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    mp = multiprocessing.get_context("fork")
    prepared, _ = _parse_into(BootArtifactCache(), tiny_fgkaslr)
    key = cache_key_for(_cfg(tiny_fgkaslr))
    barrier = mp.Barrier(2)
    procs = [
        mp.Process(
            target=_store_in_rounds, args=(tmp_path, key, prepared, barrier, 8)
        )
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        if proc.is_alive():  # pragma: no cover - a hung store
            proc.kill()
    assert [proc.exitcode for proc in procs] == [0, 0]
    cold = prepare_image(tiny_fgkaslr.elf, RandomizeMode.FGKASLR)
    loaded = DiskCacheTier(tmp_path).load(key)
    assert loaded.fingerprint() == cold.fingerprint()
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".pkl"]


def test_disk_tier_failed_write_leaves_no_temp_file(
    tiny_fgkaslr, tmp_path, monkeypatch
):
    prepared, _ = _parse_into(BootArtifactCache(), tiny_fgkaslr)
    key = cache_key_for(
        VmConfig(kernel=tiny_fgkaslr, randomize=RandomizeMode.FGKASLR)
    )
    tier = DiskCacheTier(tmp_path)

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        tier.store(key, prepared)
    assert list(tmp_path.iterdir()) == []


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


def _tally_launch(kernel, executor: str, *, registry: bool, warm: bool):
    """A 4-VM launch of ``kernel`` (or of a whole config) on 2 workers;
    the cache publishes to the telemetry's registry only with
    ``registry`` set (perfbench's fleet-process cache publishes nowhere)."""
    telemetry = Telemetry()
    vmm = Firecracker(
        HostStorage(),
        CostModel(scale=1),
        artifact_cache=BootArtifactCache(
            registry=telemetry.registry if registry else None
        ),
        telemetry=telemetry,
    )
    cfg = kernel if isinstance(kernel, VmConfig) else _cfg(kernel)
    report = FleetManager(vmm, workers=2, executor=executor).launch(
        cfg, 4, fleet_seed=1, warm=warm
    )
    lines = [
        line
        for line in to_prometheus(telemetry.snapshot()).splitlines()
        if "repro_cache_" in line
    ]
    return report, vmm.artifact_cache.stats(), lines


@pytest.mark.parametrize("registry", [True, False], ids=["registry", "no-registry"])
def test_warm_launch_cache_tally_is_the_same_on_both_executors(
    tiny_fgkaslr, registry
):
    """The parent's cache counts a worker's boots as its own: stats()
    and the repro_cache_* Prometheus lines read the same after a warm
    launch on either executor."""
    _, t_stats, t_lines = _tally_launch(
        tiny_fgkaslr, "thread", registry=registry, warm=True
    )
    _, p_stats, p_lines = _tally_launch(
        tiny_fgkaslr, "process", registry=registry, warm=True
    )
    # the warm-up missed and parsed; every boot hit
    assert t_stats == CacheStats(hits=4, misses=1, evictions=0, entries=1, parses=1)
    assert p_stats == t_stats
    assert p_lines == t_lines
    assert bool(t_lines) == registry


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_cold_launch_cache_tally_counts_one_parse(tiny_fgkaslr, backend):
    """Cold, the launch's first boot misses and parses, alone, and every
    other boot hits; the parent's stats() counts that one miss and parse,
    as the launch report does."""
    report, stats, _ = _tally_launch(
        tiny_fgkaslr, backend, registry=True, warm=False
    )
    assert report.cache.misses == report.cache.parses == 1
    assert report.cache.lookups == 4
    assert stats == report.cache


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_cold_launch_after_a_warm_one_misses_again(tiny_fgkaslr, backend):
    """A cold launch's first boot runs on a cold substrate whatever the
    monitor's cache already holds, so after a warm launch on the same
    manager it still takes the miss, and the cache holds one entry."""
    with FleetManager(_vmm(), workers=2, executor=backend) as manager:
        manager.launch(_cfg(tiny_fgkaslr), 4, fleet_seed=1)
        report = manager.launch(_cfg(tiny_fgkaslr), 4, fleet_seed=2, warm=False)
    assert (report.cache.misses, report.cache.parses, report.cache.hits) == (1, 1, 3)
    assert report.cache.entries == 1


#: a cold launch's backends: (executor, start method)
COLD_BACKENDS = {
    "thread": ("thread", None),
    "fork": ("process", "fork"),
    "spawn": ("process", "spawn"),
}
COLD_WORKERS = (1, 2, 4)


@pytest.fixture(scope="module")
def cold_launches(tiny_fgkaslr):
    """A cold 4-VM launch (fleet seed 7, fresh cache) on each backend and
    worker count: its report, the cache's stats() and the event log."""
    runs = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, (backend, start) in COLD_BACKENDS.items():
            if start is not None:
                _start_method(monkeypatch, start)
            for workers in COLD_WORKERS:
                vmm = _vmm()
                with FleetManager(vmm, workers=workers, executor=backend) as manager:
                    report = manager.launch(_cfg(tiny_fgkaslr), 4, fleet_seed=7, warm=False)
                events = [e.to_json() for e in vmm.telemetry.log.events()]
                runs[name, workers] = report, vmm.artifact_cache.stats(), events
    return runs


@pytest.mark.parametrize("workers", COLD_WORKERS)
def test_cold_launch_is_the_same_on_every_backend(cold_launches, workers):
    """At any worker count, threads, fork and spawn give byte-identical
    report JSON (engine keys aside), stats() and event logs."""
    docs, stats, logs = set(), set(), set()
    for name in COLD_BACKENDS:
        report, tally, events = cold_launches[name, workers]
        docs.add(json.dumps(_strip_engine(report.to_json()), sort_keys=True))
        stats.add(tally)
        logs.add(json.dumps(events))
    assert len(docs) == len(stats) == len(logs) == 1


@pytest.mark.parametrize("backend", sorted(COLD_BACKENDS))
def test_cold_launch_reads_the_same_at_every_worker_count(cold_launches, backend):
    """Whatever the worker count, fleet index 0 alone takes the uncached
    read and the miss, and every other boot hits: the per-boot seeds,
    totals and voffsets and the cache block agree, the report reads one
    miss and one parse, and stats() equals the report's cache."""
    views = set()
    for workers in COLD_WORKERS:
        report, stats, events = cold_launches[backend, workers]
        doc = report.to_json()
        views.add(json.dumps(
            ([(b["seed"], b["total_ms"], b["voffset"]) for b in doc["boots"]],
             doc["cache"]),
            sort_keys=True,
        ))
        assert stats == report.cache
        assert (report.cache.misses, report.cache.parses, report.cache.hits) == (1, 1, 3)
        assert [b.report.cached for b in report.boots] == [False, True, True, True]
        hits = [e["cache_hit"] for e in events if e["name"] == "prepare_image"]
        assert hits == [False, True, True, True]
        assert report.boots[0].total_ms > max(b.total_ms for b in report.boots[1:])
    assert len(views) == 1


@pytest.mark.parametrize("backend", sorted(COLD_BACKENDS))
def test_cold_launch_whose_first_boot_fails_early_pays_on_the_next(
    tiny_fgkaslr, monkeypatch, backend
):
    """A first boot that fails before it reads the kernel leaves nothing
    cached, so the next index boots alone on the same cold substrate and
    takes the uncached read and the miss, as on one worker thread; the
    rest hit, and the launch reads the same at 1, 2 and 4 workers."""
    executor_name, start = COLD_BACKENDS[backend]
    if start is not None:
        _start_method(monkeypatch, start)
    views = set()
    for workers in COLD_WORKERS:
        vmm = _vmm("stage=monitor_startup,kind=stage-timeout,boot=0")
        with FleetManager(vmm, workers=workers, executor=executor_name) as manager:
            report = manager.launch(_cfg(tiny_fgkaslr), 4, fleet_seed=7, warm=False)
        assert [b.index for b in report.boots] == [1, 2, 3]
        assert [f.index for f in report.failures] == [0]
        assert [b.report.cached for b in report.boots] == [False, True, True]
        assert (report.cache.misses, report.cache.parses, report.cache.hits) == (1, 1, 2)
        assert vmm.artifact_cache.stats() == report.cache
        doc = report.to_json()
        views.add(json.dumps(
            ([(b["seed"], b["total_ms"], b["voffset"]) for b in doc["boots"]],
             doc["cache"], doc["failures"], doc["retries"]),
            sort_keys=True,
        ))
    assert len(views) == 1


@pytest.mark.parametrize("backend", sorted(COLD_BACKENDS))
def test_cold_launch_over_a_warm_disk_tier_parses_nothing(
    tiny_fgkaslr, tmp_path, monkeypatch, backend
):
    """A cold launch's first boot finds an empty memory tier over a warm
    disk tier: it disk-hits, as a one-VM cold launch does, and the rest
    hit memory; nothing misses or parses."""
    executor_name, start = COLD_BACKENDS[backend]
    if start is not None:
        _start_method(monkeypatch, start)
    BootArtifactCache(disk_path=tmp_path).get_or_parse(_cfg(tiny_fgkaslr))
    caches = []
    for count in (1, 4):
        cache = BootArtifactCache(disk_path=tmp_path)
        vmm = Firecracker(HostStorage(), CostModel(scale=1), artifact_cache=cache)
        with FleetManager(vmm, workers=2, executor=executor_name) as manager:
            report = manager.launch(_cfg(tiny_fgkaslr), count, fleet_seed=7, warm=False)
        assert cache.stats() == report.cache
        caches.append(report.cache)
    assert caches == [
        CacheStats(hits=1, misses=0, evictions=0, entries=1, disk_hits=1),
        CacheStats(hits=4, misses=0, evictions=0, entries=1, disk_hits=1),
    ]


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_bzimage_thread_fleet_leaves_the_cache_alone(warm):
    """A bzImage boot parses in its guest loader and never probes the
    artifact cache: a thread fleet of them, warm or cold, counts nothing
    and publishes no cache series."""
    cfg = bzimage_cfg(TINY, RandomizeMode.KASLR, "lz4", scale=1)
    report, stats, lines = _tally_launch(cfg, "thread", registry=True, warm=warm)
    assert len(report.boots) == 4
    assert report.cache == stats == CacheStats(hits=0, misses=0, evictions=0, entries=0)
    assert lines == []


def test_scope_absorb_matches_note():
    """A worker's counts absorbed by a cache land in the caller's scope
    as if noted there, and in the cache's own tally."""
    cache = BootArtifactCache()
    scope = CacheScope()
    scope.note(hits=2, disk_hits=1)
    cache.absorb({"hits": 1, "misses": 3, "parses": 2}, scope)
    assert scope.counts() == {
        "hits": 3, "misses": 3, "evictions": 0, "disk_hits": 1, "parses": 2,
    }
    stats = scope.snapshot(entries=5)
    assert stats.entries == 5
    assert stats.lookups == 6
    assert cache.stats() == CacheStats(
        hits=1, misses=3, evictions=0, entries=0, parses=2
    )
