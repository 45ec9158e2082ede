"""Boot executors: the fleet's thread and process backends.

The paper's headline number is instantiation *rate*, and the reproduction
models it faithfully: byte-heavy boot stages (ELF parse, segment load,
relocation apply, decompression) hold the GIL, so a thread-backed fleet
serializes exactly the work the paper parallelizes across cores.  This
module gives :class:`~repro.monitor.fleet.FleetManager` two interchangeable
backends behind one interface:

* :class:`ThreadBootExecutor` — one ``ThreadPoolExecutor`` per launch
  (hoisted above the retry waves, so retries reuse workers instead of
  churning pools) running ``vmm.boot`` in-process;
* :class:`ProcessBootExecutor` — a ``ProcessPoolExecutor`` whose workers
  receive the kernel bytes as zero-copy
  :class:`~repro.monitor.sharedmem.SharedBlob` views, boot against their
  own monitor instance, and return one record per boot: its timeline
  (in the report, or next to the failure JSON), cache-scope counts and
  profiler cells.  The parent derives telemetry from that timeline with
  the :func:`~repro.monitor.vmm.record_boot` the thread path calls.

Both backends therefore produce byte-identical layouts and telemetry for
the same seeds, fault plans included: every boot is a pure function of
(config, seed, cost model), and the process worker rebuilds exactly the
state the thread path shares.

Engine model: simulated boots charge a virtual clock, so wall-clock
speedup cannot be *measured* here — it is modeled.  :func:`gil_bound_ns`
sums the timeline steps that hold the GIL in a real implementation; the
thread engine's effective makespan is bounded below by that serialized
work, while the process engine schedules it across workers.  The
``BENCH_fleet_mp`` series gates the resulting modeled speedup.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from repro.errors import BootFailure, InjectedFault, MonitorError
from repro.monitor.artifact_cache import (
    BootArtifactCache,
    CacheScope,
    record_cache_traffic,
)
from repro.monitor.config import BootFormat, VmConfig
from repro.monitor.report import BootReport
from repro.monitor.sharedmem import SharedArtifactStore, SharedBlob
from repro.monitor.vmm import boot_identity, record_boot
from repro.simtime.trace import BootStep, Timeline
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.monitor.vmm import Firecracker
    from repro.simtime.costs import CostModel
    from repro.telemetry.profiler import CostProfiler

__all__ = [
    "BootExecutor",
    "GIL_BOUND_STEPS",
    "ProcessBootExecutor",
    "ThreadBootExecutor",
    "default_workers",
    "gil_bound_ns",
    "make_boot_executor",
]

#: environment override for the multiprocessing start method
MP_START_ENV = "REPRO_MP_START"


def default_workers(cap: int) -> int:
    """Worker-count default: the host's cores, clamped to ``cap``.

    Replaces the old hardcoded 8/4 defaults — a 2-core CI runner gets 2
    workers, a 64-core host still gets ``cap`` (fleet concurrency beyond
    the cap models nothing the experiments need).
    """
    return max(1, min(cap, os.cpu_count() or cap))


#: timeline steps whose real-world implementation executes Python-level
#: byte work under the GIL (parse/copy/relocate/decompress); everything
#: else (blocking I/O waits, kernel-side boot) releases it
GIL_BOUND_STEPS = frozenset(
    {
        BootStep.MONITOR_ELF_PARSE,
        BootStep.MONITOR_SEGMENT_LOAD,
        BootStep.MONITOR_RNG,
        BootStep.MONITOR_SHUFFLE,
        BootStep.MONITOR_RELOCATE,
        BootStep.MONITOR_TABLE_FIXUP,
        BootStep.LOADER_ELF_PARSE,
        BootStep.LOADER_SEGMENT_LOAD,
        BootStep.LOADER_RNG,
        BootStep.LOADER_SHUFFLE,
        BootStep.LOADER_RELOCATE,
        BootStep.LOADER_TABLE_FIXUP,
        BootStep.LOADER_DECOMPRESS,
        BootStep.LOADER_HEAP_ZERO,
        BootStep.LOADER_COPY_KERNEL,
    }
)


def gil_bound_ns(timeline: Timeline) -> int:
    """Nanoseconds of one boot's timeline that serialize on the GIL."""
    totals = timeline.step_totals_ns()
    return sum(ns for step, ns in totals.items() if step in GIL_BOUND_STEPS)


class BootExecutor:
    """Interface the fleet manager drives: one worker pool per launch.

    ``launch`` is a context manager bracketing one fleet launch (all retry
    waves included); the yielded handle exposes ``submit(boot_cfg, index,
    attempt)`` returning a future whose ``result()`` is the boot's
    :class:`BootReport` — or raises the boot's failure — with all
    telemetry/profiler/cache side effects already applied to the
    parent's instruments.
    """

    name = "abstract"

    @contextmanager
    def launch(
        self,
        *,
        vmm: "Firecracker",
        cfg: VmConfig,
        workers: int,
        scope: CacheScope,
        telemetry: Telemetry,
        profiler: "CostProfiler | None",
        warm: bool,
    ) -> Iterator[object]:
        raise NotImplementedError
        yield  # pragma: no cover - unreachable


class ThreadBootExecutor(BootExecutor):
    """In-process backend: shared monitor, one thread pool per launch."""

    name = "thread"

    @contextmanager
    def launch(
        self,
        *,
        vmm: "Firecracker",
        cfg: VmConfig,
        workers: int,
        scope: CacheScope,
        telemetry: Telemetry,
        profiler: "CostProfiler | None",
        warm: bool,
    ) -> Iterator["_ThreadLaunch"]:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            yield _ThreadLaunch(pool, vmm, scope)
        finally:
            pool.shutdown(wait=True)


class _ThreadLaunch:
    def __init__(self, pool: ThreadPoolExecutor, vmm, scope: CacheScope) -> None:
        self._pool = pool
        self._vmm = vmm
        self._scope = scope

    def submit(self, boot_cfg: VmConfig, index: int, attempt: int):
        return self._pool.submit(
            self._vmm.boot,
            boot_cfg,
            boot_index=index,
            attempt=attempt,
            cache_scope=self._scope,
        )


# -- process backend -----------------------------------------------------------


@dataclass
class _WorkerSpec:
    """Everything a worker process needs to rebuild the boot substrate.

    The kernel bytes travel as :class:`SharedBlob` views (segment name +
    digest, never the payload); ``cfg`` carries a byte-stripped
    :class:`~repro.kernel.image.KernelImage` the worker re-hydrates.
    """

    cfg: VmConfig
    kernel_blob: SharedBlob
    relocs_blob: SharedBlob | None
    monitor: str
    costs: "CostModel"
    fault_plan: "FaultPlan | None"
    want_profiler: bool
    warm: bool
    cache_entries: int
    disk_path: str | None


#: per-worker-process boot substrate, built once by the pool initializer
_WORKER: dict = {}


def _worker_init(spec: _WorkerSpec) -> None:
    from repro.host.storage import HostStorage
    from repro.monitor.vmm import Firecracker, Qemu

    vmlinux = spec.kernel_blob.bytes()
    relocs = spec.relocs_blob.bytes() if spec.relocs_blob is not None else None
    kernel = replace(spec.cfg.kernel, vmlinux=vmlinux, relocs=relocs)
    cfg = replace(spec.cfg, kernel=kernel)
    # worker-local telemetry is a write sink only; the parent derives the
    # real telemetry from the shipped timeline, so nothing here is read
    telemetry = Telemetry()
    cache = BootArtifactCache(
        max_entries=spec.cache_entries,
        registry=telemetry.registry,
        disk_path=spec.disk_path,
    )
    monitor_cls = Qemu if spec.monitor == "qemu" else Firecracker
    vmm = monitor_cls(
        HostStorage(),
        costs=spec.costs,
        artifact_cache=cache,
        telemetry=telemetry,
        fault_plan=spec.fault_plan,
    )
    if spec.warm:
        # mirror the parent's warm-up so worker boots see the same cached
        # page-cache/artifact state the thread backend's boots do
        vmm.warm_caches(cfg)
    _WORKER.clear()
    _WORKER.update(cfg=cfg, vmm=vmm, want_profiler=spec.want_profiler)


def _export_profiler(profiler: "CostProfiler | None") -> dict | None:
    if profiler is None:
        return None
    cells = [
        ((key.boot_id, key.stage, key.principal, key.kind), ns, count)
        for key, ns, count in profiler.cells()
    ]
    boot_ns = {boot: profiler.total_ns(boot) for boot in profiler.boot_ids()}
    return {"cells": cells, "boot_ns": boot_ns}


def _worker_boot(index: int, seed: int, attempt: int) -> dict:
    """One boot inside a worker; returns an outcome-union record.

    Never raises: failures come back as data (with the aborted attempt's
    timeline) so the parent can record them and rethrow a reconstructed
    :class:`~repro.errors.BootFailure` on its own side of the boundary.
    """
    from repro.telemetry.profiler import CostProfiler

    cfg: VmConfig = _WORKER["cfg"]
    vmm = _WORKER["vmm"]
    scope = CacheScope()
    profiler = CostProfiler() if _WORKER["want_profiler"] else None
    # pool workers run one task at a time, so per-task reassignment is safe
    vmm.profiler = profiler
    boot_cfg = replace(cfg, seed=seed)
    try:
        report = vmm.boot(
            boot_cfg,
            boot_index=index,
            attempt=attempt,
            cache_scope=scope,
        )
    except Exception as exc:
        failure = BootFailure.from_exception(
            exc,
            boot_id=boot_identity(cfg.kernel.name, seed),
            attempt=attempt,
            index=index,
            seed=seed,
        )
        # boot_vm wraps an injected fault; the pipeline stamped the original
        stamped = exc.__cause__ if isinstance(exc.__cause__, InjectedFault) else exc
        return {
            "ok": False,
            "failure": failure.to_json(),
            "timeline": getattr(stamped, "boot_timeline", None),
            "scope": scope.counts(),
            "profiler": _export_profiler(profiler),
        }
    return {
        "ok": True,
        "report": report,
        "scope": scope.counts(),
        "profiler": _export_profiler(profiler),
    }


class _ReplayFuture:
    """Wraps a worker future; ``result()`` replays the outcome record.

    Replay order matches the thread path: profiler cells and cache-scope
    counts first, then :func:`~repro.monitor.vmm.record_boot` over the
    shipped timeline — and, for a failed attempt, a reconstructed
    :class:`BootFailure` raise.
    """

    def __init__(
        self,
        future,
        *,
        seed: int,
        scope: CacheScope,
        telemetry: Telemetry,
        profiler: "CostProfiler | None",
    ) -> None:
        self._future = future
        self._seed = seed
        self._scope = scope
        self._telemetry = telemetry
        self._profiler = profiler

    def result(self) -> BootReport:
        out = self._future.result()
        counts = out["scope"]
        self._scope.absorb(counts)
        record_cache_traffic(
            self._telemetry.registry,
            counts["hits"], counts["misses"], counts["evictions"],
        )
        if self._profiler is not None and out["profiler"] is not None:
            self._profiler.absorb(
                out["profiler"]["cells"], out["profiler"]["boot_ns"]
            )
        if not out["ok"]:
            failure = out["failure"]
            if out["timeline"] is not None:  # the pipeline ran and aborted
                record_boot(
                    self._telemetry,
                    failure["boot_id"],
                    out["timeline"],
                    failure=(failure["stage"], failure["kind"]),
                )
            raise BootFailure(
                failure["error"],
                boot_id=failure["boot_id"],
                stage=failure["stage"],
                kind=failure["kind"],
                attempt=failure["attempt"],
                index=failure["index"],
                seed=failure["seed"],
            )
        report: BootReport = out["report"]
        record_boot(
            self._telemetry,
            boot_identity(report.kernel_name, self._seed),
            report.timeline,
            vmm=report.vmm_name,
        )
        return report


class ProcessBootExecutor(BootExecutor):
    """Out-of-process backend: zero-copy artifacts, replayed observability."""

    name = "process"

    @contextmanager
    def launch(
        self,
        *,
        vmm: "Firecracker",
        cfg: VmConfig,
        workers: int,
        scope: CacheScope,
        telemetry: Telemetry,
        profiler: "CostProfiler | None",
        warm: bool,
    ) -> Iterator["_ProcessLaunch"]:
        import multiprocessing

        if cfg.boot_format is not BootFormat.VMLINUX:
            raise MonitorError(
                "the process boot executor only supports vmlinux direct "
                "boots (bzImage containers are not shared-memory backed)"
            )
        start = os.environ.get(MP_START_ENV)
        if start is None:
            methods = multiprocessing.get_all_start_methods()
            start = "fork" if "fork" in methods else "spawn"
        mp_ctx = multiprocessing.get_context(start)
        cache = vmm.artifact_cache
        with SharedArtifactStore() as store:
            spec = _WorkerSpec(
                cfg=replace(
                    cfg,
                    kernel=replace(cfg.kernel, vmlinux=b"", relocs=None),
                    seed=None,
                ),
                kernel_blob=store.put(cfg.kernel.vmlinux),
                relocs_blob=(
                    store.put(cfg.kernel.relocs)
                    if cfg.kernel.relocs is not None
                    else None
                ),
                monitor=vmm.profile.name,
                costs=replace(
                    vmm.costs,
                    decompress_mib_s=dict(vmm.costs.decompress_mib_s),
                    profiler=None,
                ),
                fault_plan=vmm.fault_plan,
                want_profiler=profiler is not None,
                warm=warm,
                cache_entries=cache.max_entries if cache is not None else 64,
                disk_path=(
                    str(cache.disk.path)
                    if cache is not None and cache.disk is not None
                    else None
                ),
            )
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=mp_ctx,
                initializer=_worker_init,
                initargs=(spec,),
            )
            try:
                yield _ProcessLaunch(pool, scope, telemetry, profiler)
            finally:
                pool.shutdown(wait=True)


class _ProcessLaunch:
    def __init__(
        self,
        pool: ProcessPoolExecutor,
        scope: CacheScope,
        telemetry: Telemetry,
        profiler: "CostProfiler | None",
    ) -> None:
        self._pool = pool
        self._scope = scope
        self._telemetry = telemetry
        self._profiler = profiler

    def submit(self, boot_cfg: VmConfig, index: int, attempt: int):
        assert boot_cfg.seed is not None  # fleet draws seeds up front
        future = self._pool.submit(_worker_boot, index, boot_cfg.seed, attempt)
        return _ReplayFuture(
            future,
            seed=boot_cfg.seed,
            scope=self._scope,
            telemetry=self._telemetry,
            profiler=self._profiler,
        )


_EXECUTORS = {
    ThreadBootExecutor.name: ThreadBootExecutor,
    ProcessBootExecutor.name: ProcessBootExecutor,
}


def make_boot_executor(name: str):
    """Resolve an executor backend by name (``thread`` | ``process``)."""
    try:
        return _EXECUTORS[name]()
    except KeyError:
        raise MonitorError(
            f"unknown boot executor {name!r} "
            f"(expected one of: {', '.join(sorted(_EXECUTORS))})"
        ) from None
