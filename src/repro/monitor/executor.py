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
  boot against their own monitor instance and return one record per
  boot: its timeline (in the report, or next to the failure JSON) and
  cache-scope counts.  The parent's cache absorbs the counts, and the
  parent derives telemetry and the cost profile from the timeline with
  the :func:`~repro.monitor.vmm.record_boot` the thread path calls.

A process worker pays for its boot substrate once per launch, and under
``fork`` it does not pay for the read-only part at all: it inherits the
parent's warmed kernel image (parsed ELF, decoded relocation table), the
parse product the warm-up cached and the site plans, the relocator's
word maps included (:mod:`repro.core.siteplan`), and builds only the
per-launch objects that carry locks or counts (host storage, artifact
cache).  Under ``spawn`` nothing is inherited: the worker rebuilds the
kernel from zero-copy :class:`~repro.monitor.sharedmem.SharedBlob` views
and re-warms from the disk tier.  The start method (the platform's
default, or ``REPRO_MP_START``) picks the path.

Both backends therefore produce byte-identical layouts and telemetry for
the same seeds, fault plans included: every boot is a pure function of
(config, seed, cost model), and a process worker holds exactly the state
the thread path shares, inherited or rebuilt.  A worker that dies breaks
its pool; the launch then ends in
:class:`~repro.errors.WorkerPoolBroken`.

Engine model: simulated boots charge a virtual clock, so wall-clock
speedup cannot be *measured* here — it is modeled.  :func:`gil_bound_ns`
sums the timeline steps that hold the GIL in a real implementation; the
thread engine's effective makespan is bounded below by that serialized
work, while the process engine schedules it across workers.  The
``BENCH_fleet_mp`` series gates the resulting modeled speedup.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from repro.errors import BootFailure, InjectedFault, MonitorError, WorkerPoolBroken
from repro.monitor.artifact_cache import (
    BootArtifactCache,
    CacheKey,
    CacheScope,
    cache_key_for,
)
from repro.monitor.config import BootFormat, VmConfig
from repro.monitor.report import BootReport
from repro.monitor.sharedmem import SharedArtifactStore, SharedBlob
from repro.monitor.vmm import boot_identity, record_boot
from repro.simtime.trace import BootStep, Timeline
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.prepared import PreparedImage
    from repro.faults.plan import FaultPlan
    from repro.monitor.vmm import Firecracker
    from repro.simtime.costs import CostModel

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
    telemetry/cache side effects already applied to the parent's
    instruments.
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
        telemetry: Telemetry | None,
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
        telemetry: Telemetry | None,
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
    """Everything a worker process needs to build its boot substrate.

    With ``inherit`` set (the ``fork`` start method, which never pickles
    a pool initializer's arguments), ``cfg`` is the parent's live config,
    whose :class:`~repro.kernel.image.KernelImage` already holds its
    parsed ELF and relocation table, and ``prepared`` is the parse the
    parent's warm-up cached for the launch's key (``None`` without a
    warm-up).  Otherwise the spec is pickled: ``cfg`` carries a
    byte-stripped kernel the worker re-hydrates from the
    :class:`SharedBlob` views (segment name + digest, never the payload).
    """

    cfg: VmConfig
    kernel_blob: SharedBlob
    relocs_blob: SharedBlob | None
    monitor: str
    costs: "CostModel"
    fault_plan: "FaultPlan | None"
    warm: bool
    cache_entries: int
    disk_path: str | None
    inherit: bool
    prepared: "tuple[CacheKey, PreparedImage] | None"


#: per-worker-process boot substrate, built once by the pool initializer
_WORKER: dict = {}


def _worker_init(spec: _WorkerSpec) -> None:
    from repro.host.storage import HostStorage
    from repro.monitor.vmm import Firecracker, Qemu

    if spec.inherit:
        # the inherited objects outlive every boot: frozen, the collector
        # never walks them, so its first pass does not write to (and so
        # copy) every page the worker shares with the parent
        gc.freeze()
        cfg = spec.cfg
    else:
        vmlinux = spec.kernel_blob.bytes()
        relocs = spec.relocs_blob.bytes() if spec.relocs_blob is not None else None
        kernel = replace(spec.cfg.kernel, vmlinux=vmlinux, relocs=relocs)
        cfg = replace(spec.cfg, kernel=kernel)
    # the worker records no telemetry: the parent derives it from the
    # shipped timeline, and its cache absorbs the cache-scope counts
    cache = BootArtifactCache(
        max_entries=spec.cache_entries, disk_path=spec.disk_path
    )
    if spec.prepared is not None:
        cache.seed(*spec.prepared)
    monitor_cls = Qemu if spec.monitor == "qemu" else Firecracker
    vmm = monitor_cls(
        HostStorage(),
        costs=spec.costs,
        artifact_cache=cache,
        fault_plan=spec.fault_plan,
    )
    if spec.warm:
        # mirror the parent's warm-up so worker boots see the same cached
        # page-cache/artifact state the thread backend's boots do; with an
        # inherited substrate the parse is a seeded hit and the plans are
        # already derived
        vmm.warm_caches(cfg)
    _WORKER.clear()
    _WORKER.update(cfg=cfg, vmm=vmm)


def _worker_boot(index: int, seed: int, attempt: int) -> dict:
    """One boot inside a worker; returns an outcome-union record.

    Never raises: failures come back as data (with the aborted attempt's
    timeline) so the parent can record them and rethrow a reconstructed
    :class:`~repro.errors.BootFailure` on its own side of the boundary.
    """
    cfg: VmConfig = _WORKER["cfg"]
    vmm = _WORKER["vmm"]
    scope = CacheScope()
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
        }
    return {"ok": True, "report": report, "scope": scope.counts()}


class _ReplayFuture:
    """Wraps a worker future; ``result()`` replays the outcome record.

    Replay order matches the thread path: the boot's cache counts first,
    absorbed by the parent's cache (its tally, the launch scope and its
    registry, where a thread boot's lookup counts them), then
    :func:`~repro.monitor.vmm.record_boot` over the shipped timeline —
    and, for a failed attempt, a reconstructed :class:`BootFailure`
    raise.
    """

    def __init__(
        self,
        future,
        *,
        seed: int,
        cache: BootArtifactCache,
        scope: CacheScope,
        telemetry: Telemetry | None,
    ) -> None:
        self._future = future
        self._seed = seed
        self._cache = cache
        self._scope = scope
        self._telemetry = telemetry

    def result(self) -> BootReport:
        with _pool_boundary():
            out = self._future.result()
        self._cache.absorb(out["scope"], self._scope)
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
        telemetry: Telemetry | None,
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
        inherit = start == "fork"
        # FleetManager installs a cache on every monitor it drives
        cache = vmm.artifact_cache
        prepared = None
        if inherit and warm:
            key = cache_key_for(cfg)
            entry = cache.peek(key)
            prepared = (key, entry) if entry is not None else None
        with SharedArtifactStore() as store:
            spec = _WorkerSpec(
                cfg=replace(
                    cfg,
                    kernel=(
                        cfg.kernel
                        if inherit
                        else replace(cfg.kernel, vmlinux=b"", relocs=None)
                    ),
                    seed=None,
                ),
                kernel_blob=store.put(cfg.kernel.vmlinux),
                relocs_blob=(
                    store.put(cfg.kernel.relocs)
                    if cfg.kernel.relocs is not None
                    else None
                ),
                monitor=vmm.profile.name,
                costs=vmm.costs,
                fault_plan=vmm.fault_plan,
                warm=warm,
                cache_entries=cache.max_entries,
                disk_path=str(cache.disk.path) if cache.disk is not None else None,
                inherit=inherit,
                prepared=prepared,
            )
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=mp_ctx,
                initializer=_worker_init,
                initargs=(spec,),
            )
            try:
                yield _ProcessLaunch(pool, cache, scope, telemetry)
            finally:
                pool.shutdown(wait=True)


@contextmanager
def _pool_boundary() -> Iterator[None]:
    """Raise a broken worker pool as :class:`WorkerPoolBroken`.

    A worker that dies (or whose initializer raises) breaks the whole
    pool: every pending future and every later submit fails.  That is the
    launch's failure, not one boot's, so the fleet does not contain it.
    """
    try:
        yield
    except BrokenProcessPool as exc:
        raise WorkerPoolBroken(
            f"a boot worker process died and broke the pool: {exc}"
        ) from exc


class _ProcessLaunch:
    def __init__(
        self,
        pool: ProcessPoolExecutor,
        cache: BootArtifactCache,
        scope: CacheScope,
        telemetry: Telemetry | None,
    ) -> None:
        self._pool = pool
        self._cache = cache
        self._scope = scope
        self._telemetry = telemetry

    def submit(self, boot_cfg: VmConfig, index: int, attempt: int):
        assert boot_cfg.seed is not None  # fleet draws seeds up front
        with _pool_boundary():
            future = self._pool.submit(_worker_boot, index, boot_cfg.seed, attempt)
        return _ReplayFuture(
            future,
            seed=boot_cfg.seed,
            cache=self._cache,
            scope=self._scope,
            telemetry=self._telemetry,
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
