"""Boot executors: the fleet's thread and process backends.

The paper's headline number is instantiation *rate*, and the reproduction
models it faithfully: byte-heavy boot stages (ELF parse, segment load,
relocation apply, decompression) hold the GIL, so a thread-backed fleet
serializes exactly the work the paper parallelizes across cores.  This
module gives :class:`~repro.monitor.fleet.FleetManager` two interchangeable
backends over one boot path; as Firecracker runs a monitor process per VM,
no fleet boot runs on the fleet's own monitor:

* :func:`_substrate` builds the telemetry-free monitor a launch's boots
  run on: the fleet monitor's class over fresh host storage and a fresh
  cache of the parent cache's size and disk path, seeded with its parse,
  then warmed.  A :class:`ThreadBootExecutor` launch builds one for its
  threads to share; a :class:`ProcessBootExecutor` worker builds its own.
* Every boot runs :func:`_boot_record`, which never raises and returns
  one record: the report, or the failure and its timeline, and the
  boot's cache-scope counts (a substrate counts only in its own cache).
* :meth:`_ReplayFuture.result` absorbs a record's counts into the
  parent's cache and derives telemetry and the cost profile from its
  timeline, on the fleet's thread in fleet-index order, so the event log
  never depends on which boot finished first.
* A cold launch boots its first VMs alone, on the caller's thread and a
  cold substrate, until one parses (:func:`cold_boots`); the parse seeds
  the parent's cache without a count, so every fan-out is warm.

So both backends produce byte-identical layouts and telemetry for the
same seeds, fault plans included: every boot is a pure function of
(config, seed, cost model) on a substrate built by one function.

A process worker is paid for once per kept pool and reset once per
launch.  The executor keeps the pool of a launch that ended cleanly and
hands it to the next launch whose worker spec is the same (same kernel
object, config, monitor class, cost model, fault plan, cache and seeded
parse; same start method and worker count), so a fleet manager forks,
faults in and starts its workers once.  Every boot a launch submits
carries the launch's generation number, and a worker's first task of a
new generation builds a new substrate: each launch's reports, cache
tally and telemetry read exactly as on a fresh pool.  Under ``fork`` a
worker never pays for the read-only part: it inherits the parent's
warmed kernel image (parsed ELF, decoded relocation table), the parse
product the parent's cache holds and the site plans, the relocator's
word maps included (:mod:`repro.core.siteplan`).  Under ``spawn``
nothing is inherited: a worker rebuilds the kernel from zero-copy
:class:`~repro.monitor.sharedmem.SharedBlob` views of the launch it
starts in, keeps it, and re-warms from the disk tier.  The start method
(the platform's default, or ``REPRO_MP_START``) picks the path.

A launch that raises shuts its pool down instead of keeping it; two
launches running at once each get their own pool, and an executor keeps
at most one.  A worker that dies breaks its pool, and the launch ends in
:class:`~repro.errors.WorkerPoolBroken`.  The kept pool is shut down by
:meth:`BootExecutor.close` (also on leaving a ``with`` block), when the
executor is collected, at interpreter exit, and when the parent process
dies: each worker watches its parent and exits with it.

Engine model: simulated boots charge a virtual clock, so wall-clock
speedup cannot be *measured* here — it is modeled.  :func:`gil_bound_ns`
sums the timeline steps that hold the GIL in a real implementation; the
thread engine's effective makespan is bounded below by that serialized
work, while the process engine schedules it across workers.  The
``BENCH_fleet_mp`` series gates the resulting modeled speedup.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import multiprocessing.connection
import os
import threading
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import resource_tracker
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import BootFailure, InjectedFault, MonitorError, WorkerPoolBroken
from repro.host.storage import HostStorage
from repro.monitor.artifact_cache import BootArtifactCache, CacheScope, cache_key_for
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
    "cold_boots",
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
    attempt)`` returning a future whose ``result()`` replays the boot's
    record into the parent's instruments and returns its
    :class:`BootReport` — or raises its :class:`BootFailure`.  ``close``
    releases whatever the executor keeps between launches; a ``with`` block
    closes the executor on exit.
    """

    name = "abstract"

    def close(self) -> None:
        """Release what the executor keeps between launches (here nothing)."""

    def __enter__(self) -> "BootExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def launch(
        self,
        *,
        vmm: "Firecracker",
        cfg: VmConfig,
        workers: int,
        scope: CacheScope,
        telemetry: Telemetry | None,
    ) -> Iterator["_Launch"]:
        raise NotImplementedError
        yield  # pragma: no cover - unreachable


class ThreadBootExecutor(BootExecutor):
    """In-process backend: one substrate per launch, shared by a thread pool."""

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
    ) -> Iterator["_Launch"]:
        substrate = _substrate(_spec_for(vmm, cfg, inherit=True), cfg)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            boot = partial(_boot_record, cfg, substrate)
            yield _Launch(pool, boot, vmm.artifact_cache, scope, telemetry)


# -- one boot path: substrate, record, replay ----------------------------------


@dataclass
class _WorkerSpec:
    """What a launch's substrate is built from (see :func:`_substrate`).

    ``cfg`` is the launch's config with its seed cleared, ``monitor`` the
    fleet monitor's class (pickled by reference).  With ``inherit`` (a
    thread launch, or ``fork``, which never pickles a pool initializer's
    arguments) a substrate holds the parent's live config, whose
    :class:`~repro.kernel.image.KernelImage` already holds its parsed ELF
    and relocation table, and ``prepared`` is the parse the parent's cache
    holds for the launch, if any.  Pickled for any other start method, the
    kernel loses its bytes: the worker re-hydrates them from the
    :class:`SharedBlob` views its first task carries (segment name +
    digest, never the payload).

    A pool is handed on only to a launch whose spec is equal to its own
    and holds the same kernel object.
    """

    cfg: VmConfig
    monitor: "type[Firecracker]"
    costs: "CostModel"
    fault_plan: "FaultPlan | None"
    cache_entries: int
    disk_path: str | None
    inherit: bool
    prepared: "PreparedImage | None"

    def __getstate__(self) -> dict:
        kernel = replace(self.cfg.kernel, vmlinux=b"", relocs=None)
        return {**vars(self), "cfg": replace(self.cfg, kernel=kernel)}


def _spec_for(vmm: "Firecracker", cfg: VmConfig, *, inherit: bool) -> _WorkerSpec:
    """The spec of ``vmm``'s substrates for a launch of ``cfg``."""
    # FleetManager installs a cache on every monitor it drives
    cache = vmm.artifact_cache
    return _WorkerSpec(
        cfg=replace(cfg, seed=None),
        monitor=type(vmm),
        costs=vmm.costs,
        fault_plan=vmm.fault_plan,
        cache_entries=cache.max_entries,
        disk_path=str(cache.disk.path) if cache.disk is not None else None,
        inherit=inherit,
        prepared=cache.peek(cache_key_for(cfg)) if inherit else None,
    )


def _substrate(
    spec: _WorkerSpec, cfg: VmConfig, *, cold: bool = False
) -> "Firecracker":
    """The monitor a launch's boots run on, on threads and in worker
    processes alike.  It records no telemetry (the parent derives it from
    each boot's record), and unless ``cold`` its cache is seeded with the
    spec's parse and it runs its warm-up: with an inherited substrate, a
    seeded hit over site plans already derived."""
    cache = BootArtifactCache(max_entries=spec.cache_entries, disk_path=spec.disk_path)
    vmm = spec.monitor(
        HostStorage(),
        costs=spec.costs,
        artifact_cache=cache,
        fault_plan=spec.fault_plan,
    )
    if not cold:
        if spec.prepared is not None:
            cache.seed(cache_key_for(cfg), spec.prepared)
        vmm.warm_caches(cfg)
    return vmm


def _boot_record(
    cfg: VmConfig, vmm: "Firecracker", index: int, seed: int, attempt: int
) -> dict:
    """One boot of ``cfg`` at ``seed`` on a substrate; returns an
    outcome-union record.

    Never raises: failures come back as data (with the aborted attempt's
    timeline) so the replay can record them and rethrow a reconstructed
    :class:`~repro.errors.BootFailure` on the parent's side.
    """
    scope = CacheScope()
    try:
        report = vmm.boot(
            replace(cfg, seed=seed),
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


def cold_boots(
    vmm: "Firecracker",
    cfg: VmConfig,
    seeds: list[int],
    scope: CacheScope,
    telemetry: Telemetry | None,
) -> list["_ReplayFuture"]:
    """Boot a cold launch's first VMs alone on this thread, in fleet-index
    order on one cold substrate, until one succeeds or parses: as on one
    worker, the first to read the kernel takes the uncached read and the
    first to probe the cache the miss (or a disk hit).  The parse seeds
    ``vmm``'s cache without a count, so the fan-out starts warm."""
    substrate = _substrate(_spec_for(vmm, cfg, inherit=True), cfg, cold=True)
    key, cache = cache_key_for(cfg), vmm.artifact_cache
    futures = []
    for index, seed in enumerate(seeds):
        record = _boot_record(cfg, substrate, index, seed, 0)
        future: Future = Future()
        future.set_result(record)
        futures.append(_ReplayFuture(future, seed, cache, scope, telemetry))
        prepared = substrate.artifact_cache.peek(key)
        if prepared is not None:
            cache.seed(key, prepared)
        if prepared is not None or record["ok"]:
            break
    return futures


@dataclass
class _ReplayFuture:
    """Wraps the future of a boot's record; ``result()`` replays it.

    The one replay of both backends, run on the fleet's thread: the boot's
    cache counts first, absorbed by the parent's cache (its tally, the
    launch scope and its registry), then :func:`~repro.monitor.vmm.record_boot`
    over the boot's timeline — and, for a failed attempt, a reconstructed
    :class:`BootFailure` raise.
    """

    future: Future
    seed: int
    cache: BootArtifactCache
    scope: CacheScope
    telemetry: Telemetry | None

    def result(self) -> BootReport:
        with _pool_boundary():
            out = self.future.result()
        self.cache.absorb(out["scope"], self.scope)
        if not out["ok"]:
            failure = out["failure"]
            if out["timeline"] is not None:  # the pipeline ran and aborted
                record_boot(
                    self.telemetry,
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
            self.telemetry,
            boot_identity(report.kernel_name, self.seed),
            report.timeline,
            vmm=report.vmm_name,
        )
        return report


@dataclass
class _Launch:
    """One launch's handle on either backend: ``submit`` runs ``boot(index,
    seed, attempt)`` on the pool and returns the future replaying its record."""

    pool: ThreadPoolExecutor | ProcessPoolExecutor
    boot: Callable[[int, int, int], dict]
    cache: BootArtifactCache
    scope: CacheScope
    telemetry: Telemetry | None

    def submit(self, boot_cfg: VmConfig, index: int, attempt: int) -> _ReplayFuture:
        assert boot_cfg.seed is not None  # fleet draws seeds up front
        with _pool_boundary():
            future = self.pool.submit(self.boot, index, boot_cfg.seed, attempt)
        return _ReplayFuture(
            future, boot_cfg.seed, self.cache, self.scope, self.telemetry
        )


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


# -- process backend -----------------------------------------------------------


@dataclass(frozen=True)
class _Ticket:
    """What every boot of one launch carries to a worker: the launch's
    generation number and the kernel bytes published for it."""

    generation: int
    kernel_blob: SharedBlob
    relocs_blob: SharedBlob | None


#: this worker process's state: its pool's ``spec`` from the start, then
#: the ``cfg`` and ``vmm`` it built for launch ``generation``
_WORKER: dict = {}


def _worker_start(spec: _WorkerSpec) -> None:
    """Pool initializer: what a worker does once, when it starts."""
    if spec.inherit:
        # the inherited objects outlive every boot: frozen, the collector
        # never walks them, so its first pass does not write to (and so
        # copy) every page the worker shares with the parent
        gc.freeze()
        _leave_resource_tracker()  # a forked worker attaches no segment
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    _WORKER.clear()
    _WORKER["spec"] = spec


def _leave_resource_tracker() -> None:
    """Close this worker's copy of its parent's resource-tracker pipe.

    The tracker runs until every copy is closed, so a parent that stops
    it (perfbench does when a workload ends) would wait on a kept worker
    that still held one.  Called once the worker attaches no more shared
    memory: when it starts under ``fork``, after it re-hydrates its
    kernel otherwise.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None


def _exit_with_parent() -> None:
    """End this worker when its parent dies, kept pool or not: a dead
    parent never sends the shutdown the worker otherwise waits for."""
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _worker_init(spec: _WorkerSpec, ticket: _Ticket) -> None:
    """Build this worker's boot substrate for ``ticket``'s launch.

    The kernel is built once per worker (every launch a pool serves has
    the same one): inherited under ``fork``, otherwise re-hydrated from
    the shared memory of the launch the worker starts in.  Its substrate
    is built afresh for each launch, as a fresh pool's worker builds it.
    """
    cfg = _WORKER.get("cfg")
    if cfg is None:
        cfg = spec.cfg
        if not spec.inherit:
            relocs = ticket.relocs_blob
            kernel = replace(
                cfg.kernel,
                vmlinux=ticket.kernel_blob.bytes(),
                relocs=relocs.bytes() if relocs is not None else None,
            )
            cfg = replace(cfg, kernel=kernel)
            _leave_resource_tracker()
    _WORKER.update(cfg=cfg, vmm=_substrate(spec, cfg), generation=ticket.generation)


def _worker_substrate(ticket: _Ticket) -> tuple[VmConfig, "Firecracker"]:
    """The config and monitor of ``ticket``'s launch, built on this
    worker's first task of the launch."""
    if _WORKER.get("generation") != ticket.generation:
        _worker_init(_WORKER["spec"], ticket)
    return _WORKER["cfg"], _WORKER["vmm"]


def _worker_boot(ticket: _Ticket, index: int, seed: int, attempt: int) -> dict:
    """One boot inside a worker: :func:`_boot_record` on the worker's
    substrate for ``ticket``'s launch."""
    return _boot_record(*_worker_substrate(ticket), index, seed, attempt)


class _Pool:
    """One worker pool and the spec, start method and size it serves."""

    def __init__(self, spec: _WorkerSpec, start: str, workers: int) -> None:
        self.spec = spec
        self.start = start
        self.workers = workers
        self.executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(start),
            initializer=_worker_start,
            initargs=(spec,),
        )

    def serves(self, spec: _WorkerSpec, start: str, workers: int) -> bool:
        return (
            (self.start, self.workers) == (start, workers)
            and self.spec.cfg.kernel is spec.cfg.kernel
            and self.spec == spec
            # a worker that died between launches broke the pool
            and not self.executor._broken
        )

    def shutdown(self) -> None:
        self.executor.shutdown(wait=True, cancel_futures=True)


class _KeptPool:
    """The one pool a process executor keeps between launches."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: _Pool | None = None
        self._closed = False

    def take(self, spec: _WorkerSpec, start: str, workers: int) -> _Pool | None:
        """The kept pool, if it serves this launch; any other is shut down."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None and not pool.serves(spec, start, workers):
            pool.shutdown()
            pool = None
        return pool

    def keep(self, pool: _Pool) -> None:
        """Keep ``pool`` for the next launch; the one it displaces, or
        ``pool`` itself once closed, is shut down."""
        with self._lock:
            if self._closed:
                dropped = pool
            else:
                dropped, self._pool = self._pool, pool
        if dropped is not None:
            dropped.shutdown()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()


class ProcessBootExecutor(BootExecutor):
    """Out-of-process backend: zero-copy artifacts, replayed observability."""

    name = "process"

    def __init__(self) -> None:
        self._kept = _KeptPool()
        #: launch generations: a pool only ever serves this executor
        self._generations = itertools.count(1)
        # also runs at interpreter exit, while the executor still lives
        weakref.finalize(self, self._kept.close)

    def close(self) -> None:
        """Shut the kept pool down; later launches keep none."""
        self._kept.close()

    @contextmanager
    def launch(
        self,
        *,
        vmm: "Firecracker",
        cfg: VmConfig,
        workers: int,
        scope: CacheScope,
        telemetry: Telemetry | None,
    ) -> Iterator[_Launch]:
        if cfg.boot_format is not BootFormat.VMLINUX:
            raise MonitorError(
                "the process boot executor only supports vmlinux direct "
                "boots (bzImage containers are not shared-memory backed)"
            )
        start = os.environ.get(MP_START_ENV)
        if start is None:
            methods = multiprocessing.get_all_start_methods()
            start = "fork" if "fork" in methods else "spawn"
        spec = _spec_for(vmm, cfg, inherit=start == "fork")
        with SharedArtifactStore() as store:
            ticket = _Ticket(
                generation=next(self._generations),
                kernel_blob=store.put(cfg.kernel.vmlinux),
                relocs_blob=(
                    store.put(cfg.kernel.relocs)
                    if cfg.kernel.relocs is not None
                    else None
                ),
            )
            pool = self._kept.take(spec, start, workers) or _Pool(spec, start, workers)
            try:
                boot = partial(_worker_boot, ticket)
                yield _Launch(pool.executor, boot, vmm.artifact_cache, scope, telemetry)
            except BaseException:
                pool.shutdown()
                raise
            self._kept.keep(pool)


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
