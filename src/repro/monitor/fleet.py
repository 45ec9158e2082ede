"""Fleet instantiation through a shared monitor and boot-artifact cache.

Section 6's instantiation-rate experiment boots the same kernel image over
and over, as fast as the host allows.  :class:`FleetManager` reproduces
that workload: ``count`` concurrent boots of one monitor's configuration
run through a worker pool (:mod:`repro.monitor.executor`), with the
seed-independent parse phase served from a seeded
:class:`~repro.monitor.artifact_cache.BootArtifactCache` so only the
per-instance shuffle + offset draw + relocation pass runs on the hot path.

Determinism under concurrency: every per-boot seed is drawn up front from
``random.Random(fleet_seed)`` in launch order, each boot runs on a private
clock and cost-model clone, and its record is replayed, like the wall
clock's admissions, in fleet-index order on the caller's thread — so
neither results nor timings depend on which Python thread finished first.

Every launch also feeds the telemetry layer (:mod:`repro.telemetry`),
when the fleet or its monitor holds one:
each attempt's stage records come from its timeline via the executor,
per-boot wall windows land in the boot-event log (one Chrome-trace track
per worker), and the fleet counters and gauges (boots, retries, rate,
makespan) are what later perf PRs read their evidence from.

This module must not import :mod:`repro.analysis` (which itself imports
``repro.monitor``); the shared percentile/latency helpers live in the
dependency-free :mod:`repro.telemetry.stats`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import BootFailure, MonitorError
from repro.monitor.artifact_cache import BootArtifactCache, CacheScope, CacheStats
from repro.monitor.config import VmConfig
from repro.monitor.executor import (
    cold_boots,
    default_workers,
    gil_bound_ns,
    make_boot_executor,
)
from repro.monitor.report import BootReport
from repro.monitor.vmm import Firecracker, boot_identity
from repro.simtime.fleetclock import FleetWallClock
from repro.simtime.trace import BootStep
from repro.telemetry import Telemetry
from repro.telemetry.stats import StageLatency, latency_summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.security.audit import KaslrAuditor

__all__ = [
    "FLEET_STAGES",
    "FleetBoot",
    "FleetManager",
    "FleetReport",
]

#: per-boot stage buckets over the fine-grained trace steps; "total" is
#: added separately so every report always carries at least one stage
FLEET_STAGES: dict[str, tuple[BootStep, ...]] = {
    "monitor_startup": (BootStep.MONITOR_STARTUP,),
    "image_read": (BootStep.MONITOR_IMAGE_READ,),
    "parse": (BootStep.MONITOR_ELF_PARSE, BootStep.LOADER_ELF_PARSE),
    "randomize": (
        BootStep.MONITOR_RNG,
        BootStep.MONITOR_SHUFFLE,
        BootStep.MONITOR_RELOCATE,
        BootStep.MONITOR_TABLE_FIXUP,
        BootStep.LOADER_RNG,
        BootStep.LOADER_SHUFFLE,
        BootStep.LOADER_RELOCATE,
        BootStep.LOADER_TABLE_FIXUP,
    ),
    "segment_load": (BootStep.MONITOR_SEGMENT_LOAD, BootStep.LOADER_SEGMENT_LOAD),
    "bootstrap": (
        BootStep.LOADER_INIT,
        BootStep.LOADER_HEAP_ZERO,
        BootStep.LOADER_COPY_KERNEL,
        BootStep.LOADER_DECOMPRESS,
        BootStep.LOADER_JUMP,
    ),
    "vm_setup": (
        BootStep.MONITOR_BOOT_PARAMS,
        BootStep.MONITOR_PAGETABLE,
        BootStep.MONITOR_GUEST_ENTRY,
    ),
    "linux_boot": (
        BootStep.KERNEL_MEM_INIT,
        BootStep.KERNEL_INIT,
        BootStep.KERNEL_RUN_INIT,
    ),
}


@dataclass(frozen=True)
class FleetBoot:
    """One instance of the fleet: its boot outcome and wall-clock window."""

    index: int
    seed: int
    total_ms: float
    voffset: int
    wall_start_ms: float
    wall_end_ms: float
    report: BootReport
    #: which fleet worker slot the wall-clock model scheduled this boot on
    worker: int = 0

    @property
    def boot_id(self) -> str:
        return boot_identity(self.report.kernel_name, self.seed)


@dataclass(frozen=True)
class FleetReport:
    """What one fleet launch produced, for figures and regression gates."""

    kernel_name: str
    mode: str
    n_vms: int
    workers: int
    boots: tuple[FleetBoot, ...]
    stages: Mapping[str, StageLatency]
    cache: CacheStats
    serial_ms: float
    makespan_ms: float
    #: failure containment: boots that never succeeded (one terminal
    #: :class:`~repro.errors.BootFailure` per permanently failed index)
    #: and how many retry attempts the launch spent overall
    failures: tuple[BootFailure, ...] = ()
    retries: int = 0
    #: which boot backend ran the launch ("thread" | "process")
    executor: str = "thread"

    @property
    def speedup(self) -> float:
        return self.serial_ms / self.makespan_ms if self.makespan_ms else 1.0

    @property
    def rate_per_s(self) -> float:
        """Instantiation rate: fleet size over wall-clock seconds."""
        return self.n_vms / (self.makespan_ms / 1e3) if self.makespan_ms else 0.0

    # -- engine model (the BENCH_fleet_mp evidence) ----------------------------

    @property
    def gil_bound_ms(self) -> float:
        """Serialized work: timeline steps that hold the GIL, fleet-wide."""
        return sum(
            gil_bound_ns(boot.report.timeline) for boot in self.boots
        ) / 1e6

    @property
    def engine_makespan_ms(self) -> float:
        """Modeled wall makespan of the backend that ran this launch.

        A thread engine cannot finish before the GIL-bound work has run
        end to end on one interpreter, so its makespan is bounded below
        by :attr:`gil_bound_ms`; a process engine spreads that work
        across workers and keeps the scheduler's makespan.
        """
        if self.executor == "thread":
            return max(self.makespan_ms, self.gil_bound_ms)
        return self.makespan_ms

    @property
    def engine_rate_per_s(self) -> float:
        """Modeled instantiation rate under the engine makespan."""
        makespan = self.engine_makespan_ms
        return self.n_vms / (makespan / 1e3) if makespan else 0.0

    @property
    def unique_voffsets(self) -> int:
        return len({boot.voffset for boot in self.boots})

    @property
    def unique_layouts(self) -> int:
        """Distinct (voffset, section order) pairs across the fleet."""
        return len(
            {
                (boot.voffset, tuple(boot.report.layout.moved))
                for boot in self.boots
            }
        )

    def summary(self) -> str:
        text = (
            f"{self.kernel_name} fleet: {self.n_vms} VMs / {self.workers} workers"
            f" ({self.mode}) | wall {self.makespan_ms:.1f} ms"
            f" (serial {self.serial_ms:.1f}, x{self.speedup:.2f})"
            f" | {self.rate_per_s:.1f} VMs/s"
            f" | cache {self.cache.hits}h/{self.cache.misses}m"
            f"/{self.cache.evictions}e ({self.cache.hit_rate * 100:.1f}% hit)"
        )
        if self.failures or self.retries:
            text += (
                f" | {len(self.failures)} failed, {self.retries} retried"
            )
        return text

    def to_json(self) -> dict:
        """A JSON-serializable view of the launch (``repro fleet --json``)."""
        data = {
            "kernel": self.kernel_name,
            "mode": self.mode,
            "n_vms": self.n_vms,
            "workers": self.workers,
            "executor": self.executor,
            "serial_ms": self.serial_ms,
            "makespan_ms": self.makespan_ms,
            "speedup": self.speedup,
            "rate_per_s": self.rate_per_s,
            "engine": {
                "gil_bound_ms": self.gil_bound_ms,
                "makespan_ms": self.engine_makespan_ms,
                "rate_per_s": self.engine_rate_per_s,
            },
            "unique_voffsets": self.unique_voffsets,
            "unique_layouts": self.unique_layouts,
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "entries": self.cache.entries,
                "lookups": self.cache.lookups,
                "hit_rate": self.cache.hit_rate,
                "disk_hits": self.cache.disk_hits,
                "parses": self.cache.parses,
            },
            "stages": {
                name: {
                    "p50_ms": lat.p50_ms,
                    "p99_ms": lat.p99_ms,
                    "mean_ms": lat.mean_ms,
                    "max_ms": lat.max_ms,
                }
                for name, lat in self.stages.items()
            },
            "boots": [
                {
                    "index": boot.index,
                    "seed": boot.seed,
                    "total_ms": boot.total_ms,
                    "voffset": boot.voffset,
                    "wall_start_ms": boot.wall_start_ms,
                    "wall_end_ms": boot.wall_end_ms,
                    "worker": boot.worker,
                }
                for boot in self.boots
            ],
        }
        # only fault-touched launches carry the containment keys, so a
        # seeded launch with no plan stays byte-identical to the pre-fault
        # JSON shape (the disabled-overhead contract)
        if self.failures or self.retries:
            data["failures"] = [f.to_json() for f in self.failures]
            data["retries"] = self.retries
        return data

    def stage_rows(self) -> list[list[str]]:
        """Table rows (stage, p50, p99, mean, max) for the CLI/benchmarks."""
        return [
            [
                lat.stage,
                f"{lat.p50_ms:.3f}",
                f"{lat.p99_ms:.3f}",
                f"{lat.mean_ms:.3f}",
                f"{lat.max_ms:.3f}",
            ]
            for lat in self.stages.values()
        ]


def _stage_latencies(reports: Sequence[BootReport]) -> dict[str, StageLatency]:
    if not reports:
        # every boot failed: no samples exist, and latency_summary now
        # refuses to fabricate an all-zero row from an empty sample set
        return {}
    totals = [report.timeline.step_totals_ns() for report in reports]
    stages: dict[str, StageLatency] = {}
    for stage, steps in FLEET_STAGES.items():
        samples = [sum(t.get(s, 0) for s in steps) / 1e6 for t in totals]
        if not any(samples):
            continue  # stage never ran (e.g. loader stages on a vmlinux fleet)
        stages[stage] = latency_summary(stage, samples)
    stages["total"] = latency_summary("total", [r.total_ms for r in reports])
    return stages


class FleetManager:
    """Boots fleets of microVMs for one monitor.

    The monitor gains a :class:`BootArtifactCache` if it does not already
    hold one — a fleet is exactly the workload the cache exists for.
    The process executor keeps its worker pool between launches;
    :meth:`close` (or leaving a ``with`` block) shuts it down, as do
    collecting the manager and interpreter exit.
    """

    def __init__(
        self,
        vmm: Firecracker,
        workers: int | None = None,
        telemetry: Telemetry | None = None,
        auditor: "KaslrAuditor | None" = None,
        executor: str = "thread",
    ) -> None:
        if workers is None:
            workers = default_workers(8)
        if workers < 1:
            raise MonitorError(f"fleet needs at least one worker, got {workers}")
        self.vmm = vmm
        self.workers = workers
        self.telemetry = telemetry
        #: boot backend: a name ("thread" | "process") or any object with
        #: the executor interface (a ``launch`` context manager, ``close``)
        if isinstance(executor, str):
            executor = make_boot_executor(executor)
        self.executor = executor
        #: optional KASLR auditor; fed one layout fingerprint per boot
        self.auditor = auditor
        if vmm.artifact_cache is None:
            vmm.artifact_cache = BootArtifactCache()

    def close(self) -> None:
        """Release what the executor keeps between launches."""
        self.executor.close()

    def __enter__(self) -> "FleetManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _telemetry(self) -> Telemetry | None:
        """Scoping: the fleet's own, else the monitor's, else none."""
        return self.telemetry if self.telemetry is not None else self.vmm.telemetry

    def launch(
        self,
        cfg: VmConfig,
        count: int,
        fleet_seed: int = 0,
        seeds: Sequence[int] | None = None,
        warm: bool = True,
        retries: int = 1,
    ) -> FleetReport:
        """Boot ``count`` instances of ``cfg``, each with its own seed.

        ``seeds`` overrides the per-instance seeds; otherwise they are drawn
        up front from ``random.Random(fleet_seed)``.  ``warm`` models the
        paper's warm-up boots: the host page cache and the artifact cache
        are primed before measurement, so the counters in the returned
        report cover only the fleet itself.  A cold launch boots its first
        VMs alone until one parses; that parse seeds the monitor's cache,
        so every later boot hits on any executor and worker count.

        Failure containment: one boot raising no longer aborts the fleet.
        Each failed boot is captured as a :class:`BootFailure` and retried
        with a fresh seed up to ``retries`` times (seeds redrawn from a
        dedicated ``random.Random`` stream in fleet-index order, so the
        outcome is deterministic regardless of thread scheduling); boots
        that exhaust the budget land in ``FleetReport.failures`` and the
        fleet completes with the survivors.  A process worker that dies
        takes its pool with it, and the launch raises
        :class:`~repro.errors.WorkerPoolBroken`; the next launch starts a
        fresh pool.
        """
        if count < 1:
            raise MonitorError(f"fleet needs at least one VM, got {count}")
        if retries < 0:
            raise MonitorError(f"retry budget cannot be negative: {retries}")
        if seeds is None:
            rng = random.Random(fleet_seed)
            seeds = [rng.getrandbits(64) for _ in range(count)]
        elif len(seeds) != count:
            raise MonitorError(
                f"fleet of {count} VMs given {len(seeds)} seeds"
            )
        cache = self.vmm.artifact_cache
        assert cache is not None  # installed in __init__
        if warm:
            # warm_caches primes the artifact cache entry every boot
            # substrate is seeded with (and the site plans forked workers
            # inherit); the priming itself stays outside the launch scope,
            # so the report's cache stats cover only the fleet's own boots
            self.vmm.warm_caches(cfg)
        # per-launch attribution scope: every boot notes its cache
        # activity here, so concurrent launches sharing one cache each
        # report exactly their own traffic (a before/after stats() delta
        # would blend them)
        scope = CacheScope()

        telemetry = self._telemetry()
        seeds_used = list(seeds)
        reports, failures, total_retries = self._boot_waves(
            cfg, seeds_used, retries, telemetry, scope, warm
        )

        wall = FleetWallClock(self.workers)
        boots = []
        succeeded = [
            (index, seed, report)
            for index, (seed, report) in enumerate(zip(seeds_used, reports))
            if report is not None
        ]
        for index, seed, report in succeeded:
            window = wall.schedule(report.timeline.total_ns)
            boots.append(
                FleetBoot(
                    index=index,
                    seed=seed,
                    total_ms=report.total_ms,
                    voffset=report.layout.voffset,
                    wall_start_ms=window.start_ns / 1e6,
                    wall_end_ms=window.end_ns / 1e6,
                    report=report,
                    worker=window.worker,
                )
            )
            # fleet-index order, after the parallel section: the telemetry
            # feed is deterministic regardless of thread scheduling
            if telemetry is not None:
                telemetry.boot_window(
                    boot_identity(cfg.kernel.name, seed),
                    worker=window.worker,
                    start_ns=window.start_ns,
                    duration_ns=window.duration_ns,
                    detail=f"fleet index {index}",
                )
                telemetry.registry.counter(
                    "repro_fleet_boots_total", help="Boots launched by fleets"
                ).inc()
            if self.auditor is not None:
                self.auditor.record(
                    boot_identity(cfg.kernel.name, seed),
                    strategy=str(cfg.randomize),
                    t_ns=window.end_ns,
                    layout=report.layout,
                )
        if telemetry is not None:
            telemetry.registry.counter(
                "repro_fleet_launches_total", help="Fleet launches"
            ).inc()
            telemetry.registry.gauge(
                "repro_fleet_makespan_ms",
                help="Wall-clock makespan of the last fleet",
            ).set(wall.makespan_ms)
            telemetry.registry.gauge(
                "repro_fleet_rate_vms_per_s",
                help="Instantiation rate of the last fleet",
            ).set(
                len(succeeded) / (wall.makespan_ms / 1e3)
                if wall.makespan_ms
                else 0.0
            )
        return FleetReport(
            kernel_name=cfg.kernel.name,
            mode=str(cfg.randomize),
            n_vms=count,
            workers=self.workers,
            boots=tuple(boots),
            stages=_stage_latencies([report for _, _, report in succeeded]),
            cache=scope.snapshot(entries=cache.stats().entries),
            serial_ms=wall.serial_ms,
            makespan_ms=wall.makespan_ms,
            failures=tuple(failures),
            retries=total_retries,
            executor=self.executor.name,
        )

    def _boot_waves(
        self,
        cfg: VmConfig,
        seeds_used: list[int],
        retries: int,
        telemetry: Telemetry | None,
        scope: CacheScope,
        warm: bool,
    ) -> tuple[list[BootReport | None], list[BootFailure], int]:
        """Boot every index, containing failures and retrying in waves.

        One executor launch brackets *all* waves: wave 0 submits every
        boot, each later wave resubmits the indices that failed — on the
        same worker pool, so retries reuse workers instead of paying
        pool (or worker-process) churn per wave; the process executor
        hands that pool on to the next launch, too.  Fresh retry seeds are
        drawn in sorted-index order from a dedicated stream.  Outcomes
        are collected, and so replayed, per future in fleet-index order
        (never ``pool.map``), so one raising boot cannot abort the others,
        and all retry decisions happen between waves on the caller's
        thread — results are a pure function of (cfg, seeds, retry stream).
        """
        count = len(seeds_used)
        # the retry stream is independent of the launch stream (so a
        # no-failure launch consumes exactly the pre-containment draws)
        # and keyed on a stable digest of the initial seeds — never on
        # hash(), whose string randomization varies per process
        digest = hashlib.sha256(
            ("retry:" + ",".join(str(s) for s in seeds_used)).encode()
        ).digest()
        retry_rng = random.Random(int.from_bytes(digest[:8], "big"))
        reports: list[BootReport | None] = [None] * count
        last_failure: dict[int, BootFailure] = {}
        pending = [(index, replace(cfg, seed=seed)) for index, seed in enumerate(seeds_used)]
        total_retries = 0
        # a cold launch boots its first VMs alone until one parses; the
        # parse seeds the monitor's cache, so the fan-out starts warm
        first = [] if warm else cold_boots(self.vmm, cfg, seeds_used, scope, telemetry)
        with self.executor.launch(
            vmm=self.vmm,
            cfg=cfg,
            workers=self.workers,
            scope=scope,
            telemetry=telemetry,
        ) as pool:
            for attempt in range(retries + 1):
                if not pending:
                    break
                wave_failures: dict[int, BootFailure] = {}
                futures = first + [
                    pool.submit(boot_cfg, index, attempt)
                    for index, boot_cfg in pending[len(first):]
                ]
                first = []
                for (index, _), future in zip(pending, futures):
                    try:
                        reports[index] = future.result()
                    except BootFailure as failure:  # contained, never fatal
                        # kept as data: its traceback would hold this frame,
                        # and with it the manager and its kept worker pool
                        wave_failures[index] = failure.with_traceback(None)
                pending = []
                for index in sorted(wave_failures):
                    last_failure[index] = wave_failures[index]
                    if attempt < retries:
                        fresh_seed = retry_rng.getrandbits(64)
                        seeds_used[index] = fresh_seed
                        pending.append((index, replace(cfg, seed=fresh_seed)))
                        total_retries += 1
                        if telemetry is not None:
                            telemetry.registry.counter(
                                "repro_fleet_retries_total",
                                help="Fleet boot retry attempts",
                            ).inc()
        failures = [last_failure[index] for index in sorted(last_failure) if reports[index] is None]
        return reports, failures, total_retries
