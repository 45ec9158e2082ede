"""A serverless platform over the simulated monitor.

One instance per invocation (the microVM model the paper targets):
``produce`` manufactures the instance — cold boot, zygote restore, or
rebase-on-restore — and ``handle`` runs the function against the
instance's real layout, recording end-to-end latency.
``instantiation_rate_per_s`` is the Section 5.2 metric: how many
instances one serial monitor thread can produce per second under each
strategy.

The warm strategies cover Section 7's three ways to make instances from
snapshots.  ``restore`` with one zygote is the SAND-style shared zygote
(every clone shares its layout: ASLR nullified); ``restore`` with
``zygotes=N`` is a Morula-style pool of N diversely randomized zygotes,
restored round-robin (N layouts for N boots of up-front cost);
``restore-rebase`` moves each clone to a fresh offset, which only a
monitor holding the relocation table can do.

The platform is also the *per-invocation backend* of the serve control
plane (:mod:`repro.serve`): the engine leases instances out of warm
pools instead of calling ``handle`` inline, and samples its production
and invocation costs through :meth:`ServerlessPlatform.produce`.
Production is fault-plan aware — when a warm restore dies on an
injected fault, the platform degrades that instance to a cold boot
rather than failing the pool, mirroring how real control planes fall
back when a snapshot is unusable.

Invocation latency comes from :meth:`ServerlessPlatform.invoke_ns`,
which runs LEBench once per cache-equivalent layout
(:func:`~repro.lebench.runner.layout_key`) and keeps the result for the
platform's lifetime: every base-KASLR layout of a kernel shares one run,
and restore clones and rebases share their zygote's.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field, replace
from statistics import mean
from typing import Callable

from repro.errors import BootFailure, MonitorError
from repro.kernel.image import KernelImage
from repro.lebench.runner import layout_key
from repro.monitor.config import VmConfig
from repro.monitor.vm_handle import MicroVm
from repro.monitor.vmm import Firecracker
from repro.simtime.trace import StageSpan, Timeline
from repro.snapshot.checkpoint import Snapshot, SnapshotManager
from repro.workloads.functions import FunctionSpec, lebench_ns


class InstanceStrategy(enum.Enum):
    """How the platform produces a fresh instance per invocation."""

    COLD_BOOT = "cold-boot"
    RESTORE = "restore"  # zygote layouts reused (one zygote: ASLR nullified)
    RESTORE_REBASE = "restore-rebase"  # fresh offset per instance

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class InvocationRecord:
    """One handled request."""

    function: str
    startup_ms: float  # boot or acquire latency
    invoke_ms: float  # function execution on the instance
    layout_offset: int

    @property
    def total_ms(self) -> float:
        return self.startup_ms + self.invoke_ms


@dataclass(frozen=True)
class ProducedInstance:
    """One manufactured instance: the live guest and what it cost.

    ``degraded`` marks a warm (restore) production whose restore failed
    on an injected fault and fell back to a cold boot.  Its startup
    latency is the aborted restore's simulated time plus the cold
    boot's.  ``spans`` are the production's stage spans in order: a
    degraded production lists the aborted restore's completed stages,
    then the cold boot's, shifted to start where the restore stopped.
    """

    vm: MicroVm
    startup_ms: float
    spans: tuple[StageSpan, ...]
    degraded: bool = False

    @property
    def layout_offset(self) -> int:
        return self.vm.layout.voffset


def _produced(vm: MicroVm, aborted: Timeline | None = None) -> ProducedInstance:
    """The instance ``vm``, after the aborted restore ``aborted`` if any."""
    spans = tuple(vm.clock.timeline.spans)
    if aborted is None:
        return ProducedInstance(vm=vm, startup_ms=vm.clock.elapsed_ms(), spans=spans)
    paid = aborted.total_ns
    shifted = (
        replace(span, start_ns=span.start_ns + paid, end_ns=span.end_ns + paid)
        for span in spans
    )
    return ProducedInstance(
        vm=vm,
        startup_ms=(paid + vm.clock.now_ns) / 1e6,
        spans=(*aborted.spans, *shifted),
        degraded=True,
    )


@dataclass
class ServerlessPlatform:
    """Per-invocation microVM platform."""

    vmm: Firecracker
    cfg_factory: Callable[[int], VmConfig]
    strategy: InstanceStrategy = InstanceStrategy.COLD_BOOT
    #: zygotes a warm strategy boots (``cfg_factory(0 .. zygotes-1)``)
    #: and restores round-robin; cold boots ignore it
    zygotes: int = 1
    records: list[InvocationRecord] = field(default_factory=list)
    _snapshots: list[Snapshot] = field(default_factory=list, repr=False)
    _next: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _manager: SnapshotManager | None = None
    setup_ms: float = 0.0
    #: warm productions that degraded to cold boots (fault fallback)
    degraded_count: int = 0
    #: (kernel id, layout key) -> (kernel, per-test LEBench ns); holding
    #: the kernel keeps its id from being reused under a live key.  Owned
    #: by the platform, not the process, so each serve call prices its
    #: own layouts.
    _lebench: dict[tuple, tuple[KernelImage, dict[str, float]]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.zygotes < 1:
            raise MonitorError(
                f"a platform needs at least one zygote, got {self.zygotes}"
            )

    def setup(self) -> None:
        """Boot and snapshot the zygotes a warm strategy restores.

        Rebuilds from scratch on every call (a failed zygote boot leaves
        the previous zygotes in place); ``setup_ms`` is the summed boot +
        capture cost of all zygotes.
        """
        if self.strategy is InstanceStrategy.COLD_BOOT:
            return
        # the manager inherits the monitor's fault plan: restore-stage
        # faults fire for warm productions, and the cold fallback runs
        # under the same plan (a fully poisoned plan still fails)
        manager = SnapshotManager.for_monitor(self.vmm)
        snapshots = []
        setup_ms = 0.0
        for index in range(self.zygotes):
            cfg = self.cfg_factory(index)
            self.vmm.warm_caches(cfg)
            _report, vm = self.vmm.boot_vm(cfg)
            snapshots.append(manager.capture(vm))
            setup_ms += vm.clock.elapsed_ms()
        self._manager, self._snapshots, self._next = manager, snapshots, 0
        self.setup_ms = setup_ms

    def _next_zygote(self) -> Snapshot:
        """The zygote the next warm production restores (round-robin)."""
        with self._lock:
            index = self._next % len(self._snapshots)
            self._next += 1
        return self._snapshots[index]

    def _cold_instance(self, seed: int, boot_index: int, attempt: int) -> MicroVm:
        cfg = self.cfg_factory(seed)
        self.vmm.warm_caches(cfg)
        _report, vm = self.vmm.boot_vm(cfg, boot_index=boot_index, attempt=attempt)
        return vm

    def produce(
        self, seed: int, *, boot_index: int = 0
    ) -> ProducedInstance:
        """Manufacture one instance under the current strategy.

        Warm strategies degrade: a restore that raises
        :class:`~repro.errors.BootFailure` (an injected
        ``snapshot_restore``/``rebase`` fault) falls back to a cold boot
        of the same seed, so the instance's startup latency jumps from
        restore-scale to boot-scale — the cold-start tail the serve SLO
        report must see.  A cold production that fails propagates —
        there is nothing left to degrade to.
        """
        if self.strategy is InstanceStrategy.COLD_BOOT:
            return _produced(self._cold_instance(seed, boot_index, attempt=0))
        if not self._snapshots or self._manager is None:
            raise MonitorError("platform not set up; call setup() first")
        snapshot = self._next_zygote()
        try:
            if self.strategy is InstanceStrategy.RESTORE_REBASE:
                vm, _ms = self._manager.restore_rebased(
                    snapshot, seed=seed, boot_index=boot_index
                )
            else:
                vm, _ms = self._manager.restore(snapshot, boot_index=boot_index)
            return _produced(vm)
        except BootFailure as exc:
            self.degraded_count += 1
            self._count_degraded(exc)
            vm = self._cold_instance(seed, boot_index, attempt=1)
            # the restore pipeline stamped its aborted timeline on the fault
            return _produced(vm, aborted=exc.__cause__.boot_timeline)

    def _count_degraded(self, failure: BootFailure) -> None:
        telemetry = self.vmm.telemetry
        if telemetry is None:
            return
        telemetry.registry.counter(
            "repro_platform_degraded_total",
            help="Warm productions degraded to cold boots",
            stage=failure.stage,
            kind=failure.kind,
        ).inc()

    def _instance(self, seed: int):
        produced = self.produce(seed)
        return produced.vm, produced.startup_ms

    def invoke_ns(self, vm: MicroVm, spec: FunctionSpec) -> float:
        """Simulated time for one invocation of ``spec`` on ``vm``.

        LEBench runs once per cache-equivalent layout of each kernel;
        every later instance in the same class reuses that run.
        """
        kernel = vm.kernel
        key = (id(kernel), layout_key(kernel, vm.layout))
        entry = self._lebench.get(key)
        if entry is None:
            entry = self._lebench[key] = (kernel, lebench_ns(kernel, vm.layout))
        return spec.invoke_ns(entry[1])

    def handle(self, spec: FunctionSpec, seed: int) -> InvocationRecord:
        """Serve one invocation on a fresh instance."""
        vm, startup_ms = self._instance(seed)
        invoke_ms = self.invoke_ns(vm, spec) / 1e6
        record = InvocationRecord(
            function=spec.name,
            startup_ms=startup_ms,
            invoke_ms=invoke_ms,
            layout_offset=vm.layout.voffset,
        )
        self.records.append(record)
        return record

    # -- metrics ---------------------------------------------------------------
    #
    # Empty-records contract: all three metrics require at least one
    # handled invocation.  ``layout_diversity`` used to return 0 on an
    # empty record set while its siblings raised — a "zero diversity"
    # reading that was really "no data", which a security regression
    # gate would happily wave through.

    def _require_records(self) -> list[InvocationRecord]:
        if not self.records:
            raise MonitorError("no invocations handled yet")
        return self.records

    def instantiation_rate_per_s(self) -> float:
        """Instances per second a serial monitor thread sustains."""
        return 1000.0 / mean(r.startup_ms for r in self._require_records())

    def mean_total_ms(self) -> float:
        return mean(r.total_ms for r in self._require_records())

    def layout_diversity(self) -> int:
        return len({r.layout_offset for r in self._require_records()})
