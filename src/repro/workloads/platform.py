"""A serverless platform over the simulated monitor.

One instance per invocation (the microVM model the paper targets):
``produce`` manufactures the instance — cold boot, zygote restore, or
rebase-on-restore — and ``handle`` runs the function against the
instance's real layout, recording end-to-end latency.
``instantiation_rate_per_s`` is the Section 5.2 metric: how many
instances one serial monitor thread can produce per second under each
strategy.

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
from dataclasses import dataclass, field
from statistics import mean
from typing import Callable

from repro.errors import BootFailure, MonitorError
from repro.kernel.image import KernelImage
from repro.lebench.runner import layout_key
from repro.monitor.config import VmConfig
from repro.monitor.vm_handle import MicroVm
from repro.monitor.vmm import Firecracker
from repro.snapshot.checkpoint import SnapshotManager
from repro.workloads.functions import FunctionSpec, lebench_ns


class InstanceStrategy(enum.Enum):
    """How the platform produces a fresh instance per invocation."""

    COLD_BOOT = "cold-boot"
    RESTORE = "restore"  # shared zygote (layout reused!)
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

    ``degraded`` marks a warm (restore) production that failed —
    injected fault or organic — and fell back to a cold boot; the
    startup latency then reflects the full failed-restore + cold-boot
    path, which is exactly the tail the serve SLO report must see.
    """

    vm: MicroVm
    startup_ms: float
    degraded: bool = False

    @property
    def layout_offset(self) -> int:
        return self.vm.layout.voffset


@dataclass
class ServerlessPlatform:
    """Per-invocation microVM platform."""

    vmm: Firecracker
    cfg_factory: Callable[[int], VmConfig]
    strategy: InstanceStrategy = InstanceStrategy.COLD_BOOT
    records: list[InvocationRecord] = field(default_factory=list)
    _snapshot: object | None = None
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

    def setup(self) -> None:
        """Prepare the platform (boot + snapshot the zygote if needed)."""
        if self.strategy is InstanceStrategy.COLD_BOOT:
            return
        cfg = self.cfg_factory(0)
        self.vmm.warm_caches(cfg)
        _report, vm = self.vmm.boot_vm(cfg)
        # the manager inherits the monitor's fault plan: restore-stage
        # faults fire for warm productions, and the cold fallback runs
        # under the same plan (a fully poisoned plan still fails)
        self._manager = SnapshotManager(
            self.vmm.costs,
            telemetry=self.vmm.telemetry,
            fault_plan=self.vmm.fault_plan,
        )
        self._snapshot = self._manager.capture(vm)
        self.setup_ms = vm.clock.elapsed_ms()

    def _cold_instance(
        self, seed: int, boot_index: int, attempt: int
    ) -> tuple[MicroVm, float]:
        cfg = self.cfg_factory(seed)
        self.vmm.warm_caches(cfg)
        report, vm = self.vmm.boot_vm(
            cfg, boot_index=boot_index, attempt=attempt
        )
        return vm, report.total_ms

    def produce(
        self, seed: int, *, boot_index: int = 0
    ) -> ProducedInstance:
        """Manufacture one instance under the current strategy.

        Warm strategies degrade: a restore that raises
        :class:`~repro.errors.BootFailure` (e.g. an injected
        ``snapshot_restore``/``rebase`` fault) falls back to a cold boot
        of the same seed, so the instance's startup latency jumps from
        restore-scale to boot-scale — the cold-start tail the serve SLO
        report must see.  A cold production that fails propagates —
        there is nothing left to degrade to.
        """
        if self.strategy is InstanceStrategy.COLD_BOOT:
            vm, startup_ms = self._cold_instance(seed, boot_index, attempt=0)
            return ProducedInstance(vm=vm, startup_ms=startup_ms)
        if self._snapshot is None or self._manager is None:
            raise MonitorError("platform not set up; call setup() first")
        try:
            if self.strategy is InstanceStrategy.RESTORE_REBASE:
                vm, startup_ms = self._manager.restore_rebased(
                    self._snapshot, seed=seed, boot_index=boot_index
                )
            else:
                vm, startup_ms = self._manager.restore(
                    self._snapshot, boot_index=boot_index
                )
            return ProducedInstance(vm=vm, startup_ms=startup_ms)
        except BootFailure as exc:
            self.degraded_count += 1
            self._count_degraded(exc)
            vm, cold_ms = self._cold_instance(seed, boot_index, attempt=1)
            return ProducedInstance(vm=vm, startup_ms=cold_ms, degraded=True)

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
