"""VM snapshot capture and copy-on-write restore.

Models the Firecracker snapshot flow the zygote literature builds on:
capture serializes the resident guest pages (charged at snapshot-write
throughput), restore creates a new VM whose memory is a chunk-granular
copy-on-write clone of the frozen image (a millisecond-scale constant plus
per-MiB mapping cost — orders of magnitude cheaper than a boot).

Restores execute through the staged boot pipeline
(:func:`repro.pipeline.build_restore_pipeline`): plain restore is the
single ``snapshot_restore`` stage; ``restore_rebased`` appends the
``rebase`` stage, which gives the clone a *fresh* KASLR offset by applying
the offset delta through the relocation table and rebuilding the early
page tables — cheap re-randomization that only an in-monitor design can
offer, since the monitor is the party holding ``vmlinux.relocs``.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.core.layout_result import LayoutResult
from repro.core.policy import RandomizationPolicy
from repro.errors import BootFailure, InjectedFault, MonitorError
from repro.faults.plan import FaultPlan
from repro.kernel.image import KernelImage
from repro.monitor.vm_handle import MicroVm
from repro.monitor.vmm import Firecracker, record_boot
from repro.pipeline import StageContext, build_restore_pipeline
from repro.simtime.clock import SimClock
from repro.simtime.costs import CostModel
from repro.simtime.trace import BootCategory, BootStep
from repro.telemetry import Telemetry


@dataclass
class Snapshot:
    """A frozen, restorable image of one booted microVM."""

    kernel: KernelImage
    frozen: dict[int, bytes]
    layout: LayoutResult
    mem_size: int
    resident_bytes: int
    cr3: int
    capture_ms: float
    pt_tables_bytes: int = 0

    def restore_count(self) -> int:
        return self._restores

    _restores: int = field(default=0, repr=False)
    # one snapshot may serve concurrent restores
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


@dataclass
class SnapshotManager:
    """Captures snapshots and restores CoW clones via the restore pipeline."""

    costs: CostModel
    policy: RandomizationPolicy = field(default_factory=RandomizationPolicy)
    #: where captures and restores are recorded (None records nothing);
    #: restores reach its cost profile, when it has one
    telemetry: Telemetry | None = None
    #: seeded fault injection at restore-stage boundaries (None = zero
    #: overhead); targetable stages are ``snapshot_restore`` and ``rebase``
    fault_plan: FaultPlan | None = None

    @classmethod
    def for_monitor(cls, vmm: Firecracker) -> "SnapshotManager":
        """The manager for ``vmm``'s snapshots: its costs, its telemetry and
        its fault plan, so restore-stage faults fire and restores record
        where the monitor's boots do."""
        return cls(vmm.costs, telemetry=vmm.telemetry, fault_plan=vmm.fault_plan)

    def capture(self, vm: MicroVm) -> Snapshot:
        """Freeze a booted VM; charges capture time on the VM's clock."""
        resident = vm.memory.resident_bytes
        duration = self.costs.snapshot_capture_ns(resident)
        vm.clock.charge(
            duration,
            category=BootCategory.IN_MONITOR,
            step=BootStep.MONITOR_STARTUP,
            label=f"snapshot capture ({resident >> 20} MiB resident)",
        )
        if self.telemetry is not None:
            self.telemetry.registry.counter(
                "repro_snapshot_captures_total", help="Snapshots captured"
            ).inc()
        return Snapshot(
            kernel=vm.kernel,
            frozen=vm.memory.freeze(),
            layout=vm.layout.clone(),
            mem_size=vm.memory.size,
            resident_bytes=resident,
            cr3=vm.walker.cr3,
            capture_ms=duration / 1e6,
            pt_tables_bytes=vm.pt_tables_bytes,
        )

    # -- restore paths ---------------------------------------------------------

    def restore(
        self, snapshot: Snapshot, *, boot_index: int = 0, attempt: int = 0
    ) -> tuple[MicroVm, float]:
        """Restore a CoW clone; returns (vm, restore latency in ms)."""
        return self._run_restore(
            snapshot, rebase=False, seed=0,
            boot_index=boot_index, attempt=attempt,
        )

    def restore_rebased(
        self, snapshot: Snapshot, seed: int, *,
        boot_index: int = 0, attempt: int = 0,
    ) -> tuple[MicroVm, float]:
        """Restore a clone *and* move it to a fresh KASLR offset.

        Applies the offset delta through the kernel's relocation table,
        rewrites the zero page's advertised offset, and rebuilds the early
        page tables so the new virtual base maps the unmoved physical
        image.  Only valid for base-KASLR guests (see
        :mod:`repro.core.rerandomize`).
        """
        # Validate before charging anything: a reloc-less kernel must fail
        # without touching the clock or the restore counter.
        if snapshot.kernel.reloc_table is None:
            raise MonitorError(
                f"{snapshot.kernel.name} carries no relocation info; "
                "cannot rebase a restored clone"
            )
        return self._run_restore(
            snapshot, rebase=True, seed=seed,
            boot_index=boot_index, attempt=attempt,
        )

    def _run_restore(
        self, snapshot: Snapshot, rebase: bool, seed: int,
        boot_index: int = 0, attempt: int = 0,
    ) -> tuple[MicroVm, float]:
        telemetry = self.telemetry
        clock = SimClock()
        # the index/attempt suffix keeps restore identities distinct even
        # when the rebase seed repeats (plain restores always use seed 0):
        # rate-based fault draws are per boot_id, so identical ids would
        # collapse a whole pool's restores into one shared coin flip
        boot_id = (
            f"restore:{snapshot.kernel.name}:{seed:016x}"
            f":{boot_index}:{attempt}"
        )
        ctx = StageContext(
            clock=clock,
            costs=self.costs,
            rng=random.Random(seed),
            snapshot=snapshot,
            policy=self.policy,
            boot_id=boot_id,
            fault_plan=self.fault_plan,
            boot_index=boot_index,
            attempt=attempt,
        )
        try:
            build_restore_pipeline(rebase=rebase).run(ctx)
        except InjectedFault as exc:
            # same containment contract as Firecracker.boot_vm: an
            # injected restore fault surfaces as a typed, attributed
            # BootFailure the platform can degrade on
            raise BootFailure(
                str(exc),
                boot_id=boot_id,
                stage=exc.boot_stage,
                kind=exc.fault_kind,
                attempt=attempt,
                index=boot_index,
                seed=seed,
            ) from exc
        finally:
            # a restore records only its stages, aborted or not: no boot
            # counters, no failure counter
            record_boot(telemetry, boot_id, clock.timeline)
        with snapshot._lock:
            snapshot._restores += 1
        if telemetry is not None:
            telemetry.registry.counter(
                "repro_snapshot_restores_total", help="Snapshot restores"
            ).inc()
            if rebase:
                telemetry.registry.counter(
                    "repro_snapshot_rebases_total",
                    help="Restores rebased to a fresh KASLR offset",
                ).inc()
        return ctx.vm, ctx.clock.elapsed_ms()
