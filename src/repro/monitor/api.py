"""Firecracker-style configuration API.

Real Firecracker is driven over a REST socket: PUT ``/machine-config``,
PUT ``/boot-source``, then ``InstanceStart``.  Figure 8 of the paper shows
in-monitor KASLR surfacing as one extra boot-source argument — the
relocation entries.  This facade reproduces that operator-facing contract
(including Firecracker-flavoured validation errors) on top of
:class:`~repro.monitor.vmm.Firecracker`, plus the snapshot endpoints the
zygote flows use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bzimage.format import BzImage
from repro.core.inmonitor import RandomizeMode
from repro.errors import MonitorError
from repro.kernel.image import KernelImage
from repro.monitor.config import BootFormat, VmConfig
from repro.monitor.report import BootReport
from repro.monitor.vm_handle import MicroVm
from repro.monitor.vmm import Firecracker
from repro.snapshot.checkpoint import Snapshot, SnapshotManager


@dataclass
class MachineConfig:
    """PUT /machine-config payload."""

    vcpu_count: int = 1
    mem_size_mib: int = 256


@dataclass
class BootSource:
    """PUT /boot-source payload.

    ``relocs`` is the in-monitor KASLR extension: "an extra configuration
    option at runtime" (Section 4.3).  ``randomize`` selects none/kaslr/
    fgkaslr; requesting randomization without relocation info fails at
    instance start, like the prototype would.
    """

    kernel_image: KernelImage
    boot_args: str | None = None
    relocs: bool = False
    randomize: str = "none"
    bzimage: BzImage | None = None
    initrd: bytes | None = None


@dataclass
class FirecrackerApi:
    """The PUT-then-start machine lifecycle."""

    vmm: Firecracker
    _machine: MachineConfig = field(default_factory=MachineConfig)
    _boot_source: BootSource | None = None
    _started: bool = False
    _vm: MicroVm | None = None
    _report: BootReport | None = None

    # -- configuration endpoints ------------------------------------------------

    def put_machine_config(self, vcpu_count: int = 1, mem_size_mib: int = 256) -> None:
        if self._started:
            raise MonitorError(
                "The requested operation is not supported after starting "
                "the microVM."
            )
        self._machine = MachineConfig(vcpu_count=vcpu_count, mem_size_mib=mem_size_mib)

    def put_boot_source(self, source: BootSource) -> None:
        if self._started:
            raise MonitorError(
                "The requested operation is not supported after starting "
                "the microVM."
            )
        try:
            RandomizeMode(source.randomize)
        except ValueError:
            raise MonitorError(
                f"unknown randomization mode {source.randomize!r}"
            ) from None
        self._boot_source = source

    # -- lifecycle -------------------------------------------------------------------

    def instance_start(self) -> BootReport:
        if self._started:
            raise MonitorError("The microVM is already running.")
        if self._boot_source is None:
            raise MonitorError(
                "Cannot start microvm that was not configured: missing "
                "boot-source."
            )
        source = self._boot_source
        mode = RandomizeMode(source.randomize)
        if mode is not RandomizeMode.NONE and not source.relocs:
            raise MonitorError(
                "boot-source requests randomization but supplies no "
                "relocation entries (see Figure 8: pass vmlinux.relocs)"
            )
        cfg = VmConfig(
            kernel=source.kernel_image,
            boot_format=BootFormat.BZIMAGE if source.bzimage else BootFormat.VMLINUX,
            bzimage=source.bzimage,
            randomize=mode,
            mem_mib=self._machine.mem_size_mib,
            vcpus=self._machine.vcpu_count,
            cmdline=source.boot_args,
            initrd=source.initrd,
        )
        self.vmm.warm_caches(cfg)
        report, vm = self.vmm.boot_vm(cfg)
        self._report, self._vm, self._started = report, vm, True
        return report

    def describe_instance(self) -> dict:
        state = "Running" if self._started else "Not started"
        info = {"state": state, "vmm_version": "repro-1.0.0"}
        if self._report is not None:
            info.update(
                {
                    "kernel": self._report.kernel_name,
                    "boot_time_ms": round(self._report.total_ms, 3),
                    "randomized": self._report.layout.randomized,
                }
            )
        return info

    @property
    def vm(self) -> MicroVm:
        if self._vm is None:
            raise MonitorError("The microVM has not been started.")
        return self._vm

    # -- snapshot endpoints -------------------------------------------------------------

    def create_snapshot(self) -> Snapshot:
        if self._vm is None:
            raise MonitorError("Cannot snapshot a microVM that is not running.")
        return SnapshotManager.for_monitor(self.vmm).capture(self._vm)

    def load_snapshot(self, snapshot: Snapshot, rebase_seed: int | None = None):
        """Restore into a *new* API instance (Firecracker restores fresh VMs)."""
        if self._started:
            raise MonitorError(
                "Cannot load a snapshot into a running microVM."
            )
        manager = SnapshotManager.for_monitor(self.vmm)
        if rebase_seed is not None:
            vm, latency = manager.restore_rebased(snapshot, seed=rebase_seed)
        else:
            vm, latency = manager.restore(snapshot)
        self._vm, self._started = vm, True
        return vm, latency
