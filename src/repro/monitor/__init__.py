"""Virtual machine monitors.

:class:`Firecracker` models the paper's modified Firecracker v0.26: direct
vmlinux boot (Linux 64-bit or PVH protocol), optional bzImage boot (the
PR-670-style patch), and in-monitor (FG)KASLR behind an extra relocs
argument (Figure 8).  :class:`Qemu` is the same machinery under QEMU-like
monitor constants, used for the Section 2.2 cross-check.
"""

from repro.monitor.artifact_cache import (
    BootArtifactCache,
    CacheScope,
    CacheStats,
    DiskCacheTier,
)
from repro.monitor.config import BootFormat, BootProtocol, VmConfig
from repro.monitor.executor import (
    BootExecutor,
    ProcessBootExecutor,
    ThreadBootExecutor,
    default_workers,
    make_boot_executor,
)
from repro.monitor.fleet import FleetBoot, FleetManager, FleetReport
from repro.monitor.leases import InstanceLease, LeaseRegistry
from repro.monitor.report import BootReport
from repro.monitor.sharedmem import SharedArtifactStore, SharedBlob
from repro.monitor.vm_handle import MicroVm
from repro.monitor.vmm import Firecracker, MonitorProfile, Qemu

__all__ = [
    "BootArtifactCache",
    "BootExecutor",
    "BootFormat",
    "BootProtocol",
    "BootReport",
    "CacheScope",
    "CacheStats",
    "DiskCacheTier",
    "Firecracker",
    "FleetBoot",
    "FleetManager",
    "FleetReport",
    "InstanceLease",
    "LeaseRegistry",
    "MicroVm",
    "MonitorProfile",
    "ProcessBootExecutor",
    "Qemu",
    "SharedArtifactStore",
    "SharedBlob",
    "ThreadBootExecutor",
    "VmConfig",
    "default_workers",
    "make_boot_executor",
]
