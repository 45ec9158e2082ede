"""repro — a reproduction of *KASLR in the age of MicroVMs* (EuroSys 2022).

The package implements in-monitor KASLR/FGKASLR (the paper's
contribution, :mod:`repro.core`) together with every substrate it needs:
an ELF64 toolchain, kernel compression codecs, synthetic Linux-like guest
kernels, the bzImage container and bootstrap loader, a simulated
Firecracker-style monitor over virtual hardware, and the security/LEBench
analyses from the evaluation.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import (
        AWS, Firecracker, HostStorage, KernelVariant, RandomizeMode,
        VmConfig, get_kernel,
    )

    kernel = get_kernel(AWS, KernelVariant.KASLR)
    vmm = Firecracker(HostStorage())
    cfg = VmConfig(kernel=kernel, randomize=RandomizeMode.KASLR)
    vmm.warm_caches(cfg)
    report = vmm.boot(cfg)
    print(report.summary())
"""

from repro.analysis import BootSeries, Stats, run_boots
from repro.artifacts import BENCH_SCALE, get_bzimage, get_kernel
from repro.bzimage import BzImage, build_bzimage
from repro.core import (
    InMonitorRandomizer,
    LayoutResult,
    RandomizationPolicy,
    RandomizeMode,
)
from repro.errors import GuestPanic, ReproError
from repro.host import HostEntropyPool, HostStorage
from repro.kernel import (
    AWS,
    LUPINE,
    PRESETS,
    TINY,
    UBUNTU,
    KernelConfig,
    KernelImage,
    KernelVariant,
    build_kernel,
)
from repro.kernel.modules import ModuleImage, build_module
from repro.lebench import run_lebench
from repro.monitor import (
    BootFormat,
    BootProtocol,
    BootReport,
    Firecracker,
    MicroVm,
    Qemu,
    VmConfig,
)
from repro.simtime import BootCategory, BootStep, CostModel, JitterModel
from repro.snapshot import Snapshot, SnapshotManager
from repro.unikernel import UnikernelMonitor, build_unikernel
from repro.workloads import FUNCTIONS, ServerlessPlatform

__version__ = "1.0.0"

__all__ = [
    "AWS",
    "BENCH_SCALE",
    "BootCategory",
    "BootFormat",
    "BootProtocol",
    "BootReport",
    "BootSeries",
    "BootStep",
    "BzImage",
    "CostModel",
    "FUNCTIONS",
    "Firecracker",
    "GuestPanic",
    "ServerlessPlatform",
    "HostEntropyPool",
    "HostStorage",
    "InMonitorRandomizer",
    "JitterModel",
    "KernelConfig",
    "KernelImage",
    "KernelVariant",
    "LUPINE",
    "LayoutResult",
    "MicroVm",
    "ModuleImage",
    "PRESETS",
    "Qemu",
    "Snapshot",
    "SnapshotManager",
    "UnikernelMonitor",
    "RandomizationPolicy",
    "RandomizeMode",
    "ReproError",
    "Stats",
    "TINY",
    "UBUNTU",
    "VmConfig",
    "build_bzimage",
    "build_kernel",
    "build_module",
    "build_unikernel",
    "get_bzimage",
    "get_kernel",
    "run_boots",
    "run_lebench",
    "__version__",
]
