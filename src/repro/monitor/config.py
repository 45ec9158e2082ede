"""Per-VM boot configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.bootstrap.loader import LoaderOptions
from repro.bzimage.format import BzImage
from repro.core.inmonitor import RandomizeMode
from repro.core.policy import RandomizationPolicy
from repro.errors import MonitorError
from repro.kernel.image import KernelImage

MIB = 1024 * 1024


class BootFormat(enum.Enum):
    """What kind of kernel file the monitor is given."""

    VMLINUX = "vmlinux"  # direct boot of the uncompressed ELF
    BZIMAGE = "bzimage"  # bootstrap-loader boot (modified Firecracker)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class BootProtocol(enum.Enum):
    """Direct-boot entry protocol (Section 2.2)."""

    LINUX64 = "linux64"  # 64-bit entry, RSI -> boot_params
    PVH = "pvh"  # 32-bit entry from the Xen ELF note, RBX -> start_info

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class VmConfig:
    """Everything one microVM boot needs."""

    kernel: KernelImage
    boot_format: BootFormat = BootFormat.VMLINUX
    boot_protocol: BootProtocol = BootProtocol.LINUX64
    #: randomization performed by the controlling principal: the monitor
    #: for VMLINUX boots, the bootstrap loader for BZIMAGE boots
    randomize: RandomizeMode = RandomizeMode.NONE
    #: required for BZIMAGE boots (the linked container to load)
    bzimage: BzImage | None = None
    mem_mib: int = 256
    vcpus: int = 1
    cmdline: str | None = None
    #: initial ramdisk contents, loaded near the top of guest RAM and
    #: advertised through boot_params (None = no initrd)
    initrd: bytes | None = None
    #: randomization seed; None draws one from the host entropy pool
    seed: int | None = None
    #: monitor-side FGKASLR options (Section 4.3)
    lazy_kallsyms: bool = True
    update_orc: bool = True
    policy: RandomizationPolicy = field(default_factory=RandomizationPolicy)
    #: loader-side options for BZIMAGE boots
    loader_options: LoaderOptions = field(default_factory=LoaderOptions)
    #: drop host caches right before this boot (cold-cache experiments)
    drop_caches: bool = False

    def validate(self) -> None:
        if self.mem_mib < 32:
            raise MonitorError(f"guest needs at least 32 MiB, got {self.mem_mib}")
        if self.vcpus < 1:
            raise MonitorError("guest needs at least one vCPU")
        if self.boot_format is BootFormat.BZIMAGE and self.bzimage is None:
            raise MonitorError("BZIMAGE boot requested without a bzImage")
        if (
            self.randomize is not RandomizeMode.NONE
            and not self.kernel.variant.relocatable
        ):
            raise MonitorError(
                f"kernel {self.kernel.name} is not relocatable; "
                f"cannot randomize (CONFIG_RELOCATABLE missing)"
            )
        if (
            self.randomize is RandomizeMode.FGKASLR
            and not self.kernel.variant.function_sections
        ):
            raise MonitorError(
                f"kernel {self.kernel.name} lacks function sections; "
                f"FGKASLR requires an -ffunction-sections build"
            )

    @property
    def mem_bytes(self) -> int:
        return self.mem_mib * MIB

    @property
    def effective_cmdline(self) -> str:
        return self.cmdline if self.cmdline is not None else self.kernel.config.cmdline

    def kernel_file_name(self) -> str:
        if self.boot_format is BootFormat.BZIMAGE:
            codec = self.bzimage.header.codec if self.bzimage else "none"
            opt = "-opt" if self.bzimage and self.bzimage.header.optimized else ""
            return f"{self.kernel.name}.bzimage.{codec}{opt}"
        return f"{self.kernel.name}.vmlinux"

    def relocs_file_name(self) -> str:
        return f"{self.kernel.name}.relocs"
