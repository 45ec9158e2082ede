"""vCPU register state.

Direct kernel boot (Section 2.2) means the monitor, not a bootstrap loader,
is responsible for leaving the vCPU in the state the 64-bit kernel entry
point expects: long mode, page tables loaded in CR3, RSI pointing at
``boot_params`` (Linux boot protocol) or RBX pointing at the PVH start
info.  The monitor code manipulates this state exactly as Firecracker's
``x86_64::regs`` module does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CpuMode(enum.Enum):
    """Processor operating mode at guest entry."""

    REAL = "real"  # 16-bit, legacy BIOS path
    PROTECTED = "protected"  # 32-bit, PVH entry
    LONG = "long"  # 64-bit, direct vmlinux entry

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# RFLAGS bit 1 is reserved and always set.
_RFLAGS_RESERVED = 0x2


@dataclass
class VcpuState:
    """Architectural state the monitor hands to the guest."""

    mode: CpuMode = CpuMode.REAL
    rip: int = 0
    rsp: int = 0
    rsi: int = 0  # Linux boot protocol: boot_params pointer
    rbx: int = 0  # PVH boot protocol: start_info pointer
    rflags: int = _RFLAGS_RESERVED
    cr0: int = 0
    cr3: int = 0  # physical address of the PML4
    cr4: int = 0
    efer: int = 0
    gdt_base: int = 0
    interrupts_enabled: bool = False

    # Control-register bits the boot protocols require.
    CR0_PE: int = 1 << 0
    CR0_PG: int = 1 << 31
    CR4_PAE: int = 1 << 5
    EFER_LME: int = 1 << 8
    EFER_LMA: int = 1 << 10

    def setup_long_mode(self, cr3: int) -> None:
        """Configure 64-bit long mode with paging, as direct boot requires."""
        self.cr3 = cr3
        self.cr4 |= self.CR4_PAE
        self.efer |= self.EFER_LME | self.EFER_LMA
        self.cr0 |= self.CR0_PE | self.CR0_PG
        self.mode = CpuMode.LONG

    def setup_protected_mode(self) -> None:
        """Configure 32-bit protected mode without paging (PVH entry)."""
        self.cr0 |= self.CR0_PE
        self.cr0 &= ~self.CR0_PG
        self.mode = CpuMode.PROTECTED

    @property
    def long_mode_active(self) -> bool:
        return (
            bool(self.efer & self.EFER_LMA)
            and bool(self.cr0 & self.CR0_PG)
            and bool(self.cr4 & self.CR4_PAE)
        )

    def validate_linux64_entry(self) -> list[str]:
        """Check the 64-bit Linux boot protocol contract; return violations."""
        problems: list[str] = []
        if self.mode is not CpuMode.LONG or not self.long_mode_active:
            problems.append("vCPU not in long mode with paging enabled")
        if self.cr3 == 0:
            problems.append("CR3 not pointing at a page table")
        if self.rsi == 0:
            problems.append("RSI does not point at boot_params")
        if self.rip == 0:
            problems.append("RIP not set to the kernel entry point")
        if self.interrupts_enabled:
            problems.append("interrupts must be disabled at entry")
        return problems
