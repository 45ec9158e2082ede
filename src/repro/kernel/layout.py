"""x86-64 kernel address-space constants.

These mirror the values the paper calls out in Section 4.3: the expected
physical load address and alignment come from the kernel config
(``CONFIG_PHYSICAL_START``/``CONFIG_PHYSICAL_ALIGN``), while the virtual
starting point and the kernel-devoted virtual window are hardcoded kernel
constants (``__START_KERNEL_map``, ``KERNEL_IMAGE_SIZE``) that the
in-monitor implementation also hardcodes.
"""

from __future__ import annotations

MIB = 1024 * 1024
GIB = 1024 * MIB

#: CONFIG_PHYSICAL_START — minimum/default physical load address (16 MiB)
PHYS_LOAD_ADDR = 0x100_0000

#: CONFIG_PHYSICAL_ALIGN / MIN_KERNEL_ALIGN — 2 MiB
KERNEL_ALIGN = 0x20_0000

#: __START_KERNEL_map — base of the kernel text mapping
START_KERNEL_MAP = 0xFFFF_FFFF_8000_0000

#: link-time virtual address of the kernel image
#: (__START_KERNEL_map + CONFIG_PHYSICAL_START)
LINK_VBASE = START_KERNEL_MAP + PHYS_LOAD_ADDR

#: KERNEL_IMAGE_SIZE — the virtual window devoted to the kernel. Offsets are
#: chosen below 1 GiB "to avoid the fixmap" (Section 4.3).
KERNEL_IMAGE_SIZE = 1 * GIB

#: function-section alignment used by FGKASLR repacking
FUNC_ALIGN = 16

#: where the monitor (or loader) builds early page tables in guest RAM
PAGE_TABLE_BASE = 0x9000

#: zero page (boot_params) location for direct boot
BOOT_PARAMS_ADDR = 0x7000

#: kernel command line location
CMDLINE_ADDR = 0x20000

#: where a bzImage (loader + payload) is placed in guest memory
BZIMAGE_LOAD_ADDR = 0x10_0000


def align_up(value: int, align: int) -> int:
    if align <= 1:
        return value
    return (value + align - 1) & ~(align - 1)
