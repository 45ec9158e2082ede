"""Relocation handling — the three fixup classes from Section 3.2.

Adapted (as the paper's prototype was) from the C implementation in the
Linux bootstrap loader's ``handle_relocations``:

* 64-bit sites get the virtual offset added,
* 32-bit sites get it added (value is the low 32 bits of a kernel vaddr),
* inverse 32-bit sites get it subtracted (per-CPU-style negated values).

Under FGKASLR two extra steps occur per entry, both mirrored here: the
*site itself* may live in a shuffled section (so the fixup location must be
remapped), and the *stored value* may point into a shuffled section (found
by binary search over the shuffled-section table, whose cost the model
charges per entry).
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.core.context import RandoContext
from repro.core.layout_result import LayoutResult
from repro.elf.relocs import RelocationTable
from repro.errors import RandomizationError
from repro.kernel import layout as kl
from repro.vm.memory import GuestMemory

#: kernel virtual addresses live in the top 2 GiB
_KERNEL_WINDOW = 2 * kl.GIB
_HIGH_BITS = kl.START_KERNEL_MAP & ~0xFFFF_FFFF  # 0xffffffff_00000000
_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

#: ``fix(stored word, site image offset) -> new word`` for one class
WordFix = Callable[[int, int], int]


def check_kernel_vaddr(vaddr: int, site: str, offset: int) -> None:
    """Reject a value outside the kernel window; ``site`` + offset names it."""
    if not kl.START_KERNEL_MAP <= vaddr < kl.START_KERNEL_MAP + _KERNEL_WINDOW:
        raise RandomizationError(
            f"{site}{offset:#x}: value {vaddr:#x} is not a kernel virtual address"
        )


def low32_to_vaddr(low32: int) -> int:
    """Reconstruct a full kernel vaddr from its low 32 bits."""
    return _HIGH_BITS | low32


def fix_sites(
    memory: GuestMemory,
    layout: LayoutResult,
    table: RelocationTable,
    abs64: WordFix,
    abs32: WordFix,
    inv32: WordFix,
) -> None:
    """Rewrite every site's word in place: one pass per relocation class.

    Sites are visited in table order (ascending in the relocs sidecar) and
    each word is fixed inside its memory chunk (``layout.site_view``).
    A class's ``fix`` must depend on the stored word alone — the offset
    only names the site in errors — because it runs once per distinct
    word and its result is reused for every other site holding that word.
    """
    for offsets, word, fix in (
        (table.abs64, _U64, abs64),
        (table.abs32, _U32, abs32),
        (table.inv32, _U32, inv32),
    ):
        width = word.size
        unpack, pack = word.unpack_from, word.pack_into
        fixed: dict[int, int] = {}
        buf, k, lo, hi = None, 0, 0, -1
        for off in offsets:
            if not lo <= off <= hi:
                view = layout.site_view(memory, off, width, writable=True)
                if view is None:  # straddles two chunks
                    paddr = layout.phys_load + layout.final_image_offset(off)
                    (stored,) = word.unpack(memory.read(paddr, width))
                    memory.write(paddr, word.pack(fix(stored, off)))
                    continue
                buf, k, lo, hi = view
            at = off + k
            stored = unpack(buf, at)[0]
            new = fixed.get(stored)
            if new is None:
                new = fixed[stored] = fix(stored, off)
            pack(buf, at, new)


class Relocator:
    """Applies a relocation table to a kernel image in guest memory."""

    def __init__(self, memory: GuestMemory, layout: LayoutResult) -> None:
        self.memory = memory
        self.layout = layout

    def apply(self, table: RelocationTable, ctx: RandoContext) -> int:
        """Fix every site; returns the number of entries processed.

        The byte work is real (values in guest memory change); the
        simulated time is charged in one batch per the cost model, with the
        FGKASLR binary-search surcharge when sections were shuffled.
        """
        layout = self.layout
        n = table.entry_count
        if n == 0:
            return 0
        final = layout.final_vaddrs()

        def abs64(value: int, off: int) -> int:
            check_kernel_vaddr(value, "ABS64 site at image+", off)
            return final[value] & _MASK64

        def abs32(low: int, off: int) -> int:
            vaddr = low32_to_vaddr(low)
            check_kernel_vaddr(vaddr, "ABS32 site at image+", off)
            new = final[vaddr]
            if (new & ~_MASK32) != _HIGH_BITS:
                raise RandomizationError(
                    f"ABS32 site at image+{off:#x}: relocated value "
                    f"{new:#x} no longer fits 32 bits"
                )
            return new & _MASK32

        def inv32(stored: int, off: int) -> int:
            vaddr = low32_to_vaddr((-stored) & _MASK32)
            check_kernel_vaddr(vaddr, "INV32 site at image+", off)
            return (-final[vaddr]) & _MASK32

        fix_sites(self.memory, layout, table, abs64, abs32, inv32)
        ctx.charge(
            ctx.costs.reloc_apply_batch_ns(n, in_guest=ctx.in_guest),
            ctx.steps.relocate,
            label=f"apply {n} relocations",
        )
        if layout.fine_grained:
            ctx.charge(
                ctx.costs.reloc_search_batch_ns(n, len(layout.moved)),
                ctx.steps.relocate,
                label=f"binary search over {len(layout.moved)} shuffled sections",
            )
        layout.relocs_applied += n
        return n
