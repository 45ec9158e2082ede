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
from array import array
from bisect import bisect_right
from typing import Callable, Sequence

from repro.core import siteplan
from repro.core.context import RandoContext
from repro.core.layout_result import LayoutResult
from repro.elf.relocs import RelocationTable
from repro.errors import RandomizationError
from repro.kernel import layout as kl
from repro.vm.memory import CHUNK_SHIFT, GuestMemory

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


def relocation_plan(
    table: RelocationTable, layout: LayoutResult
) -> tuple[tuple[array, array], ...]:
    """Each class's sites as :func:`~repro.core.siteplan.split_runs` runs.

    Derived once per table content and window layout (see
    :mod:`repro.core.siteplan`).
    """
    bounds, _ = layout.windows()
    vbase = layout.link_vbase
    classes = (
        (table.abs64, _U64.size),
        (table.abs32, _U32.size),
        (table.inv32, _U32.size),
    )
    key = ("relocs", vbase, bounds, *(tuple(offsets) for offsets, _ in classes))
    return siteplan.shared(
        key,
        lambda: tuple(
            siteplan.split_runs(offsets, width, bounds, vbase)
            for offsets, width in classes
        ),
    )


def fix_sites(
    memory: GuestMemory,
    layout: LayoutResult,
    table: RelocationTable,
    abs64: WordFix,
    abs32: WordFix,
    inv32: WordFix,
) -> None:
    """Rewrite every site's word in place: one pass per relocation class.

    Sites are visited and written one at a time, in table order.  Under
    FGKASLR a pass walks the table's :func:`relocation_plan`: each run
    shares one displacement and, nearly always, one memory chunk, which
    is looked up once for the run.  A class's ``fix`` must depend on the
    stored word alone — the offset only names the site in errors —
    because it runs once per distinct word and its result is reused for
    every other site holding that word.
    """
    bounds, deltas = layout.windows()
    plan = relocation_plan(table, layout) if len(bounds) > 2 else None
    phys = layout.phys_load
    size = memory.size
    chunks: dict[int, tuple] = {}  # chunk index -> (writable buf, base, end)
    for c, (offsets, word, fix) in enumerate(
        (
            (table.abs64, _U64, abs64),
            (table.abs32, _U32, abs32),
            (table.inv32, _U32, inv32),
        )
    ):
        fixed: dict[int, int] = {}
        if plan is None:  # one window: the whole class is one run
            _fix_run(memory, offsets, word, phys, fix, fixed)
            continue
        width = word.size
        unpack, pack = word.unpack_from, word.pack_into
        get = fixed.get
        a = 0
        for b, j in zip(*plan[c]):
            shift = phys + deltas[j]
            lo = offsets[a] + shift
            hi = offsets[b - 1] + shift + width
            view = chunks.get(lo >> CHUNK_SHIFT)
            if view is None or hi > view[2]:
                view = (
                    memory.word_view(lo, hi - lo, writable=True)
                    if 0 <= lo and hi <= size
                    else None
                )
                if view is None:  # straddles two chunks or leaves memory
                    _fix_run(memory, offsets[a:b], word, shift, fix, fixed)
                    a = b
                    continue
                buf, base, last = view
                view = chunks[lo >> CHUNK_SHIFT] = (buf, base, last + hi - lo)
            buf, base, _ = view
            k = shift - base
            for off in offsets[a:b]:
                at = off + k
                stored = unpack(buf, at)[0]
                new = get(stored)
                if new is None:
                    new = fixed[stored] = fix(stored, off)
                pack(buf, at, new)
            a = b


def _fix_run(
    memory: GuestMemory,
    offsets: Sequence[int],
    word: struct.Struct,
    shift: int,
    fix: WordFix,
    fixed: dict[int, int],
) -> None:
    """Fix the sites at ``offsets``, each at physical address ``off + shift``.

    The per-site path: it looks a chunk up again whenever a site leaves
    the last one, reads and writes a word that straddles two chunks with
    :meth:`GuestMemory.read`/:meth:`GuestMemory.write`, and raises
    :class:`~repro.errors.GuestMemoryError` at the first site outside
    guest memory.
    """
    width = word.size
    unpack, pack = word.unpack_from, word.pack_into
    buf, k, lo, hi = None, 0, 0, -1
    for off in offsets:
        if not lo <= off <= hi:
            view = memory.word_view(off + shift, width, writable=True)
            if view is None:  # straddles two chunks
                paddr = off + shift
                (stored,) = word.unpack(memory.read(paddr, width))
                memory.write(paddr, word.pack(fix(stored, off)))
                continue
            buf, base, last = view
            k, lo, hi = shift - base, base - shift, last - shift
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
        bounds, deltas = layout.windows()
        voffset = layout.voffset

        # LayoutResult.final_vaddr without its two calls; it runs per distinct word
        def final(vaddr: int) -> int:
            return vaddr + deltas[bisect_right(bounds, vaddr) - 1] + voffset

        def abs64(value: int, off: int) -> int:
            check_kernel_vaddr(value, "ABS64 site at image+", off)
            return final(value) & _MASK64

        def abs32(low: int, off: int) -> int:
            vaddr = low32_to_vaddr(low)
            check_kernel_vaddr(vaddr, "ABS32 site at image+", off)
            new = final(vaddr)
            if (new & ~_MASK32) != _HIGH_BITS:
                raise RandomizationError(
                    f"ABS32 site at image+{off:#x}: relocated value "
                    f"{new:#x} no longer fits 32 bits"
                )
            return new & _MASK32

        def inv32(stored: int, off: int) -> int:
            vaddr = low32_to_vaddr((-stored) & _MASK32)
            check_kernel_vaddr(vaddr, "INV32 site at image+", off)
            return (-final(vaddr)) & _MASK32

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
