"""Post-boot verification oracle.

A real guest either boots or triple-faults; the simulated guest proves the
equivalent by checking, against the build manifest, that randomization left
the image semantically intact:

* the entry point and every function are where the layout says they are
  (each function carries a unique identity tag — reading it at the *final*
  address through the real page tables proves the claim),
* every relocation site holds exactly the value implied by its target's
  final address (catches missed, doubled, or wrong-class fixups),
* the exception table is still sorted (catches a skipped FGKASLR re-sort),
* kallsyms is consistent when eagerly fixed, or flagged stale when lazy.

On any mismatch the oracle raises :class:`~repro.errors.GuestPanic` —
the simulation's kernel panic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.layout_result import LayoutResult
from repro.elf.relocs import RelocType
from repro.errors import GuestPanic
from repro.kernel import layout as kl
from repro.kernel import tables
from repro.kernel.build import BASE_SYMBOL_NAMES
from repro.kernel.manifest import (
    FUNCTION_PROLOGUE,
    ID_TAG_OFFSET,
    ID_TAG_SIZE,
    BuildManifest,
)
from repro.vm.memory import GuestMemory
from repro.vm.pagetable import PAGE_4K, PageTableWalker

#: cap on per-table entries sampled for deep (id-tag) checks
_TABLE_SAMPLE = 256
#: prologue plus identity tag: the bytes read at each function's address
_HEADER_SIZE = ID_TAG_OFFSET + ID_TAG_SIZE
_PAGE_MASK = PAGE_4K - 1
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class VerificationReport:
    """What the oracle checked on a successful boot."""

    functions_checked: int
    sites_checked: int
    extable_checked: int
    kallsyms_checked: int
    kallsyms_stale: bool
    entry_vaddr: int


def verify_guest_kernel(
    memory: GuestMemory,
    walker: PageTableWalker,
    layout: LayoutResult,
    manifest: BuildManifest,
) -> VerificationReport:
    """Run the full oracle; raises :class:`GuestPanic` on any violation."""
    functions_checked = _verify_functions(walker, layout, manifest)
    sites_checked = _verify_reloc_sites(memory, layout, manifest)
    extable_checked = _verify_extable(memory, layout, manifest)
    kallsyms_checked, stale = _verify_kallsyms(memory, layout, manifest)
    return VerificationReport(
        functions_checked=functions_checked,
        sites_checked=sites_checked,
        extable_checked=extable_checked,
        kallsyms_checked=kallsyms_checked,
        kallsyms_stale=stale,
        entry_vaddr=layout.entry_vaddr,
    )


def _verify_functions(
    walker: PageTableWalker, layout: LayoutResult, manifest: BuildManifest
) -> int:
    checked = 0
    vaddrs = manifest.symbol_vaddrs
    headers = manifest.code_headers
    names = [f.name for f in manifest.functions]
    names += [n for n in BASE_SYMBOL_NAMES if n in manifest.symbols]
    memory = walker.memory
    # final vaddr of a 4 KiB page -> its guest-physical address; exact for
    # the whole call because nothing writes the page tables meanwhile
    page_paddrs: dict[int, int] = {}
    for name in names:
        final = layout.final_vaddr(vaddrs[name])
        offset = final & _PAGE_MASK
        if offset + _HEADER_SIZE <= PAGE_4K:
            paddr = page_paddrs.get(final - offset)
            if paddr is None:
                paddr = page_paddrs[final - offset] = walker.translate(final) - offset
            header = memory.read(paddr + offset, _HEADER_SIZE)
        else:  # the header crosses into the next page
            header = walker.read_virt(final, _HEADER_SIZE)
        if header != headers[name]:
            if header[:ID_TAG_OFFSET] != FUNCTION_PROLOGUE:
                raise GuestPanic(
                    f"function {name!r}: no prologue at final vaddr {final:#x}"
                )
            raise GuestPanic(
                f"function {name!r}: identity tag mismatch at {final:#x} "
                "(layout map lies about where this function landed)"
            )
        checked += 1
    return checked


def _verify_reloc_sites(
    memory: GuestMemory, layout: LayoutResult, manifest: BuildManifest
) -> int:
    # The FGKASLR re-sort permutes extable rows; under it those sites are
    # verified as a set in _verify_extable instead.
    skip_extable = layout.fine_grained
    final = layout.final_vaddrs()
    checked = 0
    for reloc_type, rows in manifest.site_rows:
        word = _U64 if reloc_type is RelocType.ABS64 else _U32
        width = word.size
        unpack = word.unpack_from
        inverse = reloc_type is RelocType.INV32
        buf, k, lo, hi = None, 0, 0, -1
        for off, target, in_extable, index in rows:
            if in_extable and skip_extable:
                continue
            if lo <= off <= hi:
                actual = unpack(buf, off + k)[0]
            else:
                view = layout.site_view(memory, off, width)
                if view is None:  # straddles two chunks
                    paddr = layout.phys_load + layout.final_image_offset(off)
                    (actual,) = word.unpack(memory.read(paddr, width))
                else:
                    buf, k, lo, hi = view
                    actual = unpack(buf, off + k)[0]
            expected = final[target]
            if width == 4:
                expected = (-expected if inverse else expected) & 0xFFFFFFFF
            if actual != expected:
                site = manifest.reloc_sites[index]
                raise GuestPanic(
                    f"relocation site image+{site.link_offset:#x} "
                    f"({site.reloc_type}) -> {site.target_symbol}"
                    f"+{site.target_addend:#x}: holds {word.pack(actual).hex()} "
                    f"expected {word.pack(expected).hex()}"
                )
            checked += 1
    return checked


def _verify_extable(
    memory: GuestMemory, layout: LayoutResult, manifest: BuildManifest
) -> int:
    vaddr, size = manifest.sections["__ex_table"]
    if size == 0:
        return 0
    paddr = layout.phys_load + (vaddr - kl.LINK_VBASE)
    entries = tables.decode_extable(memory.read(paddr, size))
    if not tables.extable_is_sorted(entries):
        raise GuestPanic(
            "exception table is not sorted by instruction address "
            "(missing FGKASLR table fixup?)"
        )
    if layout.randomized and manifest.extable_targets:
        expected = sorted(
            (
                layout.final_vaddr(manifest.symbol_link_vaddr(func) + addend),
                layout.final_vaddr(manifest.symbol_link_vaddr(fixup)),
            )
            for func, addend, fixup in manifest.extable_targets
        )
        actual = [(e.insn_vaddr, e.fixup_vaddr) for e in entries]
        if actual != expected:
            raise GuestPanic(
                "exception table contents diverge from the relocated ground "
                "truth (bad value fixup or lost entry)"
            )
    return len(entries)


def _verify_kallsyms(
    memory: GuestMemory, layout: LayoutResult, manifest: BuildManifest
) -> tuple[int, bool]:
    if not layout.kallsyms_fixed:
        # Lazy fixup: staleness is expected; nothing to check until first use.
        return 0, True
    vaddr, size = manifest.sections[".kallsyms"]
    paddr = layout.phys_load + (vaddr - kl.LINK_VBASE)
    entries = tables.decode_kallsyms(memory.read(paddr, size))
    if not tables.kallsyms_is_sorted(entries):
        raise GuestPanic("kallsyms not sorted after eager fixup")
    step = max(1, len(entries) // _TABLE_SAMPLE)
    checked = 0
    for entry in entries[::step]:
        if not manifest.has_function(entry.name) and entry.name not in manifest.symbols:
            raise GuestPanic(f"kallsyms names unknown symbol {entry.name!r}")
        link = manifest.symbol_link_vaddr(entry.name)
        expected_offset = layout.final_vaddr(link) - layout.voffset - kl.LINK_VBASE
        if entry.text_offset != expected_offset:
            raise GuestPanic(
                f"kallsyms entry {entry.name!r}: offset {entry.text_offset:#x} "
                f"!= expected {expected_offset:#x}"
            )
        checked += 1
    return checked, False
