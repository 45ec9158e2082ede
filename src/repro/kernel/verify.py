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
from array import array
from dataclasses import dataclass
from operator import add

from repro.core import siteplan
from repro.core.layout_result import LayoutResult
from repro.elf.relocs import RelocType
from repro.errors import GuestPanic
from repro.kernel import layout as kl
from repro.kernel import tables
from repro.kernel.manifest import (
    FUNCTION_PROLOGUE,
    ID_TAG_OFFSET,
    ID_TAG_SIZE,
    BuildManifest,
    OracleRows,
)
from repro.vm.memory import CHUNK_SHIFT, GuestMemory
from repro.vm.pagetable import PageTableWalker

#: cap on per-table entries sampled for deep (id-tag) checks
_TABLE_SAMPLE = 256
#: prologue plus identity tag: the bytes read at each function's address
_HEADER_SIZE = ID_TAG_OFFSET + ID_TAG_SIZE
_MASK32 = 0xFFFF_FFFF
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


@dataclass(frozen=True)
class _ClassPlan:
    """One relocation class's checked sites as :mod:`~repro.core.siteplan` runs."""

    #: target index of each checked site, in offset order
    targets: array
    #: window, first site offset and pad-byte reader of each run
    windows: array
    starts: array
    readers: tuple[struct.Struct, ...]


@dataclass(frozen=True)
class OraclePlan:
    """A manifest's oracle rows under one window layout."""

    #: window of each distinct target, and of each named address
    target_windows: array
    name_windows: array
    classes: tuple[_ClassPlan, ...]


def oracle_plan(manifest: BuildManifest, layout: LayoutResult) -> OraclePlan:
    """The manifest's :class:`OraclePlan` for ``layout``'s windows.

    Derived once per manifest content and window layout.  Under FGKASLR
    the extable sites are left out: the re-sort permutes their rows, and
    :func:`_verify_extable` checks them as a set instead.
    """
    rows = manifest.oracle_rows
    bounds, _ = layout.windows()
    vbase = layout.link_vbase
    return siteplan.shared(
        ("oracle", rows.key, vbase, layout.window_key),
        lambda: _derive_plan(rows, bounds, vbase),
    )


def _derive_plan(
    rows: OracleRows, bounds: tuple[int, ...], vbase: int
) -> OraclePlan:
    skip_extable = len(bounds) > 2  # more than one window: FGKASLR
    readers: dict[str, struct.Struct] = {}  # one per distinct format
    classes = []
    for cls in rows.classes:
        keep = [
            i for i, ext in enumerate(cls.in_extable) if not (ext and skip_extable)
        ]
        offsets = [cls.offsets[i] for i in keep]
        width, code = (8, "Q") if cls.reloc_type is RelocType.ABS64 else (4, "I")
        ends, windows = siteplan.split_runs(offsets, width, bounds, vbase)
        starts = array("I")
        run_readers = []
        a = 0
        for b in ends:
            fmt, at = ["<"], offsets[a]
            for off in offsets[a:b]:
                if off > at:
                    fmt.append(f"{off - at}x")
                fmt.append(code)
                at = off + width
            fmt = "".join(fmt)
            reader = readers.get(fmt)
            if reader is None:
                reader = readers[fmt] = struct.Struct(fmt)
            starts.append(offsets[a])
            run_readers.append(reader)
            a = b
        targets = array(cls.targets.typecode, [cls.targets[i] for i in keep])
        classes.append(_ClassPlan(targets, windows, starts, tuple(run_readers)))
    return OraclePlan(
        target_windows=siteplan.window_indices(rows.targets, bounds),
        name_windows=siteplan.window_indices(rows.vaddrs, bounds),
        classes=tuple(classes),
    )


def _final_shifts(layout: LayoutResult) -> list[int]:
    """Final vaddr minus link vaddr, per window of ``layout``."""
    _, deltas = layout.windows()
    return [d + layout.voffset for d in deltas]


def _verify_functions(
    walker: PageTableWalker, layout: LayoutResult, manifest: BuildManifest
) -> int:
    rows = manifest.oracle_rows
    windows = oracle_plan(manifest, layout).name_windows
    finals = map(add, rows.vaddrs, map(_final_shifts(layout).__getitem__, windows))
    memory = walker.memory
    # the mapped page of the last header: [vlo, vhi) maps to vlo + to_phys;
    # exact for the whole call because nothing writes the tables meanwhile
    vlo = vhi = to_phys = 0
    buf, base, last = b"", 0, -1  # the memory chunk of the last header
    for name, final, expected in zip(rows.names, finals, rows.headers):
        if not vlo <= final < vhi:
            paddr, size = walker.leaf(final)
            vlo = final - (final & (size - 1))
            vhi, to_phys = vlo + size, paddr - vlo
        if final + _HEADER_SIZE <= vhi:
            paddr = final + to_phys
            if not base <= paddr <= last:
                view = memory.word_view(paddr, _HEADER_SIZE)
                if view is None:  # straddles two chunks
                    view = memory.read(paddr, _HEADER_SIZE), paddr, paddr
                buf, base, last = view
            header = buf[paddr - base : paddr - base + _HEADER_SIZE]
        else:  # the header crosses into the next mapped page
            header = walker.read_virt(final, _HEADER_SIZE)
        if header != expected:
            if header[:ID_TAG_OFFSET] != FUNCTION_PROLOGUE:
                raise GuestPanic(
                    f"function {name!r}: no prologue at final vaddr {final:#x}"
                )
            raise GuestPanic(
                f"function {name!r}: identity tag mismatch at {final:#x} "
                "(layout map lies about where this function landed)"
            )
    return len(rows.names)


def _verify_reloc_sites(
    memory: GuestMemory, layout: LayoutResult, manifest: BuildManifest
) -> int:
    """Compare every checked site with its expected word, one read per run.

    Each run's words come out of one read-only word view (or, for a run
    straddling two chunks, one copying read) with one ``unpack_from``;
    the expected words come from each target's window, this boot's
    deltas and its voffset.  On any mismatch, or a run outside guest
    memory, :func:`_sweep_sites` checks site by site and raises for the
    first bad one.
    """
    rows = manifest.oracle_rows
    plan = oracle_plan(manifest, layout)
    _, deltas = layout.windows()
    shifts = _final_shifts(layout)
    finals = list(map(add, rows.targets, map(shifts.__getitem__, plan.target_windows)))
    phys = layout.phys_load
    size = memory.size
    chunks: dict[int, tuple] = {}  # chunk index -> (read-only buf, base, end)
    checked = 0
    for cls, cplan in zip(rows.classes, plan.classes):
        if cls.reloc_type is RelocType.ABS32:
            words = [f & _MASK32 for f in finals]
        elif cls.reloc_type is RelocType.INV32:
            words = [-f & _MASK32 for f in finals]
        else:
            words = finals
        expected = list(map(words.__getitem__, cplan.targets))
        actual: list[int] = []
        for j, start, reader in zip(cplan.windows, cplan.starts, cplan.readers):
            lo = start + phys + deltas[j]
            hi = lo + reader.size
            view = chunks.get(lo >> CHUNK_SHIFT)
            if view is None or hi > view[2]:
                if lo < 0 or hi > size:
                    return _sweep_sites(memory, layout, manifest)
                view = memory.word_view(lo, hi - lo)
                if view is None:  # straddles two chunks
                    actual += reader.unpack(memory.read(lo, hi - lo))
                    continue
                buf, base, last = view
                view = chunks[lo >> CHUNK_SHIFT] = (buf, base, last + hi - lo)
            actual += reader.unpack_from(view[0], lo - view[1])
        if actual != expected:
            return _sweep_sites(memory, layout, manifest)
        checked += len(expected)
    return checked


def _sweep_sites(
    memory: GuestMemory, layout: LayoutResult, manifest: BuildManifest
) -> int:
    """The site check one site at a time, in class then offset order."""
    # The FGKASLR re-sort permutes extable rows; under it those sites are
    # verified as a set in _verify_extable instead.
    rows = manifest.oracle_rows
    skip_extable = layout.fine_grained
    checked = 0
    for cls in rows.classes:
        word = _U64 if cls.reloc_type is RelocType.ABS64 else _U32
        for off, t, in_extable, index in zip(
            cls.offsets, cls.targets, cls.in_extable, cls.index
        ):
            if in_extable and skip_extable:
                continue
            paddr = layout.phys_load + layout.final_image_offset(off)
            (actual,) = word.unpack(memory.read(paddr, word.size))
            expected = layout.final_vaddr(rows.targets[t])
            if cls.reloc_type is RelocType.ABS32:
                expected &= _MASK32
            elif cls.reloc_type is RelocType.INV32:
                expected = -expected & _MASK32
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
