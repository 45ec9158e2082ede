"""Function-granular KASLR: section shuffling and table fixups.

Follows the in-development Linux FGKASLR implementation the paper adapted
(Section 3.2 / 4.3): every ``.text.<function>`` section receives a new
location via a Fisher-Yates shuffle and contiguous repacking; afterwards
the exception table must be re-sorted, kallsyms rewritten and re-sorted
(eagerly, or lazily deferred — the paper's proposed optimization), and the
ORC unwind tables fixed when present.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from repro.core.context import RandoContext
from repro.core.layout_result import LayoutResult
from repro.elf.reader import ElfImage
from repro.errors import RandomizationError
from repro.kernel import layout as kl
from repro.kernel import tables
from repro.vm.memory import GuestMemory


@dataclass(frozen=True)
class SectionInventory:
    """The seed-independent input to a shuffle: sections in link order.

    This is the cacheable half of :meth:`FgkaslrEngine.plan` — it depends
    only on the kernel image, so a fleet-serving monitor derives it once
    per image (see :mod:`repro.core.prepared`) while every boot still runs
    its own Fisher-Yates permutation over it.
    """

    #: (name, vaddr, size) for every ``.text.*`` section, by link vaddr
    ordered: tuple[tuple[str, int, int], ...]
    region_start: int
    region_end: int
    #: file offset of each section's bytes in the ELF, in the same order
    offsets: tuple[int, ...]

    @property
    def n_sections(self) -> int:
        return len(self.ordered)


@dataclass
class ShufflePlan:
    """New locations for every shuffled function section."""

    #: (orig_start_vaddr, size, delta) sorted by orig_start_vaddr
    moved: list[tuple[int, int, int]] = field(default_factory=list)
    region_start: int = 0  # link vaddr where function sections begin
    region_end: int = 0
    #: link vaddr just past the last repacked byte (at most ``region_end``)
    packed_end: int = 0
    n_sections: int = 0
    moved_bytes: int = 0
    #: file offset of each moved section's bytes, in ``moved`` order
    file_offsets: tuple[int, ...] = ()

    def permutation_entropy_bits(self, scale: int = 1) -> float:
        """log2(n!) for the paper-scale section count."""
        n = self.n_sections * scale
        if n < 2:
            return 0.0
        return math.lgamma(n + 1) / math.log(2)


class FgkaslrEngine:
    """Shuffles function sections and repairs the dependent tables."""

    @staticmethod
    def inventory(elf: ElfImage) -> SectionInventory:
        """Collect the shuffle set in link order (cacheable parse phase)."""
        sections = sorted(elf.function_sections(), key=lambda s: s.vaddr)
        if not sections:
            return SectionInventory(
                ordered=(), region_start=0, region_end=0, offsets=()
            )
        return SectionInventory(
            ordered=tuple((s.name, s.vaddr, s.size) for s in sections),
            region_start=sections[0].vaddr,
            region_end=max(s.vaddr + s.size for s in sections),
            offsets=tuple(s.header.sh_offset for s in sections),
        )

    def plan(self, elf: ElfImage, ctx: RandoContext) -> ShufflePlan:
        """Choose the permutation and compute every section's new address."""
        return self.plan_from_inventory(self.inventory(elf), ctx)

    def plan_from_inventory(
        self, inventory: SectionInventory, ctx: RandoContext
    ) -> ShufflePlan:
        """The per-boot half of :meth:`plan`: draw and apply a permutation."""
        if not inventory.ordered:
            raise RandomizationError(
                "FGKASLR requested but the kernel has no .text.* sections "
                "(was it built with -ffunction-sections?)"
            )
        ctx.charge(
            ctx.costs.rng_ns(1, in_guest=ctx.in_guest),
            ctx.steps.rng,
            label="shuffle seed draw",
        )
        permuted = list(inventory.ordered)
        ctx.rng.shuffle(permuted)

        plan = ShufflePlan(
            region_start=inventory.region_start,
            region_end=inventory.region_end,
            n_sections=inventory.n_sections,
            file_offsets=inventory.offsets,
        )
        cursor = end = inventory.region_start
        new_start: dict[str, int] = {}
        for name, _vaddr, size in permuted:
            cursor = kl.align_up(cursor, kl.FUNC_ALIGN)
            new_start[name] = cursor
            cursor += size
            if size:
                end = cursor
        if cursor > inventory.region_end:
            raise RandomizationError(
                f"repacked sections overflow the text region "
                f"({cursor:#x} > {inventory.region_end:#x})"
            )
        plan.packed_end = end
        for name, vaddr, size in inventory.ordered:
            delta = new_start[name] - vaddr
            plan.moved.append((vaddr, size, delta))
            if delta:
                plan.moved_bytes += size
        return plan

    # -- byte movement ------------------------------------------------------

    def load_text_shuffled(
        self,
        elf: ElfImage,
        plan: ShufflePlan,
        memory: GuestMemory,
        phys_load: int,
        ctx: RandoContext,
        in_place: bool = False,
    ) -> None:
        """Place base ``.text`` and every function section per the plan.

        ``in_place=False`` is the in-monitor path: sections stream from the
        ELF file straight to their randomized location, so only the
        bookkeeping cost is charged (the copy is the image read).
        ``in_place=True`` is the bootstrap-loader path: the image is
        already loaded at its link layout, so the loader must copy the
        whole text region aside before repacking — the extra relocation of
        the kernel the paper's Section 5.2 calls out.

        The span the sections are repacked into, from the region's start
        to the plan's ``packed_end``, is read from guest memory once, each
        section is copied into it from the ELF bytes at the file offset
        the inventory recorded, and the span is written back once.  Bytes
        no section lands on keep what memory held: zeros on the monitor
        path, the link-layout image on the loader's.
        """
        base_text = elf.section(".text")
        if in_place:
            region_bytes = plan.region_end - plan.region_start
            # One full copy of the function-section region to scratch space,
            # at the loader's (early-environment) copy rate.
            ctx.charge(
                ctx.costs.loader_memcpy_ns(region_bytes),
                ctx.steps.shuffle,
                label="copy text region aside for in-place shuffle",
            )
        # Write the base text at its (unmoved) location.
        base_off = base_text.vaddr - kl.LINK_VBASE
        memory.write(phys_load + base_off, base_text.data)

        start = plan.region_start
        region_paddr = phys_load + start - kl.LINK_VBASE
        region = bytearray(memory.read(region_paddr, plan.packed_end - start))
        data = memoryview(elf.data)
        for (orig_start, size, delta), src in zip(plan.moved, plan.file_offsets):
            at = orig_start + delta - start
            region[at : at + size] = data[src : src + size]
        memory.write(region_paddr, region)
        ctx.charge(
            ctx.costs.shuffle_ns(plan.n_sections, plan.moved_bytes),
            ctx.steps.shuffle,
            label=f"shuffle {plan.n_sections} sections",
        )

    # -- table fixups --------------------------------------------------------------

    def fixup_extable(
        self,
        elf: ElfImage,
        memory: GuestMemory,
        layout: LayoutResult,
        ctx: RandoContext,
    ) -> int:
        """Re-sort ``__ex_table`` by (already relocated) insn address."""
        section = elf.section("__ex_table")
        paddr = layout.phys_load + (section.vaddr - kl.LINK_VBASE)
        raw = memory.read(paddr, section.size)
        entries = tables.decode_extable(raw)
        memory.write(paddr, tables.encode_extable(entries))
        ctx.charge(
            ctx.costs.table_fixup_ns(len(entries)),
            ctx.steps.table_fixup,
            label=f"re-sort {len(entries)} extable entries",
        )
        return len(entries)

    def fixup_kallsyms(
        self,
        elf: ElfImage,
        memory: GuestMemory,
        layout: LayoutResult,
        ctx: RandoContext,
        lazy: bool,
    ) -> int:
        """Rewrite and re-sort kallsyms — or defer it (Section 4.3).

        The paper measured the eager fixup at 22% of overall boot time and
        proposes deferring it until ``/proc/kallsyms`` is first examined;
        microVM workloads typically never examine it.
        """
        if lazy:
            layout.kallsyms_fixed = False
            return 0
        section = elf.section(".kallsyms")
        paddr = layout.phys_load + (section.vaddr - kl.LINK_VBASE)
        raw = memory.read(paddr, section.size)
        entries = tables.decode_kallsyms(raw)
        fixed = [
            tables.KallsymsEntry(
                text_offset=e.text_offset
                + layout.displacement_for(kl.LINK_VBASE + e.text_offset),
                name=e.name,
            )
            for e in entries
        ]
        blob = tables.encode_kallsyms(fixed)
        if len(blob) != section.size:
            raise RandomizationError(
                f"kallsyms fixup changed blob size {section.size} -> {len(blob)}"
            )
        memory.write(paddr, blob)
        ctx.charge(
            ctx.costs.kallsyms_fixup_ns(len(entries)),
            ctx.steps.table_fixup,
            label=f"rewrite + re-sort {len(entries)} kallsyms entries",
        )
        layout.kallsyms_fixed = True
        return len(entries)

    def fixup_orc(
        self,
        elf: ElfImage,
        memory: GuestMemory,
        layout: LayoutResult,
        ctx: RandoContext,
    ) -> int:
        """Remap and re-sort the parallel ORC unwind tables (when built)."""
        if not elf.has_section(".orc_unwind_ip"):
            return 0
        ip_section = elf.section(".orc_unwind_ip")
        data_section = elf.section(".orc_unwind")
        ip_paddr = layout.phys_load + (ip_section.vaddr - kl.LINK_VBASE)
        data_paddr = layout.phys_load + (data_section.vaddr - kl.LINK_VBASE)
        offsets = tables.decode_orc_ip(memory.read(ip_paddr, ip_section.size))
        unwind = memory.read(data_paddr, data_section.size)
        pairs = []
        for i, off in enumerate(offsets):
            new_off = off + layout.displacement_for(kl.LINK_VBASE + off)
            pairs.append((new_off, unwind[2 * i : 2 * i + 2]))
        pairs.sort(key=lambda p: p[0])
        memory.write(ip_paddr, struct.pack(f"<{len(pairs)}I", *(p[0] for p in pairs)))
        memory.write(data_paddr, b"".join(p[1] for p in pairs))
        ctx.charge(
            ctx.costs.table_fixup_ns(len(pairs)),
            ctx.steps.table_fixup,
            label=f"fix {len(pairs)} ORC entries",
        )
        return len(pairs)
