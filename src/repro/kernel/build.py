"""Synthetic vmlinux builder.

Produces a genuine ELF64 kernel image whose randomization-relevant anatomy
matches what the paper's pipeline operates on:

* a non-randomized base ``.text`` holding ``startup_64`` and fixup stubs,
* ``n_functions`` generated functions — concatenated into ``.text`` for
  nokaslr/kaslr builds, or emitted as individual ``.text.<name>`` sections
  for fgkaslr builds (``-ffunction-sections``),
* ``.rodata`` with a function-pointer table, ``__ex_table``, optional ORC
  tables, a kallsyms blob, ``.data`` with pointer slots, ``.bss``,
* a full ``.symtab`` and a PVH entry note,
* a ``vmlinux.relocs`` sidecar enumerating every absolute-address site
  (64-bit add, 32-bit add, 32-bit inverse — Section 3.2).

Every function body carries a canonical prologue and a unique identity tag
so the post-boot verifier can prove where each function actually landed.
"""

from __future__ import annotations

import random
import struct
import zlib
from dataclasses import dataclass

from repro.elf import constants as ec
from repro.elf.notes import pack_notes, pvh_entry_note
from repro.elf.reader import ElfImage
from repro.elf.relocs import RelocationTable, RelocType
from repro.elf.structs import Section, SegmentSpec, Symbol
from repro.elf.writer import ElfWriter
from repro.errors import KernelBuildError
from repro.kernel import layout as kl
from repro.kernel import tables
from repro.kernel.config import KernelConfig, KernelVariant
from repro.kernel.constants_note import KernelConstants
from repro.kernel.image import KernelImage
from repro.kernel.manifest import (
    BASE_SYMBOL_NAMES,
    FUNCTION_PROLOGUE,
    ID_TAG_OFFSET,
    ID_TAG_SIZE,
    BuildManifest,
    FunctionInfo,
    RelocSiteInfo,
    function_id_tag,
)
from repro.kernel.naming import generate_names

_SLOT_STRIDE = 8  # every reloc slot occupies 8 aligned bytes
_BODY_HEADER = ID_TAG_OFFSET + ID_TAG_SIZE  # prologue + id tag
_RET = b"\xc3"
_N_BASE_SYMBOLS = 16
_BASE_SYMBOL_SPACING = 256

# Fraction of relocation sites placed per region (remainder goes to text).
_RODATA_SITE_FRACTION = 0.25
_DATA_SITE_FRACTION = 0.15

# Relocation class mix for text/data sites (rodata tables are all ABS64).
_CLASS_MIX = (
    (RelocType.ABS64, 0.45),
    (RelocType.ABS32, 0.45),
    (RelocType.INV32, 0.10),
)

@dataclass
class _Slot:
    """A reserved relocation slot awaiting its value."""

    reloc_type: RelocType
    link_offset: int  # from image start
    target_symbol: str
    target_addend: int
    in_extable: bool = False


def _make_patterns(rng: random.Random) -> list[bytes]:
    """A small alphabet of pseudo-instruction byte patterns.

    Real kernel text compresses roughly 3-5x (Table 1); drawing filler from
    a limited alphabet gives the codecs comparable redundancy.
    """
    patterns = []
    for _ in range(48):
        length = rng.choice([8, 12, 16, 24])
        patterns.append(bytes(rng.randrange(256) for _ in range(length)))
    return patterns


def _filler(rng: random.Random, patterns: list[bytes], n: int) -> bytes:
    out = bytearray()
    while len(out) < n:
        out += rng.choice(patterns)
    return bytes(out[:n])


class _KernelBuilder:
    """One build invocation; see :func:`build_kernel`."""

    def __init__(
        self,
        config: KernelConfig,
        variant: KernelVariant,
        scale: int,
        seed: int,
        emit_rela: bool = False,
    ) -> None:
        self.emit_rela = emit_rela
        self.paper_config = config
        self.config = config.scaled(scale)
        self.config.validate()
        self.variant = variant
        self.scale = scale
        self.seed = seed
        # zlib.crc32, not hash(): str hashing is salted per process and
        # would make builds non-deterministic across runs.
        self.rng = random.Random(
            (seed << 8) ^ zlib.crc32(config.name.encode("ascii"))
        )
        self.patterns = _make_patterns(self.rng)
        self.manifest = BuildManifest(
            config=self.config,
            variant=variant,
            scale=scale,
            seed=seed,
            entry_vaddr=kl.LINK_VBASE,
        )
        self.slots: list[_Slot] = []

    # -- layout ------------------------------------------------------------------

    def build(self) -> KernelImage:
        cfg = self.config
        base_text_size = kl.align_up(max(16 * 1024, cfg.text_bytes // 32), 4096)
        func_names = generate_names(cfg.n_functions, self.seed)
        func_sizes = self._function_sizes(cfg.text_bytes - base_text_size)

        # Function placement directly after base .text, 16-byte aligned.
        cursor = kl.LINK_VBASE + base_text_size
        functions: list[FunctionInfo] = []
        for name, size in zip(func_names, func_sizes):
            section = f".text.{name}" if self.variant.function_sections else ".text"
            functions.append(
                FunctionInfo(name=name, link_vaddr=cursor, size=size, section=section)
            )
            cursor += size  # sizes are 16-byte multiples, so stay aligned
        text_end = kl.align_up(cursor, 4096)

        rodata_vaddr = text_end
        extable_vaddr = kl.align_up(rodata_vaddr + cfg.rodata_bytes, 16)
        extable_size = cfg.n_extable * tables.EXTABLE_ENTRY_SIZE
        orc_ip_vaddr = kl.align_up(extable_vaddr + extable_size, 16)
        n_orc = cfg.n_extable * 4 if cfg.has_orc else 0
        orc_ip_size = n_orc * tables.ORC_IP_ENTRY_SIZE
        orc_data_vaddr = kl.align_up(orc_ip_vaddr + orc_ip_size, 16)
        orc_data_size = n_orc * tables.ORC_DATA_ENTRY_SIZE
        kallsyms_vaddr = kl.align_up(orc_data_vaddr + orc_data_size, 16)

        base_symbols = self._base_symbol_map(base_text_size)
        kallsyms_blob = self._build_kallsyms(functions, base_symbols)
        data_vaddr = kl.align_up(kallsyms_vaddr + len(kallsyms_blob), 4096)
        bss_vaddr = kl.align_up(data_vaddr + cfg.data_bytes, 4096)
        image_end = bss_vaddr  # file image ends where .bss begins

        self.manifest.functions = functions
        self.manifest.symbols = dict(base_symbols)
        self.manifest.symbols.update(
            {
                "_text": kl.LINK_VBASE,
                "_etext": text_end,
                "__ex_table_start": extable_vaddr,
                "_sdata": data_vaddr,
                "_edata": data_vaddr + cfg.data_bytes,
                "__bss_start": bss_vaddr,
                "_end": bss_vaddr + cfg.bss_bytes,
            }
        )
        self.manifest.index()

        # -- choose relocation sites -------------------------------------
        n_sites = cfg.n_relocs(self.variant)
        extable_sites = 2 * cfg.n_extable if self.variant.relocatable else 0
        n_free_sites = max(0, n_sites - extable_sites)
        n_rodata_sites = int(n_free_sites * _RODATA_SITE_FRACTION)
        n_data_sites = int(n_free_sites * _DATA_SITE_FRACTION)
        n_text_sites = n_free_sites - n_rodata_sites - n_data_sites
        all_targets = [f.name for f in functions] + list(base_symbols)

        text_slot_plan = self._plan_text_slots(functions, n_text_sites, all_targets)
        extable_entries = self._plan_extable(functions, extable_vaddr)
        rodata_blob = self._build_rodata(
            rodata_vaddr, cfg.rodata_bytes, n_rodata_sites, all_targets
        )
        data_blob = self._build_data(
            data_vaddr, cfg.data_bytes, n_data_sites, all_targets
        )

        # -- emit ELF -------------------------------------------------------
        writer = ElfWriter(entry=kl.LINK_VBASE)
        self._emit_text(
            writer, base_text_size, base_symbols, functions, text_slot_plan
        )
        writer.add_section(
            Section(
                ".rodata",
                flags=ec.SHF_ALLOC,
                vaddr=rodata_vaddr,
                data=rodata_blob,
                align=4096,
            )
        )
        writer.add_section(
            Section(
                "__ex_table",
                flags=ec.SHF_ALLOC,
                vaddr=extable_vaddr,
                data=tables.encode_extable(extable_entries),
                align=16,
                entsize=tables.EXTABLE_ENTRY_SIZE,
            )
        )
        if cfg.has_orc:
            orc_offsets = self._plan_orc(functions, n_orc)
            writer.add_section(
                Section(
                    ".orc_unwind_ip",
                    flags=ec.SHF_ALLOC,
                    vaddr=orc_ip_vaddr,
                    data=tables.encode_orc_ip(orc_offsets),
                    align=16,
                )
            )
            writer.add_section(
                Section(
                    ".orc_unwind",
                    flags=ec.SHF_ALLOC,
                    vaddr=orc_data_vaddr,
                    data=tables.encode_orc_data(n_orc, self.seed),
                    align=16,
                )
            )
        writer.add_section(
            Section(
                ".kallsyms",
                flags=ec.SHF_ALLOC,
                vaddr=kallsyms_vaddr,
                data=kallsyms_blob,
                align=16,
            )
        )
        writer.add_section(
            Section(
                ".data",
                flags=ec.SHF_ALLOC | ec.SHF_WRITE,
                vaddr=data_vaddr,
                data=data_blob,
                align=4096,
            )
        )
        writer.add_section(
            Section(
                ".bss",
                sh_type=ec.SHT_NOBITS,
                flags=ec.SHF_ALLOC | ec.SHF_WRITE,
                vaddr=bss_vaddr,
                nobits_size=cfg.bss_bytes,
                align=4096,
            )
        )
        writer.add_section(
            Section(
                ".notes",
                sh_type=ec.SHT_NOTE,
                flags=ec.SHF_ALLOC,
                vaddr=0,
                data=pack_notes(
                    [
                        pvh_entry_note(kl.PHYS_LOAD_ADDR),
                        KernelConstants().pack_note(),
                    ]
                ),
                align=4,
            )
        )
        self._emit_symbols(writer, base_symbols, functions)
        self._emit_segments(writer, cfg, functions, rodata_vaddr, data_vaddr)
        if self.emit_rela and self.variant.relocatable:
            writer.add_section(
                Section(
                    ".rela.kernel",
                    sh_type=ec.SHT_RELA,
                    data=self._rela_blob(),
                    align=8,
                    entsize=24,
                )
            )
        vmlinux = writer.build()

        # Loading relies on file-offset deltas equalling vaddr deltas within
        # each segment; assert it rather than trust the layout arithmetic.
        self._check_segment_contiguity(vmlinux)

        relocs = self._build_relocs() if self.variant.relocatable else None
        self.manifest.sections = {
            ".rodata": (rodata_vaddr, len(rodata_blob)),
            "__ex_table": (extable_vaddr, extable_size),
            ".kallsyms": (kallsyms_vaddr, len(kallsyms_blob)),
            ".data": (data_vaddr, len(data_blob)),
            ".bss": (bss_vaddr, cfg.bss_bytes),
            ".text": (kl.LINK_VBASE, base_text_size),
        }
        self.manifest.n_extable = cfg.n_extable
        self.manifest.n_orc = n_orc
        self.manifest.n_kallsyms = len(functions) + len(base_symbols)
        self.manifest.image_bytes = image_end - kl.LINK_VBASE
        self.manifest.mem_bytes = image_end - kl.LINK_VBASE + cfg.bss_bytes
        self.manifest.reloc_sites = [
            RelocSiteInfo(
                reloc_type=s.reloc_type,
                link_offset=s.link_offset,
                target_symbol=s.target_symbol,
                target_addend=s.target_addend,
                in_extable=s.in_extable,
            )
            for s in self.slots
        ]
        return KernelImage(
            vmlinux=vmlinux,
            relocs=relocs.encode() if relocs else None,
            manifest=self.manifest,
            config=self.config,
            paper_config=self.paper_config,
            variant=self.variant,
            scale=self.scale,
        )

    # -- pieces ------------------------------------------------------------------

    def _function_sizes(self, budget: int) -> list[int]:
        n = self.config.n_functions
        raw = [self.rng.lognormvariate(0.0, 0.55) for _ in range(n)]
        total = sum(raw)
        sizes = []
        for r in raw:
            size = int(budget * r / total)
            size = max(96, kl.align_up(size, 16))
            sizes.append(size)
        return sizes

    def _base_symbol_map(self, base_text_size: int) -> dict[str, int]:
        symbols = {}
        for i, name in enumerate(BASE_SYMBOL_NAMES):
            offset = i * _BASE_SYMBOL_SPACING
            if offset + _BASE_SYMBOL_SPACING > base_text_size:
                raise KernelBuildError("base .text too small for base symbols")
            symbols[name] = kl.LINK_VBASE + offset
        return symbols

    def _target(self, all_targets: list[str]) -> tuple[str, int]:
        name = self.rng.choice(all_targets)
        return name, 0

    def _plan_text_slots(
        self,
        functions: list[FunctionInfo],
        n_sites: int,
        all_targets: list[str],
    ) -> dict[str, list[_Slot]]:
        """Distribute in-body relocation slots across functions."""
        plan: dict[str, list[_Slot]] = {f.name: [] for f in functions}
        capacities = {
            f.name: max(0, (f.size - _BODY_HEADER - 1) // _SLOT_STRIDE)
            for f in functions
        }
        order = [f for f in functions if capacities[f.name] > 0]
        placed = 0
        guard = 0
        while placed < n_sites and order:
            func = order[placed % len(order)]
            used = len(plan[func.name])
            if used < capacities[func.name]:
                slot_offset = _BODY_HEADER + used * _SLOT_STRIDE
                reloc_type = self._pick_class()
                target, addend = self._target(all_targets)
                slot = _Slot(
                    reloc_type=reloc_type,
                    link_offset=func.link_vaddr - kl.LINK_VBASE + slot_offset,
                    target_symbol=target,
                    target_addend=addend,
                )
                plan[func.name].append(slot)
                self.slots.append(slot)
                placed += 1
                guard = 0
            else:
                order.remove(func)
                guard += 1
                if guard > len(functions) + 1:
                    break
        if placed < n_sites:
            raise KernelBuildError(
                f"could not place {n_sites} text relocation sites "
                f"(placed {placed}); increase text size"
            )
        return plan

    def _pick_class(self) -> RelocType:
        roll = self.rng.random()
        acc = 0.0
        for reloc_type, weight in _CLASS_MIX:
            acc += weight
            if roll < acc:
                return reloc_type
        return _CLASS_MIX[-1][0]

    def _plan_extable(
        self, functions: list[FunctionInfo], extable_vaddr: int
    ) -> list[tables.ExtableEntry]:
        """Exception-table entries; both fields are ABS64 reloc sites."""
        entries = []
        for i in range(self.config.n_extable):
            func = self.rng.choice(functions)
            insn_addend = self.rng.randrange(_BODY_HEADER, max(func.size - 1, 17))
            fixup_name = f"ex_fixup_{i % 8}"
            entries.append(
                tables.ExtableEntry(
                    insn_vaddr=func.link_vaddr + insn_addend,
                    fixup_vaddr=self.manifest.symbols.get(fixup_name, 0)
                    or kl.LINK_VBASE,
                )
            )
            self.manifest.extable_targets.append((func.name, insn_addend, fixup_name))
            if self.variant.relocatable:
                entry_off = extable_vaddr - kl.LINK_VBASE + i * 16
                self.slots.append(
                    _Slot(
                        RelocType.ABS64, entry_off, func.name, insn_addend,
                        in_extable=True,
                    )
                )
                self.slots.append(
                    _Slot(
                        RelocType.ABS64, entry_off + 8, fixup_name, 0,
                        in_extable=True,
                    )
                )
        # NOTE: entries are encoded sorted by insn_vaddr; the reloc sites
        # recorded above must match the *sorted* order.
        order = sorted(range(len(entries)), key=lambda i: entries[i].insn_vaddr)
        if self.variant.relocatable:
            tail = self.slots[-2 * len(entries) :]
            pairs = [(tail[2 * i], tail[2 * i + 1]) for i in range(len(entries))]
            del self.slots[-2 * len(entries) :]
            for new_index, old_index in enumerate(order):
                insn_slot, fixup_slot = pairs[old_index]
                base = extable_vaddr - kl.LINK_VBASE + new_index * 16
                insn_slot.link_offset = base
                fixup_slot.link_offset = base + 8
                self.slots.append(insn_slot)
                self.slots.append(fixup_slot)
        return entries

    def _plan_orc(self, functions: list[FunctionInfo], n_orc: int) -> list[int]:
        offsets = []
        for _ in range(n_orc):
            func = self.rng.choice(functions)
            addend = self.rng.randrange(0, max(func.size - 1, 1))
            offsets.append(func.link_vaddr + addend - kl.LINK_VBASE)
        return offsets

    def _build_kallsyms(
        self, functions: list[FunctionInfo], base_symbols: dict[str, int]
    ) -> bytes:
        entries = [
            tables.KallsymsEntry(f.link_vaddr - kl.LINK_VBASE, f.name)
            for f in functions
        ]
        entries += [
            tables.KallsymsEntry(vaddr - kl.LINK_VBASE, name)
            for name, vaddr in base_symbols.items()
        ]
        return tables.encode_kallsyms(entries)

    def _slot_bytes(self, slot: _Slot) -> bytes:
        """Link-time value stored at a slot (8 bytes, 4-byte types padded)."""
        target = self.manifest.symbol_link_vaddr(slot.target_symbol)
        vaddr = target + slot.target_addend
        if slot.reloc_type is RelocType.ABS64:
            return struct.pack("<Q", vaddr)
        if slot.reloc_type is RelocType.ABS32:
            return struct.pack("<I", vaddr & 0xFFFFFFFF) + b"\x66\x90\x66\x90"
        # INV32: stores the negated low 32 bits (per-CPU-style); randomizing
        # by +offset requires subtracting offset from the stored value.
        return struct.pack("<I", (-vaddr) & 0xFFFFFFFF) + b"\x66\x90\x66\x90"

    def _function_body(self, func: FunctionInfo, slots: list[_Slot]) -> bytes:
        body = bytearray(FUNCTION_PROLOGUE)
        body += function_id_tag(func.name)
        for slot in slots:
            body += self._slot_bytes(slot)
        filler_len = func.size - len(body) - 1
        body += _filler(self.rng, self.patterns, filler_len)
        body += _RET
        if len(body) != func.size:
            raise KernelBuildError(
                f"function {func.name} body {len(body)} != size {func.size}"
            )
        return bytes(body)

    def _base_text_blob(self, base_text_size: int) -> bytes:
        blob = bytearray()
        for name in BASE_SYMBOL_NAMES:
            chunk = bytearray(FUNCTION_PROLOGUE)
            chunk += function_id_tag(name)
            chunk += _filler(
                self.rng, self.patterns, _BASE_SYMBOL_SPACING - len(chunk) - 1
            )
            chunk += _RET
            blob += chunk
        blob += _filler(self.rng, self.patterns, base_text_size - len(blob))
        return bytes(blob)

    def _build_rodata(
        self, rodata_vaddr: int, size: int, n_sites: int, all_targets: list[str]
    ) -> bytes:
        """Function-pointer tables (ABS64 sites) followed by string data."""
        table_bytes = n_sites * 8
        if table_bytes > size:
            raise KernelBuildError(".rodata too small for its pointer table")
        blob = bytearray()
        for i in range(n_sites):
            target, addend = self._target(all_targets)
            slot = _Slot(
                RelocType.ABS64,
                rodata_vaddr - kl.LINK_VBASE + i * 8,
                target,
                addend,
            )
            self.slots.append(slot)
            blob += self._slot_bytes(slot)
        blob += _filler(self.rng, self.patterns, size - len(blob))
        return bytes(blob)

    def _build_data(
        self, data_vaddr: int, size: int, n_sites: int, all_targets: list[str]
    ) -> bytes:
        blob = bytearray()
        for i in range(n_sites):
            reloc_type = self._pick_class()
            target, addend = self._target(all_targets)
            slot = _Slot(
                reloc_type, data_vaddr - kl.LINK_VBASE + i * 8, target, addend
            )
            self.slots.append(slot)
            blob += self._slot_bytes(slot)
        if len(blob) > size:
            raise KernelBuildError(".data too small for its pointer slots")
        blob += _filler(self.rng, self.patterns, size - len(blob))
        return bytes(blob)

    def _emit_text(
        self,
        writer: ElfWriter,
        base_text_size: int,
        base_symbols: dict[str, int],
        functions: list[FunctionInfo],
        slot_plan: dict[str, list[_Slot]],
    ) -> None:
        base_blob = self._base_text_blob(base_text_size)
        if self.variant.function_sections:
            writer.add_section(
                Section(
                    ".text",
                    flags=ec.SHF_ALLOC | ec.SHF_EXECINSTR,
                    vaddr=kl.LINK_VBASE,
                    data=base_blob,
                    align=4096,
                )
            )
            for func in functions:
                writer.add_section(
                    Section(
                        func.section,
                        flags=ec.SHF_ALLOC | ec.SHF_EXECINSTR,
                        vaddr=func.link_vaddr,
                        data=self._function_body(func, slot_plan[func.name]),
                        align=16,
                    )
                )
        else:
            text = bytearray(base_blob)
            for func in functions:
                expected = func.link_vaddr - kl.LINK_VBASE
                if len(text) != expected:
                    raise KernelBuildError(
                        f"text layout drift at {func.name}: {len(text)} != {expected}"
                    )
                text += self._function_body(func, slot_plan[func.name])
            writer.add_section(
                Section(
                    ".text",
                    flags=ec.SHF_ALLOC | ec.SHF_EXECINSTR,
                    vaddr=kl.LINK_VBASE,
                    data=bytes(text),
                    align=4096,
                )
            )

    def _emit_symbols(
        self,
        writer: ElfWriter,
        base_symbols: dict[str, int],
        functions: list[FunctionInfo],
    ) -> None:
        for name, vaddr in base_symbols.items():
            writer.add_symbol(
                Symbol(name, vaddr, _BASE_SYMBOL_SPACING, section=".text")
            )
        for func in functions:
            writer.add_symbol(
                Symbol(func.name, func.link_vaddr, func.size, section=func.section)
            )
        for name in ("_text", "_etext", "_sdata", "_edata", "__bss_start", "_end"):
            writer.add_symbol(
                Symbol(
                    name,
                    self.manifest.symbols[name],
                    0,
                    sym_type=ec.STT_NOTYPE,
                    section=None,
                )
            )

    def _emit_segments(
        self,
        writer: ElfWriter,
        cfg: KernelConfig,
        functions: list[FunctionInfo],
        rodata_vaddr: int,
        data_vaddr: int,
    ) -> None:
        def paddr_of(vaddr: int) -> int:
            return vaddr - kl.LINK_VBASE + kl.PHYS_LOAD_ADDR

        text_sections = [".text"] + (
            [f.section for f in functions] if self.variant.function_sections else []
        )
        writer.add_segment(
            SegmentSpec(
                sections=text_sections,
                flags=ec.PF_R | ec.PF_X,
                paddr=paddr_of(kl.LINK_VBASE),
            )
        )
        ro_sections = [".rodata", "__ex_table"]
        if cfg.has_orc:
            ro_sections += [".orc_unwind_ip", ".orc_unwind"]
        ro_sections.append(".kallsyms")
        writer.add_segment(
            SegmentSpec(
                sections=ro_sections,
                flags=ec.PF_R,
                paddr=paddr_of(rodata_vaddr),
            )
        )
        writer.add_segment(
            SegmentSpec(
                sections=[".data", ".bss"],
                flags=ec.PF_R | ec.PF_W,
                paddr=paddr_of(data_vaddr),
            )
        )

    def _check_segment_contiguity(self, vmlinux: bytes) -> None:
        image = ElfImage(vmlinux)
        for phdr in image.load_segments():
            for section in image.sections:
                if not section.flags & ec.SHF_ALLOC or section.size == 0:
                    continue
                if section.sh_type == ec.SHT_NOBITS:
                    continue
                if phdr.p_vaddr <= section.vaddr < phdr.p_vaddr + phdr.p_filesz:
                    expected = phdr.p_offset + (section.vaddr - phdr.p_vaddr)
                    if section.header.sh_offset != expected:
                        raise KernelBuildError(
                            f"section {section.name} file offset "
                            f"{section.header.sh_offset:#x} != expected {expected:#x}"
                        )

    def _rela_blob(self) -> bytes:
        """Standard ELF RELA entries for every slot (pre-extraction vmlinux).

        Linux's host-side ``relocs`` tool reads exactly these sections to
        produce vmlinux.relocs; :mod:`repro.tools.relocs` mirrors it.
        INV32 sites are emitted as ``R_X86_64_32S`` — the type Linux's tool
        classifies as inverse when it targets the per-CPU segment.
        """
        from repro.elf.structs import Elf64Rela

        type_for = {
            RelocType.ABS64: ec.R_X86_64_64,
            RelocType.ABS32: ec.R_X86_64_32,
            RelocType.INV32: ec.R_X86_64_32S,
        }
        out = bytearray()
        for slot in sorted(self.slots, key=lambda s: s.link_offset):
            out += Elf64Rela(
                r_offset=kl.LINK_VBASE + slot.link_offset,
                r_info=Elf64Rela.info(0, type_for[slot.reloc_type]),
            ).pack()
        return bytes(out)

    def _build_relocs(self) -> RelocationTable:
        table = RelocationTable()
        for slot in self.slots:
            table.add(slot.reloc_type, slot.link_offset)
        return table.sorted()


def build_kernel(
    config: KernelConfig,
    variant: KernelVariant = KernelVariant.KASLR,
    scale: int = 16,
    seed: int = 0,
    emit_rela: bool = False,
) -> KernelImage:
    """Build one synthetic kernel image.

    ``scale`` divides the paper-scale sizes/counts in ``config``
    (DESIGN.md §7); ``seed`` makes the build fully deterministic.
    ``emit_rela`` additionally embeds standard ``.rela`` sections (the
    pre-extraction vmlinux Linux's ``relocs`` host tool consumes); the
    default models the distributed image whose relocation info already
    lives in the sidecar.
    """
    return _KernelBuilder(config, variant, scale, seed, emit_rela=emit_rela).build()
