"""ELF64 writer.

Lays out sections in the order given, builds ``.shstrtab`` (and
``.symtab``/``.strtab`` when symbols are supplied), emits program headers
derived from :class:`~repro.elf.structs.SegmentSpec`, and returns the full
file bytes.  The output is a conforming ELF64 executable that
:class:`repro.elf.reader.ElfImage` (or any other ELF reader) can parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elf import constants as c
from repro.elf.structs import (
    Elf64Ehdr,
    Elf64Phdr,
    Elf64Shdr,
    Elf64Sym,
    Section,
    SegmentSpec,
    Symbol,
)
from repro.errors import ElfLayoutError


def _align_up(value: int, align: int) -> int:
    if align <= 1:
        return value
    return (value + align - 1) & ~(align - 1)


@dataclass
class _LaidOutSection:
    section: Section
    file_offset: int
    name_offset: int = 0
    index: int = 0


@dataclass
class ElfWriter:
    """Accumulates sections/symbols/segments and emits ELF64 bytes."""

    entry: int = 0
    e_type: int = c.ET_EXEC
    sections: list[Section] = field(default_factory=list)
    symbols: list[Symbol] = field(default_factory=list)
    segments: list[SegmentSpec] = field(default_factory=list)
    #: names of ``sections``, so a duplicate is caught without a rescan
    _names: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._names = {s.name for s in self.sections}
        if len(self._names) < len(self.sections):
            raise ElfLayoutError("duplicate section name among the given sections")

    def add_section(self, section: Section) -> Section:
        if section.name in self._names:
            raise ElfLayoutError(f"duplicate section name {section.name!r}")
        self._names.add(section.name)
        self.sections.append(section)
        return section

    def add_symbol(self, symbol: Symbol) -> Symbol:
        self.symbols.append(symbol)
        return symbol

    def add_segment(self, segment: SegmentSpec) -> SegmentSpec:
        self.segments.append(segment)
        return segment

    # -- emission ------------------------------------------------------------

    def build(self) -> bytes:
        """Lay everything out and return the ELF file bytes."""
        sections = list(self.sections)
        section_index = {s.name: i + 1 for i, s in enumerate(sections)}

        symtab_data, strtab_data = self._build_symtab(section_index, sections)
        if symtab_data is not None:
            sections.append(
                Section(
                    name=".symtab",
                    sh_type=c.SHT_SYMTAB,
                    data=symtab_data,
                    align=8,
                    entsize=c.SYM_SIZE,
                )
            )
            sections.append(
                Section(name=".strtab", sh_type=c.SHT_STRTAB, data=strtab_data, align=1)
            )

        shstrtab, name_offsets = self._build_shstrtab(sections)
        sections.append(
            Section(name=".shstrtab", sh_type=c.SHT_STRTAB, data=shstrtab, align=1)
        )
        name_offsets[".shstrtab"] = self._shstrtab_own_offset

        # Rebuild the index map now that bookkeeping sections are appended.
        section_index = {s.name: i + 1 for i, s in enumerate(sections)}

        phnum = len(self.segments)
        file_pos = c.EHDR_SIZE + phnum * c.PHDR_SIZE
        laid_out: list[_LaidOutSection] = []
        for i, section in enumerate(sections):
            file_pos = _align_up(file_pos, max(section.align, 1))
            laid_out.append(
                _LaidOutSection(
                    section=section,
                    file_offset=file_pos,
                    name_offset=name_offsets[section.name],
                    index=i + 1,
                )
            )
            file_pos += section.file_size
        shoff = _align_up(file_pos, 8)

        by_name = {ls.section.name: ls for ls in laid_out}
        phdrs = [self._segment_phdr(spec, by_name) for spec in self.segments]

        ehdr = Elf64Ehdr(
            e_type=self.e_type,
            e_entry=self.entry,
            e_phoff=c.EHDR_SIZE if phnum else 0,
            e_shoff=shoff,
            e_phnum=phnum,
            e_shnum=len(sections) + 1,  # +1 for the SHT_NULL entry
            e_shstrndx=section_index[".shstrtab"],
        )

        out = bytearray(shoff + (len(sections) + 1) * c.SHDR_SIZE)
        out[: c.EHDR_SIZE] = ehdr.pack()
        pos = c.EHDR_SIZE
        for phdr in phdrs:
            out[pos : pos + c.PHDR_SIZE] = phdr.pack()
            pos += c.PHDR_SIZE
        for ls in laid_out:
            if ls.section.file_size:
                out[ls.file_offset : ls.file_offset + ls.section.file_size] = (
                    ls.section.data
                )

        # Section header table: null entry then one per section.
        pos = shoff + c.SHDR_SIZE
        symtab_index = section_index.get(".symtab")
        strtab_index = section_index.get(".strtab")
        n_local_syms = 1 + sum(1 for s in self.symbols if s.bind == c.STB_LOCAL)
        for ls in laid_out:
            shdr = Elf64Shdr(
                sh_name=ls.name_offset,
                sh_type=ls.section.sh_type,
                sh_flags=ls.section.flags,
                sh_addr=ls.section.vaddr,
                sh_offset=ls.file_offset,
                sh_size=ls.section.mem_size,
                sh_addralign=max(ls.section.align, 1),
                sh_entsize=ls.section.entsize,
            )
            if ls.section.name == ".symtab" and strtab_index is not None:
                shdr.sh_link = strtab_index
                shdr.sh_info = n_local_syms
            out[pos : pos + c.SHDR_SIZE] = shdr.pack()
            pos += c.SHDR_SIZE
        assert symtab_index is None or symtab_index > 0
        return bytes(out)

    # -- internals -------------------------------------------------------------

    def _build_shstrtab(
        self, sections: list[Section]
    ) -> tuple[bytes, dict[str, int]]:
        blob = bytearray(b"\x00")
        offsets: dict[str, int] = {}
        for section in sections:
            offsets[section.name] = len(blob)
            blob += section.name.encode("ascii") + b"\x00"
        self._shstrtab_own_offset = len(blob)
        blob += b".shstrtab\x00"
        return bytes(blob), offsets

    def _build_symtab(
        self, section_index: dict[str, int], sections: list[Section]
    ) -> tuple[bytes | None, bytes | None]:
        if not self.symbols:
            return None, None
        strtab = bytearray(b"\x00")
        entries = bytearray(Elf64Sym().pack())  # index 0: undefined symbol
        # ELF requires local symbols before globals.
        ordered = sorted(self.symbols, key=lambda s: 0 if s.bind == c.STB_LOCAL else 1)
        for symbol in ordered:
            name_off = len(strtab)
            strtab += symbol.name.encode("ascii") + b"\x00"
            if symbol.section is None:
                shndx = c.SHN_ABS
            else:
                try:
                    shndx = section_index[symbol.section]
                except KeyError:
                    raise ElfLayoutError(
                        f"symbol {symbol.name!r} references unknown section "
                        f"{symbol.section!r}"
                    ) from None
            entries += Elf64Sym(
                st_name=name_off,
                st_info=Elf64Sym.info(symbol.bind, symbol.sym_type),
                st_shndx=shndx,
                st_value=symbol.value,
                st_size=symbol.size,
            ).pack()
        return bytes(entries), bytes(strtab)

    def _segment_phdr(
        self, spec: SegmentSpec, by_name: dict[str, _LaidOutSection]
    ) -> Elf64Phdr:
        if not spec.sections:
            raise ElfLayoutError("segment spec lists no sections")
        try:
            members = [by_name[name] for name in spec.sections]
        except KeyError as exc:
            raise ElfLayoutError(f"segment references unknown section {exc}") from None
        vaddrs = [m.section.vaddr for m in members]
        start = min(vaddrs)
        file_members = [m for m in members if m.section.file_size]
        if file_members:
            first = min(file_members, key=lambda m: m.file_offset)
            offset = first.file_offset
            filesz = (
                max(m.file_offset + m.section.file_size for m in file_members) - offset
            )
        else:
            offset, filesz = 0, 0
        memsz = max(m.section.vaddr + m.section.mem_size for m in members) - start
        if filesz > memsz:
            raise ElfLayoutError(
                f"segment file size {filesz} exceeds memory size {memsz}"
            )
        return Elf64Phdr(
            p_type=spec.p_type,
            p_flags=spec.flags,
            p_offset=offset,
            p_vaddr=start,
            p_paddr=spec.paddr if spec.paddr is not None else start,
            p_filesz=filesz,
            p_memsz=memsz,
            p_align=spec.align,
        )
