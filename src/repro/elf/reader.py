"""ELF64 reader.

Parses the files produced by :class:`repro.elf.writer.ElfWriter` (or any
conforming ELF64 little-endian executable) into an :class:`ElfImage` with
named-section lookup, symbol iteration, and segment access — everything the
bzImage linker, the bootstrap loader, and the in-monitor randomizer need.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro.elf import constants as c
from repro.elf.structs import Elf64Ehdr, Elf64Phdr, Elf64Shdr, Elf64Sym
from repro.errors import ElfParseError


@dataclass(frozen=True)
class ParsedSection:
    """A section header joined with its name and payload view."""

    name: str
    header: Elf64Shdr
    data: bytes

    @property
    def vaddr(self) -> int:
        return self.header.sh_addr

    @property
    def size(self) -> int:
        return self.header.sh_size

    @property
    def flags(self) -> int:
        return self.header.sh_flags

    @property
    def sh_type(self) -> int:
        return self.header.sh_type


@dataclass(frozen=True)
class ParsedSymbol:
    """A symbol joined with its name."""

    name: str
    value: int
    size: int
    bind: int
    sym_type: int
    shndx: int


class ElfImage:
    """An immutable parsed view over ELF64 file bytes."""

    def __init__(self, data: bytes) -> None:
        self.data = bytes(data)
        self.ehdr = Elf64Ehdr.unpack(self.data)
        self._sections: list[ParsedSection] = []
        self._by_name: dict[str, ParsedSection] = {}
        self._parse_sections()

    # -- construction ----------------------------------------------------------

    def _parse_sections(self) -> None:
        eh = self.ehdr
        if eh.e_shoff == 0 or eh.e_shnum == 0:
            return
        end = eh.e_shoff + eh.e_shnum * c.SHDR_SIZE
        if end > len(self.data):
            raise ElfParseError(
                f"section header table [{eh.e_shoff}, {end}) exceeds file size "
                f"{len(self.data)}"
            )
        headers = [
            Elf64Shdr.unpack(self.data, eh.e_shoff + i * c.SHDR_SIZE)
            for i in range(eh.e_shnum)
        ]
        if not 0 <= eh.e_shstrndx < len(headers):
            raise ElfParseError(f"bad e_shstrndx {eh.e_shstrndx}")
        shstr = headers[eh.e_shstrndx]
        strtab = self.data[shstr.sh_offset : shstr.sh_offset + shstr.sh_size]
        for header in headers:
            name = self._strtab_name(strtab, header.sh_name)
            if header.sh_type in (c.SHT_NULL, c.SHT_NOBITS):
                payload = b""
            else:
                hi = header.sh_offset + header.sh_size
                if hi > len(self.data):
                    raise ElfParseError(
                        f"section {name!r} data [{header.sh_offset}, {hi}) exceeds "
                        f"file size {len(self.data)}"
                    )
                payload = self.data[header.sh_offset : hi]
            parsed = ParsedSection(name=name, header=header, data=payload)
            self._sections.append(parsed)
            if name and name not in self._by_name:
                self._by_name[name] = parsed

    @staticmethod
    def _strtab_name(strtab: bytes, offset: int) -> str:
        if offset >= len(strtab):
            raise ElfParseError(f"string-table offset {offset} out of range")
        end = strtab.find(b"\x00", offset)
        if end < 0:
            raise ElfParseError(
                f"string at table offset {offset} is not NUL-terminated"
            )
        try:
            return strtab[offset:end].decode("ascii")
        except UnicodeDecodeError as exc:
            raise ElfParseError(
                f"string at table offset {offset} is not ASCII: {exc}"
            ) from None

    # -- accessors --------------------------------------------------------------

    @property
    def entry(self) -> int:
        return self.ehdr.e_entry

    @property
    def sections(self) -> list[ParsedSection]:
        return list(self._sections)

    def section(self, name: str) -> ParsedSection:
        try:
            return self._by_name[name]
        except KeyError:
            raise ElfParseError(f"no section named {name!r}") from None

    def has_section(self, name: str) -> bool:
        return name in self._by_name

    def sections_with_prefix(self, prefix: str) -> list[ParsedSection]:
        return [s for s in self._sections if s.name.startswith(prefix)]

    @cached_property
    def digest(self) -> str:
        """Hex SHA-256 of the file bytes (hashed once; the bytes never change)."""
        return hashlib.sha256(self.data).hexdigest()

    @cached_property
    def segments(self) -> list[Elf64Phdr]:
        eh = self.ehdr
        if eh.e_phoff == 0 or eh.e_phnum == 0:
            return []
        end = eh.e_phoff + eh.e_phnum * c.PHDR_SIZE
        if end > len(self.data):
            raise ElfParseError("program header table exceeds file size")
        return [
            Elf64Phdr.unpack(self.data, eh.e_phoff + i * c.PHDR_SIZE)
            for i in range(eh.e_phnum)
        ]

    def load_segments(self) -> list[Elf64Phdr]:
        return [p for p in self.segments if p.p_type == c.PT_LOAD]

    def segment_bytes(self, phdr: Elf64Phdr) -> bytes:
        hi = phdr.p_offset + phdr.p_filesz
        if hi > len(self.data):
            raise ElfParseError("segment file range exceeds file size")
        return self.data[phdr.p_offset : hi]

    @cached_property
    def symbols(self) -> list[ParsedSymbol]:
        if ".symtab" not in self._by_name:
            return []
        symtab = self._by_name[".symtab"]
        strtab = self._by_name.get(".strtab")
        if strtab is None:
            raise ElfParseError(".symtab present but .strtab missing")
        count = len(symtab.data) // c.SYM_SIZE
        out: list[ParsedSymbol] = []
        for i in range(1, count):  # skip the null symbol
            sym = Elf64Sym.unpack(symtab.data, i * c.SYM_SIZE)
            name = self._strtab_name(strtab.data, sym.st_name)
            out.append(
                ParsedSymbol(
                    name=name,
                    value=sym.st_value,
                    size=sym.st_size,
                    bind=sym.bind,
                    sym_type=sym.type,
                    shndx=sym.st_shndx,
                )
            )
        return out

    def symbol(self, name: str) -> ParsedSymbol:
        for sym in self.symbols:
            if sym.name == name:
                return sym
        raise ElfParseError(f"no symbol named {name!r}")

    def function_sections(self) -> list[ParsedSection]:
        """The FGKASLR randomization set: ``.text.<function>`` sections.

        Mirrors the upstream FGKASLR patch set, which randomizes every
        ``.text.*`` section produced by ``-ffunction-sections`` while
        leaving the base ``.text`` (boot/entry code) in place.
        """
        return [
            s
            for s in self._sections
            if s.name.startswith(".text.") and s.flags & c.SHF_EXECINSTR
        ]
