"""Byte-exact ELF64 structures plus the writer-facing building blocks.

The low-level ``Elf64*`` dataclasses pack/unpack the on-disk formats with
:mod:`struct`.  :class:`Section`, :class:`Symbol`, and :class:`SegmentSpec`
are the higher-level inputs accepted by :class:`repro.elf.writer.ElfWriter`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.elf import constants as c
from repro.errors import ElfParseError

_EHDR_FMT = "<16sHHIQQQIHHHHHH"
_PHDR_FMT = "<IIQQQQQQ"
_SHDR_FMT = "<IIQQQQIIQQ"
_SYM_FMT = "<IBBHQQ"
_RELA_FMT = "<QQq"
RELA_SIZE = struct.calcsize(_RELA_FMT)


@dataclass
class Elf64Ehdr:
    """ELF64 file header."""

    e_type: int = c.ET_EXEC
    e_machine: int = c.EM_X86_64
    e_version: int = c.EV_CURRENT
    e_entry: int = 0
    e_phoff: int = 0
    e_shoff: int = 0
    e_flags: int = 0
    e_ehsize: int = c.EHDR_SIZE
    e_phentsize: int = c.PHDR_SIZE
    e_phnum: int = 0
    e_shentsize: int = c.SHDR_SIZE
    e_shnum: int = 0
    e_shstrndx: int = 0

    def pack(self) -> bytes:
        ident = (
            c.ELFMAG
            + bytes([c.ELFCLASS64, c.ELFDATA2LSB, c.EV_CURRENT, c.ELFOSABI_SYSV])
            + b"\x00" * 8
        )
        return struct.pack(
            _EHDR_FMT,
            ident,
            self.e_type,
            self.e_machine,
            self.e_version,
            self.e_entry,
            self.e_phoff,
            self.e_shoff,
            self.e_flags,
            self.e_ehsize,
            self.e_phentsize,
            self.e_phnum,
            self.e_shentsize,
            self.e_shnum,
            self.e_shstrndx,
        )

    @classmethod
    def unpack(cls, data: bytes | memoryview) -> "Elf64Ehdr":
        if len(data) < c.EHDR_SIZE:
            raise ElfParseError(f"ELF header truncated: {len(data)} bytes")
        fields = struct.unpack_from(_EHDR_FMT, data, 0)
        ident = fields[0]
        if ident[:4] != c.ELFMAG:
            raise ElfParseError(f"bad ELF magic: {ident[:4]!r}")
        if ident[4] != c.ELFCLASS64:
            raise ElfParseError(f"not ELF64 (class={ident[4]})")
        if ident[5] != c.ELFDATA2LSB:
            raise ElfParseError(f"not little-endian (data={ident[5]})")
        return cls(*fields[1:])


@dataclass
class Elf64Phdr:
    """ELF64 program (segment) header."""

    p_type: int = c.PT_LOAD
    p_flags: int = c.PF_R
    p_offset: int = 0
    p_vaddr: int = 0
    p_paddr: int = 0
    p_filesz: int = 0
    p_memsz: int = 0
    p_align: int = 0x1000

    def pack(self) -> bytes:
        return struct.pack(
            _PHDR_FMT,
            self.p_type,
            self.p_flags,
            self.p_offset,
            self.p_vaddr,
            self.p_paddr,
            self.p_filesz,
            self.p_memsz,
            self.p_align,
        )

    @classmethod
    def unpack(cls, data: bytes | memoryview, offset: int = 0) -> "Elf64Phdr":
        try:
            fields = struct.unpack_from(_PHDR_FMT, data, offset)
        except struct.error as exc:
            raise ElfParseError(f"program header truncated at {offset}") from exc
        return cls(*fields)


@dataclass
class Elf64Shdr:
    """ELF64 section header."""

    sh_name: int = 0
    sh_type: int = c.SHT_NULL
    sh_flags: int = 0
    sh_addr: int = 0
    sh_offset: int = 0
    sh_size: int = 0
    sh_link: int = 0
    sh_info: int = 0
    sh_addralign: int = 0
    sh_entsize: int = 0

    def pack(self) -> bytes:
        return struct.pack(
            _SHDR_FMT,
            self.sh_name,
            self.sh_type,
            self.sh_flags,
            self.sh_addr,
            self.sh_offset,
            self.sh_size,
            self.sh_link,
            self.sh_info,
            self.sh_addralign,
            self.sh_entsize,
        )

    @classmethod
    def unpack(cls, data: bytes | memoryview, offset: int = 0) -> "Elf64Shdr":
        try:
            fields = struct.unpack_from(_SHDR_FMT, data, offset)
        except struct.error as exc:
            raise ElfParseError(f"section header truncated at {offset}") from exc
        return cls(*fields)


@dataclass
class Elf64Sym:
    """ELF64 symbol-table entry."""

    st_name: int = 0
    st_info: int = 0
    st_other: int = 0
    st_shndx: int = 0
    st_value: int = 0
    st_size: int = 0

    def pack(self) -> bytes:
        return struct.pack(
            _SYM_FMT,
            self.st_name,
            self.st_info,
            self.st_other,
            self.st_shndx,
            self.st_value,
            self.st_size,
        )

    @classmethod
    def unpack(cls, data: bytes | memoryview, offset: int = 0) -> "Elf64Sym":
        try:
            fields = struct.unpack_from(_SYM_FMT, data, offset)
        except struct.error as exc:
            raise ElfParseError(f"symbol truncated at {offset}") from exc
        return cls(*fields)

    @property
    def bind(self) -> int:
        return self.st_info >> 4

    @property
    def type(self) -> int:
        return self.st_info & 0xF

    @staticmethod
    def info(bind: int, sym_type: int) -> int:
        return (bind << 4) | (sym_type & 0xF)


@dataclass
class Elf64Rela:
    """ELF64 RELA relocation entry."""

    r_offset: int = 0
    r_info: int = 0
    r_addend: int = 0

    def pack(self) -> bytes:
        return struct.pack(_RELA_FMT, self.r_offset, self.r_info, self.r_addend)

    @classmethod
    def unpack(cls, data: bytes | memoryview, offset: int = 0) -> "Elf64Rela":
        try:
            fields = struct.unpack_from(_RELA_FMT, data, offset)
        except struct.error as exc:
            raise ElfParseError(f"RELA entry truncated at {offset}") from exc
        return cls(*fields)

    @property
    def r_type(self) -> int:
        return self.r_info & 0xFFFFFFFF

    @staticmethod
    def info(sym: int, r_type: int) -> int:
        return (sym << 32) | (r_type & 0xFFFFFFFF)


# --------------------------------------------------------------------------
# Writer-facing building blocks
# --------------------------------------------------------------------------


@dataclass
class Section:
    """A section to be laid out by the writer.

    ``data`` is the section payload; NOBITS sections (``.bss``) carry no
    file bytes and use ``nobits_size`` instead.
    """

    name: str
    sh_type: int = c.SHT_PROGBITS
    flags: int = 0
    vaddr: int = 0
    data: bytes = b""
    nobits_size: int = 0
    align: int = 16
    entsize: int = 0

    @property
    def mem_size(self) -> int:
        if self.sh_type == c.SHT_NOBITS:
            return self.nobits_size
        return len(self.data)

    @property
    def file_size(self) -> int:
        if self.sh_type == c.SHT_NOBITS:
            return 0
        return len(self.data)


@dataclass
class Symbol:
    """A symbol to be emitted into ``.symtab``/``.strtab``."""

    name: str
    value: int
    size: int = 0
    bind: int = c.STB_GLOBAL
    sym_type: int = c.STT_FUNC
    section: str | None = None  # section name; None -> SHN_ABS


@dataclass
class SegmentSpec:
    """A program-header request covering a contiguous run of sections.

    ``sections`` lists section names in layout order; the writer derives
    file offset/vaddr/paddr/filesz/memsz from where those sections land.
    """

    sections: list[str] = field(default_factory=list)
    flags: int = c.PF_R
    p_type: int = c.PT_LOAD
    paddr: int | None = None  # None -> same as vaddr
    align: int = 0x1000
