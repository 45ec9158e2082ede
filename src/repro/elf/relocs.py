"""The ``vmlinux.relocs`` sidecar format.

Linux's ``relocs`` host tool walks vmlinux and emits the list of places in
the image that hold absolute addresses needing adjustment when the kernel is
relocated.  Section 3.2 of the paper describes the three classes:

1. 64-bit addresses that need the offset *added*,
2. 32-bit virtual addresses that need the offset *added*,
3. 32-bit virtual addresses that need the offset *subtracted*
   ("inverse relocations", used for per-CPU data).

This module implements a binary sidecar with exactly those three entry
classes.  Entries are 32-bit offsets of the fixup site relative to the start
of the loaded kernel image (the link-time base), matching the 4-byte-per-
entry density of the real format so the Table 1 relocs-size column is
meaningful.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import RelocsError

RELOCS_MAGIC = b"RELO"
RELOCS_VERSION = 1
_HEADER_FMT = "<4sHHIII"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


class RelocType(enum.Enum):
    """The three relocation classes from Section 3.2."""

    ABS64 = "abs64"  # 8-byte site, offset added
    ABS32 = "abs32"  # 4-byte site, offset added
    INV32 = "inv32"  # 4-byte site, offset subtracted

    @property
    def site_width(self) -> int:
        return 8 if self is RelocType.ABS64 else 4

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class RelocationTable:
    """Fixup-site offsets grouped by relocation class."""

    abs64: list[int] = field(default_factory=list)
    abs32: list[int] = field(default_factory=list)
    inv32: list[int] = field(default_factory=list)
    _key: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def add(self, reloc_type: RelocType, image_offset: int) -> None:
        if image_offset < 0 or image_offset > 0xFFFFFFFF:
            raise RelocsError(f"relocation offset out of u32 range: {image_offset}")
        self._bucket(reloc_type).append(image_offset)
        self._key = None

    @property
    def content_key(self) -> bytes:
        """SHA-256 of :meth:`encode`: equal for equal tables, however built.

        Hashed on first use and kept, so a table looked up on every boot
        is hashed once; :meth:`add` drops it.  Tables are not edited
        through their lists once built.
        """
        if self._key is None:
            self._key = hashlib.sha256(self.encode()).digest()
        return self._key

    def _bucket(self, reloc_type: RelocType) -> list[int]:
        if reloc_type is RelocType.ABS64:
            return self.abs64
        if reloc_type is RelocType.ABS32:
            return self.abs32
        return self.inv32

    @property
    def entry_count(self) -> int:
        return len(self.abs64) + len(self.abs32) + len(self.inv32)

    def iter_entries(self) -> Iterator[tuple[RelocType, int]]:
        """All entries in (type, image offset) form, grouped by class."""
        for offset in self.abs64:
            yield RelocType.ABS64, offset
        for offset in self.abs32:
            yield RelocType.ABS32, offset
        for offset in self.inv32:
            yield RelocType.INV32, offset

    def sorted(self) -> "RelocationTable":
        """A copy with each class's offsets in ascending order."""
        return RelocationTable(
            abs64=sorted(self.abs64),
            abs32=sorted(self.abs32),
            inv32=sorted(self.inv32),
        )

    # -- binary format -----------------------------------------------------

    def encode(self) -> bytes:
        header = struct.pack(
            _HEADER_FMT,
            RELOCS_MAGIC,
            RELOCS_VERSION,
            0,
            len(self.abs64),
            len(self.abs32),
            len(self.inv32),
        )
        body = struct.pack(
            f"<{self.entry_count}I", *self.abs64, *self.abs32, *self.inv32
        )
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "RelocationTable":
        if len(data) < _HEADER_SIZE:
            raise RelocsError(f"relocs blob truncated: {len(data)} bytes")
        magic, version, _pad, n64, n32, ninv = struct.unpack_from(_HEADER_FMT, data, 0)
        if magic != RELOCS_MAGIC:
            raise RelocsError(f"bad relocs magic {magic!r}")
        if version != RELOCS_VERSION:
            raise RelocsError(f"unsupported relocs version {version}")
        total = n64 + n32 + ninv
        expected = _HEADER_SIZE + 4 * total
        if len(data) < expected:
            raise RelocsError(
                f"relocs blob holds {len(data)} bytes, header promises {expected}"
            )
        entries = struct.unpack_from(f"<{total}I", data, _HEADER_SIZE)
        return cls(
            abs64=list(entries[:n64]),
            abs32=list(entries[n64 : n64 + n32]),
            inv32=list(entries[n64 + n32 :]),
        )

    @property
    def encoded_size(self) -> int:
        return _HEADER_SIZE + 4 * self.entry_count
