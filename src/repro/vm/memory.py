"""Sparse guest physical memory.

A microVM monitor backs guest RAM with anonymous ``mmap`` and lets the host
demand-page it.  :class:`GuestMemory` reproduces that behaviour: the address
space is chunked, chunks materialize on first write, and reads from
untouched chunks observe zeros.  This keeps multi-GiB guests (the Figure 10
sweep) cheap while preserving exact byte semantics.
"""

from __future__ import annotations

import struct

from repro.errors import GuestMemoryError

#: memory is held in chunks of ``1 << CHUNK_SHIFT`` bytes (256 KiB)
CHUNK_SHIFT = 18
_CHUNK_SIZE = 1 << CHUNK_SHIFT
_CHUNK_MASK = _CHUNK_SIZE - 1
#: what a read-only word view of an untouched chunk reads
_ZERO_CHUNK = bytes(_CHUNK_SIZE)


class GuestMemory:
    """Byte-addressable guest physical memory of a fixed size.

    Supports chunk-granular copy-on-write over a frozen base image (the
    snapshot/zygote substrate): reads fall through to ``base``, the first
    write to a chunk materializes a private copy.
    """

    def __init__(self, size: int, base: dict[int, bytes] | None = None) -> None:
        if size <= 0:
            raise GuestMemoryError(f"guest memory size must be positive: {size}")
        self.size = int(size)
        self._chunks: dict[int, bytearray] = {}
        self._base: dict[int, bytes] = base if base is not None else {}

    def freeze(self) -> dict[int, bytes]:
        """An immutable copy of current contents, usable as a CoW base."""
        frozen = dict(self._base)
        for index, chunk in self._chunks.items():
            frozen[index] = bytes(chunk)
        return frozen

    def clone_cow(self) -> "GuestMemory":
        """A copy-on-write child sharing this memory's current contents."""
        return GuestMemory(self.size, base=self.freeze())

    @property
    def private_bytes(self) -> int:
        """Bytes materialized privately (not shared with the CoW base)."""
        return len(self._chunks) * _CHUNK_SIZE

    # -- bounds ---------------------------------------------------------------

    def _check(self, paddr: int, length: int) -> None:
        if paddr < 0 or length < 0 or paddr + length > self.size:
            raise GuestMemoryError(
                f"guest access [{paddr:#x}, {paddr + length:#x}) outside "
                f"[0, {self.size:#x})"
            )

    @property
    def resident_bytes(self) -> int:
        """Bytes with content (the host RSS analogue, shared base included)."""
        return len(set(self._chunks) | set(self._base)) * _CHUNK_SIZE

    def iter_resident_pages(self, page_size: int = 4096):
        """Yield ``(paddr, bytes)`` for every materialized page, in order.

        Used by the KSM-style page-merging analysis: pages the guest never
        touched are not candidates (the host backs them with the shared
        zero page already).
        """
        if page_size <= 0 or _CHUNK_SIZE % page_size:
            raise GuestMemoryError(f"bad page size {page_size}")
        indices = sorted(set(self._chunks) | set(self._base))
        for index in indices:
            chunk = self._chunks.get(index)
            if chunk is None:
                chunk = self._base[index]
            base = index << CHUNK_SHIFT
            for offset in range(0, _CHUNK_SIZE, page_size):
                yield base + offset, bytes(chunk[offset : offset + page_size])

    # -- raw access ---------------------------------------------------------------

    def read(self, paddr: int, length: int) -> bytes:
        self._check(paddr, length)
        out = bytearray(length)
        pos = 0
        while pos < length:
            addr = paddr + pos
            index = addr >> CHUNK_SHIFT
            offset = addr & _CHUNK_MASK
            run = min(length - pos, _CHUNK_SIZE - offset)
            chunk = self._chunks.get(index)
            if chunk is None:
                chunk = self._base.get(index)
            if chunk is not None:
                out[pos : pos + run] = chunk[offset : offset + run]
            pos += run
        return bytes(out)

    def write(self, paddr: int, data: bytes | bytearray | memoryview) -> None:
        length = len(data)
        self._check(paddr, length)
        view = memoryview(data)
        pos = 0
        while pos < length:
            addr = paddr + pos
            index = addr >> CHUNK_SHIFT
            offset = addr & _CHUNK_MASK
            run = min(length - pos, _CHUNK_SIZE - offset)
            chunk = self._chunks.get(index)
            if chunk is None:
                base = self._base.get(index)
                chunk = bytearray(base) if base is not None else bytearray(_CHUNK_SIZE)
                self._chunks[index] = chunk
            chunk[offset : offset + run] = view[pos : pos + run]
            pos += run

    def fill(self, paddr: int, length: int, value: int = 0) -> None:
        """memset ``length`` bytes at ``paddr``."""
        self._check(paddr, length)
        if value == 0:
            # Zero-fill only needs to touch chunks with existing content.
            pos = 0
            while pos < length:
                addr = paddr + pos
                index = addr >> CHUNK_SHIFT
                offset = addr & _CHUNK_MASK
                run = min(length - pos, _CHUNK_SIZE - offset)
                chunk = self._chunks.get(index)
                if chunk is None and index in self._base:
                    chunk = bytearray(self._base[index])
                    self._chunks[index] = chunk
                if chunk is not None:
                    chunk[offset : offset + run] = bytes(run)
                pos += run
        else:
            self.write(paddr, bytes([value]) * length)

    def move(self, dst: int, src: int, length: int) -> None:
        """memmove within guest memory (used by the bootstrap loader)."""
        self.write(dst, self.read(src, length))

    # -- in-place word sweeps ---------------------------------------------------

    def word_view(self, paddr: int, width: int, writable: bool = False):
        """The chunk holding the ``width``-byte word at ``paddr``, for sweeps.

        Relocation passes touch tens of thousands of words clustered by
        address; going through :meth:`read`/:meth:`write` pays a chunk
        lookup, slicing and a copy per word.  This returns
        ``(buf, base, last)`` instead: every ``width``-byte word at an
        address ``a`` with ``base <= a <= last`` lies wholly inside both
        guest memory and ``buf``, at offset ``a - base``, so a sweep looks
        the chunk up once per run of words in it and uses
        ``struct.unpack_from``/``pack_into`` directly.

        A writable view materializes the chunk exactly as :meth:`write`
        would.  A read-only view materializes nothing: it is the private
        chunk, else the copy-on-write base, else zeros.  Returns ``None``
        when the word straddles a chunk boundary (use :meth:`read` and
        :meth:`write`); raises :class:`GuestMemoryError` when it leaves
        guest memory.
        """
        if paddr < 0 or paddr + width > self.size:
            self._check(paddr, width)
        index = paddr >> CHUNK_SHIFT
        base = index << CHUNK_SHIFT
        last = min(base + _CHUNK_SIZE, self.size) - width
        if paddr > last:
            return None
        chunk = self._chunks.get(index)
        if chunk is None:
            chunk = self._base.get(index)
            if writable:
                chunk = bytearray(chunk if chunk is not None else _ZERO_CHUNK)
                self._chunks[index] = chunk
            elif chunk is None:
                chunk = _ZERO_CHUNK
        return chunk, base, last

    # -- typed access --------------------------------------------------------------

    def read_u16(self, paddr: int) -> int:
        return struct.unpack("<H", self.read(paddr, 2))[0]

    def read_u32(self, paddr: int) -> int:
        return struct.unpack("<I", self.read(paddr, 4))[0]

    def read_u64(self, paddr: int) -> int:
        return struct.unpack("<Q", self.read(paddr, 8))[0]

    def write_u16(self, paddr: int, value: int) -> None:
        self.write(paddr, struct.pack("<H", value & 0xFFFF))

    def write_u32(self, paddr: int, value: int) -> None:
        self.write(paddr, struct.pack("<I", value & 0xFFFFFFFF))

    def write_u64(self, paddr: int, value: int) -> None:
        self.write(paddr, struct.pack("<Q", value & 0xFFFFFFFFFFFFFFFF))

