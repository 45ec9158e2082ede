"""From-scratch LZ4 *block format* codec.

Implements the LZ4 block format (token byte with 4-bit literal/match length
nibbles, 255-extension bytes, 2-byte little-endian match offsets) with the
standard end-of-block constraints: the final five bytes are always literals
and no match may start within the last twelve bytes (``MFLIMIT``).  The
compressor uses a greedy single-entry hash chain with the reference
implementation's acceleration heuristic (skip faster through incompressible
regions).  It is one loop with no Python call per probed position or
per sequence: the hash, the 32-bit reads and the sequence emit are
inlined, and matches extend eight bytes per step.

Output from this compressor decodes with any conforming LZ4 block decoder;
the decoder here accepts any conforming block.  It tests a token's literal
nibble before anything else because about 94% of the sequences in a kernel
payload carry no literals, and those skip the literal slice and append.
"""

from __future__ import annotations

import struct

from repro.compress.base import Codec, register_codec
from repro.errors import CompressionError

MIN_MATCH = 4
MFLIMIT = 12  # no match may begin within this many bytes of the end
LAST_LITERALS = 5  # the final bytes of a block are always literals
MAX_OFFSET = 0xFFFF
_SKIP_TRIGGER = 6  # acceleration: every 2**6 misses, step grows by 1

_HASH_MULT = 2654435761  # Knuth multiplicative hash, as in reference LZ4
_U32 = struct.Struct("<I").unpack_from
_U64 = struct.Struct("<Q").unpack_from


def _write_length(out: bytearray, length: int) -> None:
    """Emit the 255-run extension encoding for a nibble overflow."""
    while length >= 255:
        out.append(255)
        length -= 255
    out.append(length)


class Lz4Codec(Codec):
    """LZ4 block-format codec (CONFIG_KERNEL_LZ4)."""

    name = "lz4"

    def compress(self, data: bytes) -> bytes:
        n = len(data)
        out = bytearray()
        if n < MFLIMIT + 1:
            self._emit_last_literals(out, data, 0)
            return bytes(out)

        # One slot per 16-bit hash; the initial entry is out of offset range.
        table = [-1 - MAX_OFFSET] * (1 << 16)
        u32 = _U32
        u64 = _U64
        append = out.append
        anchor = 0
        pos = 0
        match_limit = n - LAST_LITERALS
        mf_limit = n - MFLIMIT
        searches = 0

        while pos <= mf_limit:
            seq = u32(data, pos)[0]
            h = ((seq * _HASH_MULT) & 0xFFFFFFFF) >> 16
            candidate = table[h]
            table[h] = pos
            if pos - candidate > MAX_OFFSET or u32(data, candidate)[0] != seq:
                searches += 1
                pos += 1 + (searches >> _SKIP_TRIGGER)
                continue

            searches = 0
            # Extend the match forward (bounded by the last-literals rule),
            # eight bytes at a time: the lowest set bit of two words' XOR
            # falls in their first differing byte.
            match_len = MIN_MATCH
            limit = match_limit - pos
            while match_len + 8 <= limit:
                diff = (
                    u64(data, pos + match_len)[0]
                    ^ u64(data, candidate + match_len)[0]
                )
                if diff:
                    match_len += ((diff & -diff).bit_length() - 1) >> 3
                    break
                match_len += 8
            else:
                while (
                    match_len < limit
                    and data[candidate + match_len] == data[pos + match_len]
                ):
                    match_len += 1

            lit_len = pos - anchor
            offset = pos - candidate
            ml_code = match_len - MIN_MATCH
            ml_token = 15 if ml_code >= 15 else ml_code
            if lit_len < 15:
                append(lit_len << 4 | ml_token)
                if lit_len:
                    out += data[anchor:pos]
            else:
                append(0xF0 | ml_token)
                _write_length(out, lit_len - 15)
                out += data[anchor:pos]
            append(offset & 0xFF)
            append(offset >> 8)
            if ml_code >= 15:
                _write_length(out, ml_code - 15)
            pos += match_len
            anchor = pos

        self._emit_last_literals(out, data, anchor)
        return bytes(out)

    @staticmethod
    def _emit_last_literals(out: bytearray, data: bytes, anchor: int) -> None:
        lit_len = len(data) - anchor
        token_lit = 15 if lit_len >= 15 else lit_len
        out.append(token_lit << 4)
        if lit_len >= 15:
            _write_length(out, lit_len - 15)
        out += data[anchor:]

    # ------------------------------------------------------------------

    def decompress(self, data: bytes) -> bytes:
        n = len(data)
        if n == 0:
            raise CompressionError("empty LZ4 block")
        out = bytearray()
        size = 0  # len(out)
        pos = 0
        last = n - 2  # the last position a 2-byte offset can start at
        while pos < n:
            token = data[pos]
            pos += 1
            if token > 15:
                lit_len = token >> 4
                if lit_len == 15:
                    lit_len, pos = _ext_length(data, pos, n, 15)
                end = pos + lit_len
                if end > n:
                    raise CompressionError("LZ4 literal run exceeds input")
                out += data[pos:end]
                size += lit_len
                pos = end
            if pos > last:
                if pos == n:
                    break  # last sequence: literals only
                raise CompressionError("LZ4 block truncated in match offset")
            offset = data[pos] | data[pos + 1] << 8
            pos += 2
            if offset == 0 or offset > size:
                raise CompressionError(
                    f"LZ4 match offset {offset} invalid at output size {size}"
                )
            match_len = token & 15
            if match_len == 15:
                match_len, pos = _ext_length(data, pos, n, 15)
            match_len += MIN_MATCH
            start = size - offset
            if offset >= match_len:
                out += out[start : start + match_len]
            else:
                # An overlapping copy repeats the last ``offset`` bytes.
                period = out[start:]
                reps, rest = divmod(match_len, offset)
                out += period * reps + period[:rest]
            size += match_len
        return bytes(out)


def _ext_length(data: bytes, pos: int, n: int, length: int) -> tuple[int, int]:
    """``length`` plus the 255-run extension at ``pos``, and the next position."""
    while True:
        if pos >= n:
            raise CompressionError("LZ4 length extension truncated")
        byte = data[pos]
        pos += 1
        length += byte
        if byte != 255:
            return length, pos


register_codec(Lz4Codec())
