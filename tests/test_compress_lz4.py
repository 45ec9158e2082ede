"""LZ4 block-format specifics: token layout, overlap copies, corruption."""

import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st
from reference import lz4_decompress as reference_decompress

from repro.compress.lz4c import Lz4Codec
from repro.errors import CompressionError

codec = Lz4Codec()


def test_short_input_is_all_literals():
    payload = b"0123456789"
    out = codec.compress(payload)
    # token with literal nibble, no match: decoded = payload
    assert codec.decompress(out) == payload
    assert out[0] >> 4 == len(payload)


def test_long_literal_run_extension_bytes():
    payload = bytes(range(256)) * 2  # 512 incompressible-ish bytes
    out = codec.compress(payload)
    assert codec.decompress(out) == payload


def test_overlapping_match_rle():
    # Classic RLE-through-LZ4: offset 1, long match.
    payload = b"a" * 1000
    out = codec.compress(payload)
    assert len(out) < 40
    assert codec.decompress(out) == payload


def test_overlap_with_period_three():
    payload = b"abc" * 500
    assert codec.decompress(codec.compress(payload)) == payload


def test_matches_across_64k_window_limit():
    # Repetition separated by more than 65535 bytes cannot be matched.
    block = bytes(range(256)) * 16  # 4096 bytes
    payload = block + b"\x00" * 70000 + block
    assert codec.decompress(codec.compress(payload)) == payload


def test_empty_block_rejected_on_decompress():
    with pytest.raises(CompressionError, match="empty"):
        codec.decompress(b"")


def test_bad_offset_rejected():
    # token: 0 literals + match, offset 0xFFFF with empty history.
    bad = bytes([0x00]) + struct.pack("<H", 0xFFFF)
    with pytest.raises(CompressionError, match="offset"):
        codec.decompress(bad)


def test_zero_offset_rejected():
    bad = bytes([0x10]) + b"A" + struct.pack("<H", 0)
    with pytest.raises(CompressionError, match="offset"):
        codec.decompress(bad)


def test_truncated_literal_run_rejected():
    bad = bytes([0x50]) + b"ab"  # promises 5 literals, supplies 2
    with pytest.raises(CompressionError, match="literal"):
        codec.decompress(bad)


def test_truncated_offset_rejected():
    bad = bytes([0x12]) + b"A" + b"\x01"  # half an offset
    with pytest.raises(CompressionError, match="truncated"):
        codec.decompress(bad)


def test_last_five_bytes_are_literals():
    # Spec invariant: a compressed block always ends in a literal run
    # covering at least the final 5 bytes.
    payload = b"xyz" * 100
    out = codec.compress(payload)
    # decode manually: last sequence must be literals-only (ends the stream)
    assert codec.decompress(out)[-5:] == payload[-5:]


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=8192))
def test_roundtrip_random(payload):
    assert codec.decompress(codec.compress(payload)) == payload


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.sampled_from([b"\x90\x90\x90\x90", b"PUSH", b"\x00\x01", b"ret!"]),
        max_size=600,
    )
)
def test_roundtrip_patterned(chunks):
    payload = b"".join(chunks)
    assert codec.decompress(codec.compress(payload)) == payload


# -- the decoder against the sequence-at-a-time reference ------------------------


def _outcome(decode, data: bytes):
    """The decoded bytes, or the exception's type and message."""
    try:
        return decode(data)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_decodes_like_reference(data: bytes) -> None:
    assert _outcome(codec.decompress, data) == _outcome(reference_decompress, data)


#: runs of a 1-3 byte unit: overlapping matches at offsets 1-3, with match
#: lengths that cross the 15 and 15 + 255 extension boundaries
_runs = st.builds(
    lambda unit, count: unit * count,
    st.binary(min_size=1, max_size=3),
    st.integers(min_value=1, max_value=700),
)
_payloads = st.one_of(
    st.binary(max_size=4096),
    st.lists(st.one_of(_runs, st.binary(max_size=300)), max_size=8).map(b"".join),
)
#: 270 literals: a literal-length extension of exactly 255
_INCOMPRESSIBLE_270 = random.Random(0).randbytes(270)


@settings(max_examples=150, deadline=None)
@given(_payloads)
# a match-length extension byte of 255 at offsets 1, 2 and 3
@example(b"a" * 280)
@example(b"ab" * 140 + b"c")
@example(b"abc" * 94 + b"d")
@example(_INCOMPRESSIBLE_270)
def test_decoder_matches_reference_on_compressor_output(payload):
    block = codec.compress(payload)
    assert codec.decompress(block) == payload
    _assert_decodes_like_reference(block)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=48))
@example(b"")
@example(b"\x05")  # a trailing literal-free token ends the block
@example(b"\x10A\x01\x00")  # a block may end right after a match
@example(b"\x1fA\x01\x00\x05")  # ... and its length extension
def test_decoder_matches_reference_on_arbitrary_bytes(data):
    _assert_decodes_like_reference(data)


@st.composite
def _corrupted_blocks(draw) -> bytes:
    block = bytearray(codec.compress(draw(_payloads)))
    kind = draw(st.sampled_from(("flip", "truncate", "insert")))
    if kind == "flip":
        i = draw(st.integers(0, len(block) - 1))
        block[i] ^= 1 << draw(st.integers(0, 7))
    elif kind == "truncate":
        del block[draw(st.integers(0, len(block) - 1)) :]
    else:
        block.insert(draw(st.integers(0, len(block))), draw(st.integers(0, 255)))
    return bytes(block)


@settings(max_examples=200, deadline=None)
@given(_corrupted_blocks())
def test_decoder_matches_reference_on_corrupted_blocks(data):
    _assert_decodes_like_reference(data)
