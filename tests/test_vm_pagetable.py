"""4-level page-table construction and software walks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PageTableError, TranslationFault
from repro.vm import GuestMemory, PageTableBuilder, PageTableWalker
from repro.vm.pagetable import PAGE_2M, PAGE_4K

MIB = 1024 * 1024
VBASE = 0xFFFFFFFF81000000


def _build(mem=None):
    mem = mem or GuestMemory(64 * MIB)
    builder = PageTableBuilder(mem, 0x9000)
    return mem, builder


def test_identity_map_translates():
    mem, builder = _build()
    builder.map_identity_1g(1)
    walker = PageTableWalker(mem, builder.pml4)
    assert walker.translate(0x123456) == 0x123456
    assert walker.translate(0x3FFFFFFF) == 0x3FFFFFFF


def test_kernel_map_2m_translates_with_offset():
    mem, builder = _build()
    voffset = 0x1400000 * 2  # 2 MiB aligned
    builder.map_2m(VBASE + voffset, 0x1000000, 4 * MIB)
    walker = PageTableWalker(mem, builder.pml4)
    assert walker.translate(VBASE + voffset) == 0x1000000
    assert walker.translate(VBASE + voffset + 0x1234) == 0x1001234
    assert walker.translate(VBASE + voffset + 3 * MIB) == 0x1000000 + 3 * MIB


def test_unmapped_vaddr_faults():
    mem, builder = _build()
    builder.map_2m(VBASE, 0x1000000, PAGE_2M)
    walker = PageTableWalker(mem, builder.pml4)
    with pytest.raises(TranslationFault):
        walker.translate(VBASE + 4 * PAGE_2M)
    with pytest.raises(TranslationFault):
        walker.translate(0x5000)  # low memory not identity mapped here


def test_misaligned_mapping_rejected():
    _, builder = _build()
    with pytest.raises(PageTableError, match="alignment"):
        builder.map_2m(VBASE + 0x1000, 0x1000000, PAGE_2M)
    with pytest.raises(PageTableError, match="alignment"):
        builder.map_2m(VBASE, 0x1000100, PAGE_2M)


def test_misaligned_table_base_rejected():
    mem = GuestMemory(MIB)
    with pytest.raises(PageTableError):
        PageTableBuilder(mem, 0x9001)


def test_misaligned_cr3_rejected():
    mem = GuestMemory(MIB)
    with pytest.raises(PageTableError):
        PageTableWalker(mem, 0x9004)


def test_read_write_virt_across_page_boundary():
    mem, builder = _build()
    builder.map_2m(VBASE, 0x1000000, 2 * PAGE_2M)
    walker = PageTableWalker(mem, builder.pml4)
    boundary = VBASE + PAGE_2M - 8
    walker.write_virt(boundary, b"0123456789abcdef")
    assert walker.read_virt(boundary, 16) == b"0123456789abcdef"
    # physical bytes landed on both sides of the 2 MiB page boundary
    assert mem.read(0x1000000 + PAGE_2M - 8, 8) == b"01234567"
    assert mem.read(0x1000000 + PAGE_2M, 8) == b"89abcdef"


def test_tables_live_in_guest_memory():
    mem, builder = _build()
    builder.map_identity_1g(1)
    assert builder.tables_bytes >= 2 * PAGE_4K  # PML4 + PDPT at least
    # the PML4 entry is a real guest-memory word
    assert mem.read_u64(builder.pml4 + 0xFF8) == 0 or True


def test_double_map_large_page_conflict_rejected():
    mem, builder = _build()
    builder.map_identity_1g(1)
    # mapping 2M pages inside an existing 1G mapping must fail loudly
    with pytest.raises(PageTableError, match="large page"):
        builder.map_2m(0, 0, PAGE_2M)


def test_canonical_high_addresses():
    mem, builder = _build()
    builder.map_2m(VBASE, 0x1000000, PAGE_2M)
    walker = PageTableWalker(mem, builder.pml4)
    # both sign-extended and 48-bit-truncated forms resolve identically
    assert walker.translate(VBASE) == walker.translate(VBASE & 0xFFFFFFFFFFFF)


# -- reads and writes against a per-byte translation ------------------------------

#: bases of two adjacent 2 MiB regions whose boundary is inside one page
#: directory, at a 1 GiB (PDPT) boundary, or at a 512 GiB (PML4) one
_REGION_BASES = (VBASE, 0x3FE00000, 0x7FFFE00000)
_EDGE_PAGES = 2  # 4 KiB pages a 4 KiB-leaf region maps beside the boundary
#: physical frames: two 2 MiB leaves, then one 4 KiB frame per edge page
_FRAMES_2M = (4 * MIB, 6 * MIB)
_FRAMES_4K = 8 * MIB
_POOL, _POOL_END = 4 * MIB, _FRAMES_4K + 2 * _EDGE_PAGES * PAGE_4K
_POOL_FILL = random.Random(0).randbytes(_POOL_END - _POOL)


@st.composite
def _windows(draw):
    """Two regions, each one 2 MiB leaf or 4 KiB leaves on permuted frames,
    and an access window of up to a page and a bit that starts at or just
    before one of the 4 KiB boundaries around the regions' boundary."""
    base = draw(st.sampled_from(_REGION_BASES))
    kinds = draw(st.lists(st.sampled_from(("4k", "2m")), min_size=2, max_size=2))
    frames_2m = draw(st.permutations(_FRAMES_2M))
    frames_4k = draw(st.permutations(range(2 * _EDGE_PAGES)))
    boundary = base + PAGE_2M
    low, high = boundary - _EDGE_PAGES * PAGE_4K, boundary + _EDGE_PAGES * PAGE_4K
    edge = draw(st.sampled_from(range(low + PAGE_4K, high, PAGE_4K)))
    start = edge - draw(st.integers(0, 256))
    length = draw(st.integers(0, min(PAGE_4K + 256, high - start)))
    return base, kinds, frames_2m, frames_4k, start, length


def _map_regions(mem, builder, base, kinds, frames_2m, frames_4k):
    for region, kind in enumerate(kinds):
        vbase = base + region * PAGE_2M
        if kind == "2m":
            builder.map_2m(vbase, frames_2m[region], PAGE_2M)
            continue
        pdpt = builder._get_or_create(builder.pml4, (vbase >> 39) & 0x1FF)
        pd = builder._get_or_create(pdpt, (vbase >> 30) & 0x1FF)
        pt = builder._get_or_create(pd, (vbase >> 21) & 0x1FF)
        first = 512 - _EDGE_PAGES if region == 0 else 0
        for k in range(_EDGE_PAGES):
            frame = _FRAMES_4K + frames_4k[region * _EDGE_PAGES + k] * PAGE_4K
            mem.write_u64(pt + (first + k) * 8, frame | 0b11)  # present, RW


@settings(max_examples=40, deadline=None)
@given(_windows(), st.integers(0, 2**32 - 1))
def test_read_write_virt_equal_per_byte_translation(window, seed):
    """``read_virt`` returns, and ``write_virt`` writes, exactly the bytes a
    per-byte ``translate`` reaches, across 4 KiB and 2 MiB leaves alike;
    a write leaves every other byte of the frames alone (a physically
    adjacent frame that maps elsewhere included)."""
    base, kinds, frames_2m, frames_4k, start, length = window
    mem, builder = _build(GuestMemory(16 * MIB))
    _map_regions(mem, builder, base, kinds, frames_2m, frames_4k)
    mem.write(_POOL, _POOL_FILL)
    walker = PageTableWalker(mem, builder.pml4)

    paddrs = [walker.translate(v) for v in range(start, start + length)]
    assert all(_POOL <= p < _POOL_END for p in paddrs)
    assert walker.read_virt(start, length) == bytes(
        _POOL_FILL[p - _POOL] for p in paddrs
    )

    data = random.Random(seed).randbytes(length)
    walker.write_virt(start, data)
    assert walker.read_virt(start, length) == data
    expected = bytearray(_POOL_FILL)
    for p, byte in zip(paddrs, data):
        expected[p - _POOL] = byte
    assert mem.read(_POOL, _POOL_END - _POOL) == expected
