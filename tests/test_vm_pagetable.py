"""4-level page-table construction and software walks."""

import pytest

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


def test_read_write_virt_split_at_4k_leaves():
    """An access crossing a 4 KiB leaf reaches the next leaf's frame."""
    mem, builder = _build()
    pdpt = builder._get_or_create(builder.pml4, 0)
    pd = builder._get_or_create(pdpt, 0)
    pt = builder._get_or_create(pd, 0x400000 >> 21)
    present_rw = 0b11
    mem.write_u64(pt + 0 * 8, 1 * MIB | present_rw)  # 0x400000 -> 1 MiB
    mem.write_u64(pt + 1 * 8, 3 * MIB | present_rw)  # 0x401000 -> 3 MiB
    walker = PageTableWalker(mem, builder.pml4)
    assert walker.leaf(0x401000) == (3 * MIB, PAGE_4K)
    mem.write(MIB + 0xFF8, b"01234567")
    mem.write(MIB + PAGE_4K, b"wrongpg!")  # physically next, virtually not
    mem.write(3 * MIB, b"89abcdef")
    assert walker.read_virt(0x400FF8, 16) == b"0123456789abcdef"
    walker.write_virt(0x400FF8, b"ABCDEFGHIJKLMNOP")
    assert mem.read(MIB + 0xFF8, 8) == b"ABCDEFGH"
    assert mem.read(3 * MIB, 8) == b"IJKLMNOP"
    assert mem.read(MIB + PAGE_4K, 8) == b"wrongpg!"


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
