"""LayoutResult displacement/address arithmetic."""

from hypothesis import given, settings, strategies as st

import reference
from repro.core import LayoutResult
from repro.kernel import layout as kl
from repro.vm import GuestMemory

V = kl.LINK_VBASE


def _layout(voffset=0x2000000, moved=None):
    layout = LayoutResult(voffset=voffset, phys_load=kl.PHYS_LOAD_ADDR)
    layout.moved = moved or []
    return layout.finalize()


def test_plain_kaslr_shifts_everything():
    layout = _layout()
    assert layout.final_vaddr(V + 0x1234) == V + 0x1234 + 0x2000000
    assert layout.displacement_for(V + 0x1234) == 0
    assert layout.randomized and not layout.fine_grained


def test_moved_section_displacement():
    layout = _layout(moved=[(V + 0x1000, 0x100, 0x500), (V + 0x2000, 0x80, -0x300)])
    assert layout.displacement_for(V + 0x1000) == 0x500
    assert layout.displacement_for(V + 0x10FF) == 0x500
    assert layout.displacement_for(V + 0x1100) == 0  # just past the section
    assert layout.displacement_for(V + 0x2000) == -0x300
    assert layout.fine_grained


def test_final_vaddr_combines_move_and_offset():
    layout = _layout(voffset=0x400000, moved=[(V + 0x1000, 0x100, 0x500)])
    assert layout.final_vaddr(V + 0x1010) == V + 0x1010 + 0x500 + 0x400000


def test_final_paddr_ignores_voffset():
    """Virtual randomization moves mappings, not bytes."""
    layout = _layout(voffset=0x800000, moved=[(V + 0x1000, 0x100, 0x40)])
    assert layout.final_paddr(V + 0x1000) == kl.PHYS_LOAD_ADDR + 0x1040
    assert layout.final_paddr(V) == kl.PHYS_LOAD_ADDR


def test_unsorted_moves_are_sorted_on_finalize():
    layout = LayoutResult(voffset=0)
    layout.moved = [(V + 0x2000, 0x10, 1), (V + 0x1000, 0x10, 2)]
    layout.finalize()
    assert layout.displacement_for(V + 0x1005) == 2
    assert layout.displacement_for(V + 0x2005) == 1


def test_entry_vaddr():
    assert _layout(voffset=0x600000).entry_vaddr == V + 0x600000


def test_not_randomized():
    layout = _layout(voffset=0)
    assert not layout.randomized
    assert layout.total_entropy_bits == 0.0


def test_address_below_all_moves():
    layout = _layout(moved=[(V + 0x1000, 0x100, 0x500)])
    assert layout.displacement_for(V) == 0


def test_final_image_offset():
    layout = _layout(voffset=0x200000, moved=[(V + 0x1000, 0x100, 0x500)])
    assert layout.final_image_offset(0x1000) == 0x1500
    assert layout.final_image_offset(0x3000) == 0x3000


_moves = st.lists(
    st.tuples(
        st.integers(0, 0x400).map(lambda x: V + 16 * x),
        st.integers(0, 0x400),
        st.integers(-0x8000, 0x8000),
    ),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(moved=_moves, addrs=st.lists(st.integers(V - 0x100, V + 0x5000), max_size=40))
def test_displacement_matches_bisect_reference(moved, addrs):
    """Overlapping, touching, empty and duplicate-start sections included."""
    layout = _layout(moved=list(moved))
    for addr in addrs:
        assert layout.displacement_for(addr) == reference.displacement(layout, addr)


@settings(max_examples=200, deadline=None)
@given(
    moved=_moves,
    offsets=st.lists(st.integers(0, 0x5000), min_size=1, max_size=40),
    width=st.sampled_from([4, 8]),
)
def test_site_view_span_shares_window_and_chunk(moved, offsets, width):
    """Every offset of a returned span resolves to the word the view gives."""
    layout = _layout(moved=list(moved))
    memory = GuestMemory(64 << 20)
    chunk = 1 << 18
    for base in (kl.PHYS_LOAD_ADDR - chunk, kl.PHYS_LOAD_ADDR):
        memory.write(base, b"\x01")  # distinct chunks, so identity means something
    for off in offsets:
        view = layout.site_view(memory, off, width)
        if view is None:
            paddr = reference.site_paddr(layout, off)
            assert paddr % chunk + width > chunk  # only a straddling word
            continue
        buf, k, lo, hi = view
        assert lo <= off <= hi
        for probe in {lo, off, hi}:
            paddr = reference.site_paddr(layout, probe)
            assert buf is memory.word_view(paddr, width)[0]
            assert probe + k == paddr % chunk
