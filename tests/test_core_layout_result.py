"""LayoutResult displacement/address arithmetic."""

from hypothesis import given, settings, strategies as st

import reference
from repro.core import LayoutResult, siteplan
from repro.kernel import layout as kl

V = kl.LINK_VBASE
P = kl.PHYS_LOAD_ADDR


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
    offsets=st.lists(st.integers(0, 0x5000) | st.integers(0, 0x30000), max_size=40),
    width=st.sampled_from([4, 8]),
)
def test_plan_runs_share_window_and_block(moved, offsets, width):
    """Runs cover the sites in order; each run's sites share one window
    and one 64 KiB block and ascend without overlapping, so under an
    unmoved window a run at a chunk-aligned load address shares a chunk
    unless its last word crosses out of the block."""
    layout = _layout(moved=list(moved))
    bounds, deltas = layout.windows()
    ends, windows = siteplan.split_runs(offsets, width, bounds, V)
    assert len(ends) == len(windows)
    assert list(ends) == sorted(set(ends))
    assert (ends[-1] if ends else 0) == len(offsets)
    chunk = 1 << 18
    a = 0
    for b, j in zip(ends, windows):
        run = offsets[a:b]
        assert run
        for off in run:
            assert bounds[j] <= V + off < bounds[j + 1]
            assert deltas[j] == reference.displacement(layout, V + off)
            assert off >> siteplan.RUN_SHIFT == run[0] >> siteplan.RUN_SHIFT
        assert all(nxt >= prev + width for prev, nxt in zip(run, run[1:]))
        last = run[-1] + width - 1
        in_block = last >> siteplan.RUN_SHIFT == run[0] >> siteplan.RUN_SHIFT
        if deltas[j] == 0 and in_block:
            assert (P + run[0]) // chunk == (P + last) // chunk
        a = b
