"""FGKASLR engine: shuffle plans, byte movement, table fixups."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import reference
from repro.core import FgkaslrEngine, RandoContext, RandomizeMode
from repro.errors import GuestMemoryError, RandomizationError
from repro.kernel import layout as kl
from repro.kernel.manifest import ID_TAG_OFFSET, function_id_tag
from repro.kernel.tables import decode_extable, decode_kallsyms, kallsyms_is_sorted
from repro.simtime import CostModel, SimClock
from repro.vm import GuestMemory

from helpers import randomize_into_memory

MIB = 1024 * 1024


def _ctx(seed=0):
    return RandoContext.monitor(SimClock(), CostModel(scale=1), random.Random(seed))


def test_plan_is_a_permutation(tiny_fgkaslr):
    engine = FgkaslrEngine()
    plan = engine.plan(tiny_fgkaslr.elf, _ctx())
    sections = sorted(tiny_fgkaslr.elf.function_sections(), key=lambda s: s.vaddr)
    assert plan.n_sections == len(sections)
    # every section is repacked inside the original region, 16-aligned,
    # and no two repacked sections overlap
    spans = sorted(
        (orig + delta, orig + delta + size) for orig, size, delta in plan.moved
    )
    assert spans[0][0] >= plan.region_start
    assert spans[-1][1] <= plan.region_end
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end
    assert all(start % 16 == 0 for start, _ in spans)
    # sizes are preserved exactly
    assert sorted(size for _o, size, _d in plan.moved) == sorted(
        s.size for s in sections
    )


def test_plan_actually_shuffles(tiny_fgkaslr):
    engine = FgkaslrEngine()
    plan = engine.plan(tiny_fgkaslr.elf, _ctx(seed=1))
    moved = sum(1 for _o, _s, delta in plan.moved if delta != 0)
    assert moved > plan.n_sections * 0.8


def test_different_seeds_different_plans(tiny_fgkaslr):
    engine = FgkaslrEngine()
    p1 = engine.plan(tiny_fgkaslr.elf, _ctx(seed=1))
    p2 = engine.plan(tiny_fgkaslr.elf, _ctx(seed=2))
    assert p1.moved != p2.moved


def test_plan_requires_function_sections(tiny_kaslr):
    engine = FgkaslrEngine()
    with pytest.raises(RandomizationError, match="ffunction-sections"):
        engine.plan(tiny_kaslr.elf, _ctx())


def test_permutation_entropy_scales(tiny_fgkaslr):
    engine = FgkaslrEngine()
    plan = engine.plan(tiny_fgkaslr.elf, _ctx())
    assert plan.permutation_entropy_bits(1) > 100  # log2(48!) ~ 208
    assert plan.permutation_entropy_bits(16) > plan.permutation_entropy_bits(1)


def test_shuffled_load_places_bodies_at_new_homes(tiny_fgkaslr):
    layout, loaded, memory, _clock = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=9
    )
    for func in tiny_fgkaslr.manifest.functions[:16]:
        paddr = layout.final_paddr(func.link_vaddr)
        tag = memory.read(paddr + ID_TAG_OFFSET, 8)
        assert tag == function_id_tag(func.name)


def _placed(elf, plan, phys_load, mem_bytes, in_place, place):
    """Guest memory and clock after ``place`` puts the shuffled text.

    The monitor path starts from the other segments loaded (the text
    region reads zeros); the loader's starts from the whole link-layout
    image, as decompression leaves it.  A segment is cut at the end of
    memory.
    """
    memory = GuestMemory(mem_bytes)
    clock = SimClock()
    costs, rng = CostModel(scale=1), random.Random(0)
    ctx = (
        RandoContext.loader(clock, costs, rng)
        if in_place
        else RandoContext.monitor(clock, costs, rng)
    )
    shift = phys_load - kl.PHYS_LOAD_ADDR
    for phdr in elf.load_segments():
        paddr = phdr.p_paddr + shift
        if (in_place or not phdr.p_flags & 0x1) and paddr < mem_bytes:
            memory.write(paddr, elf.segment_bytes(phdr)[: mem_bytes - paddr])
    try:
        place(elf, plan, memory, phys_load, ctx, in_place=in_place)
        outcome = "ok"
    except GuestMemoryError:
        outcome = "GuestMemoryError"
    return outcome, memory, clock


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    in_place=st.booleans(),
    phys_offset=st.integers(0, 4 * MIB),
    skipped=st.sets(st.integers(0, 47), max_size=4),
    dropped=st.sets(st.integers(0, 47), max_size=4),
)
def test_text_placement_matches_per_section_reference(
    tiny_fgkaslr, data, seed, in_place, phys_offset, skipped, dropped
):
    """One region write places the text as one write per section did.

    An inventory without the ``skipped`` sections repacks the rest and
    leaves the region's tail unused; a plan without the ``dropped``
    sections leaves holes between the others.  Bytes in both keep what
    memory held.  When guest memory ends inside the image, both
    placements must fail with the same error type, or both succeed.
    """
    elf = tiny_fgkaslr.elf
    inventory = FgkaslrEngine.inventory(elf)
    kept = [i for i in range(inventory.n_sections) if i not in skipped]
    inventory = replace(
        inventory,
        ordered=tuple(inventory.ordered[i] for i in kept),
        offsets=tuple(inventory.offsets[i] for i in kept),
    )
    plan = FgkaslrEngine().plan_from_inventory(inventory, _ctx(seed))
    kept = [i for i in range(len(plan.moved)) if i not in dropped]
    plan.moved = [plan.moved[i] for i in kept]
    plan.file_offsets = tuple(plan.file_offsets[i] for i in kept)
    span = tiny_fgkaslr.manifest.image_bytes
    packed, region_end = (v - kl.LINK_VBASE for v in (plan.packed_end, plan.region_end))
    # where guest memory ends, as an image offset: past the image, inside
    # it, or in the region's unused tail
    end = data.draw(
        st.none() | st.integers(1, span) | st.integers(packed, region_end)
    )
    phys_load = kl.PHYS_LOAD_ADDR + phys_offset
    mem_bytes = phys_load + (span + MIB if end is None else end)
    got = _placed(
        elf, plan, phys_load, mem_bytes, in_place,
        FgkaslrEngine().load_text_shuffled,
    )
    want = _placed(
        elf, plan, phys_load, mem_bytes, in_place, reference.load_text_shuffled
    )
    assert got[0] == want[0]
    assert got[2].timeline.events == want[2].timeline.events
    if got[0] == "ok":
        n = min(span, mem_bytes - phys_load)
        assert got[1].read(phys_load, n) == want[1].read(phys_load, n)
        assert got[1].freeze() == want[1].freeze()
    if end is not None and end < packed:
        assert got[0] == "GuestMemoryError"


def test_extable_resorted_in_memory(tiny_fgkaslr):
    layout, loaded, memory, _clock = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=9
    )
    vaddr, size = tiny_fgkaslr.manifest.sections["__ex_table"]
    raw = memory.read(layout.phys_load + (vaddr - kl.LINK_VBASE), size)
    entries = decode_extable(raw)
    assert all(
        entries[i].insn_vaddr <= entries[i + 1].insn_vaddr
        for i in range(len(entries) - 1)
    )
    # values are final (post-randomization) addresses
    assert all(e.insn_vaddr >= kl.LINK_VBASE + layout.voffset for e in entries)


def test_kallsyms_lazy_leaves_table_stale(tiny_fgkaslr):
    layout, loaded, memory, _clock = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=9, lazy_kallsyms=True
    )
    assert not layout.kallsyms_fixed
    vaddr, size = tiny_fgkaslr.manifest.sections[".kallsyms"]
    raw = memory.read(layout.phys_load + (vaddr - kl.LINK_VBASE), size)
    # bytes identical to the on-disk section: nothing was touched
    assert raw == tiny_fgkaslr.elf.section(".kallsyms").data


def test_kallsyms_eager_rewrites_and_sorts(tiny_fgkaslr):
    layout, loaded, memory, _clock = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=9, lazy_kallsyms=False
    )
    assert layout.kallsyms_fixed
    vaddr, size = tiny_fgkaslr.manifest.sections[".kallsyms"]
    raw = memory.read(layout.phys_load + (vaddr - kl.LINK_VBASE), size)
    entries = decode_kallsyms(raw)
    assert kallsyms_is_sorted(entries)
    by_name = {e.name: e for e in entries}
    for func in tiny_fgkaslr.manifest.functions[:8]:
        expected = (
            layout.final_vaddr(func.link_vaddr) - layout.voffset - kl.LINK_VBASE
        )
        assert by_name[func.name].text_offset == expected


def test_eager_kallsyms_costs_more_time(tiny_fgkaslr):
    _, _, _, clock_lazy = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=9, lazy_kallsyms=True
    )
    _, _, _, clock_eager = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=9, lazy_kallsyms=False
    )
    assert clock_eager.now_ns > clock_lazy.now_ns


def test_orc_fixup_skipped_when_absent(tiny_fgkaslr):
    engine = FgkaslrEngine()
    memory = GuestMemory(64 * MIB)
    from repro.core import LayoutResult

    n = engine.fixup_orc(
        tiny_fgkaslr.elf, memory, LayoutResult().finalize(), _ctx()
    )
    assert n == 0  # TINY builds without CONFIG_UNWINDER_ORC
