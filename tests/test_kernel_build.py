"""Synthetic kernel builder: structure, determinism, ground truth."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st
from reference import filler as reference_filler

from repro.elf.relocs import RelocType
from repro.kernel import TINY, KernelVariant, build_kernel
from repro.kernel import layout as kl
from repro.kernel.build import BASE_SYMBOL_NAMES, _filler
from repro.kernel.manifest import (
    FUNCTION_PROLOGUE,
    ID_TAG_OFFSET,
    function_id_tag,
)
from repro.kernel.naming import generate_names
from repro.kernel.tables import decode_extable, decode_kallsyms


def test_build_deterministic(tiny_kaslr):
    again = build_kernel(TINY, KernelVariant.KASLR, scale=1, seed=3)
    assert again.vmlinux == tiny_kaslr.vmlinux
    assert again.relocs == tiny_kaslr.relocs


def test_different_seeds_differ():
    a = build_kernel(TINY, KernelVariant.KASLR, scale=1, seed=1)
    b = build_kernel(TINY, KernelVariant.KASLR, scale=1, seed=2)
    assert a.vmlinux != b.vmlinux


def test_nokaslr_has_no_relocs(tiny_nokaslr):
    assert tiny_nokaslr.relocs is None
    assert tiny_nokaslr.reloc_table is None
    assert tiny_nokaslr.relocs_size == 0


def test_reloc_counts_match_config(tiny_kaslr, tiny_fgkaslr):
    assert tiny_kaslr.reloc_table.entry_count == TINY.n_relocs_kaslr
    assert tiny_fgkaslr.reloc_table.entry_count == TINY.n_relocs_fgkaslr


def test_fgkaslr_build_has_function_sections(tiny_fgkaslr, tiny_kaslr):
    assert len(tiny_fgkaslr.elf.function_sections()) == TINY.n_functions
    assert tiny_kaslr.elf.function_sections() == []


def test_entry_is_startup_64(tiny_kaslr):
    elf = tiny_kaslr.elf
    assert elf.entry == kl.LINK_VBASE
    assert elf.symbol("startup_64").value == kl.LINK_VBASE


def test_function_bodies_carry_prologue_and_tag(tiny_kaslr):
    elf = tiny_kaslr.elf
    text = elf.section(".text")
    for func in tiny_kaslr.manifest.functions[:10]:
        off = func.link_vaddr - kl.LINK_VBASE
        body = text.data[off : off + func.size]
        assert body[:ID_TAG_OFFSET] == FUNCTION_PROLOGUE
        assert body[ID_TAG_OFFSET : ID_TAG_OFFSET + 8] == function_id_tag(func.name)
        assert body[-1] == 0xC3  # ret


def test_fgkaslr_section_matches_manifest(tiny_fgkaslr):
    elf = tiny_fgkaslr.elf
    for func in tiny_fgkaslr.manifest.functions[:10]:
        section = elf.section(func.section)
        assert section.vaddr == func.link_vaddr
        assert section.size == func.size


def test_reloc_sites_hold_link_time_values(tiny_kaslr):
    """At link time each site already stores its target's address."""
    manifest = tiny_kaslr.manifest
    image = tiny_kaslr.elf
    text = image.section(".text")
    for site in manifest.reloc_sites[:50]:
        target = manifest.symbol_link_vaddr(site.target_symbol) + site.target_addend
        # reconstruct from whichever section holds the site
        for name in (".text", ".rodata", "__ex_table", ".data"):
            section = image.section(name)
            start = section.vaddr - kl.LINK_VBASE
            if start <= site.link_offset < start + section.size:
                raw = section.data[site.link_offset - start :][:8]
                break
        else:
            pytest.fail(f"site {site.link_offset:#x} not in any known section")
        if site.reloc_type is RelocType.ABS64:
            assert int.from_bytes(raw[:8], "little") == target
        elif site.reloc_type is RelocType.ABS32:
            assert int.from_bytes(raw[:4], "little") == target & 0xFFFFFFFF
        else:
            assert int.from_bytes(raw[:4], "little") == (-target) & 0xFFFFFFFF


def test_extable_sorted_and_sized(tiny_kaslr):
    data = tiny_kaslr.elf.section("__ex_table").data
    entries = decode_extable(data)
    assert len(entries) == TINY.n_extable
    assert all(
        entries[i].insn_vaddr <= entries[i + 1].insn_vaddr
        for i in range(len(entries) - 1)
    )


def test_kallsyms_covers_all_functions(tiny_kaslr):
    entries = decode_kallsyms(tiny_kaslr.elf.section(".kallsyms").data)
    names = {e.name for e in entries}
    for func in tiny_kaslr.manifest.functions:
        assert func.name in names
    for base in BASE_SYMBOL_NAMES:
        assert base in names


def test_pvh_note_present(tiny_kaslr):
    from repro.elf.notes import find_pvh_entry, parse_notes

    notes = parse_notes(tiny_kaslr.elf.section(".notes").data)
    assert find_pvh_entry(notes) == kl.PHYS_LOAD_ADDR


def test_segment_paddrs_follow_link_map(tiny_kaslr):
    for phdr in tiny_kaslr.elf.load_segments():
        assert phdr.p_paddr == phdr.p_vaddr - kl.LINK_VBASE + kl.PHYS_LOAD_ADDR


def test_bss_in_memory_but_not_file(tiny_kaslr):
    bss = tiny_kaslr.elf.section(".bss")
    assert bss.size == TINY.bss_bytes
    data_seg = tiny_kaslr.elf.load_segments()[-1]
    assert data_seg.p_memsz > data_seg.p_filesz


def test_fgkaslr_variant_larger(tiny_nokaslr, tiny_fgkaslr):
    """Section headers for every function grow the ELF (Table 1)."""
    assert tiny_fgkaslr.vmlinux_size > tiny_nokaslr.vmlinux_size


def test_manifest_bookkeeping(tiny_fgkaslr):
    m = tiny_fgkaslr.manifest
    assert m.n_extable == TINY.n_extable
    assert m.n_kallsyms == len(m.functions) + len(BASE_SYMBOL_NAMES)
    assert m.image_bytes > 0
    assert m.mem_bytes == m.image_bytes + TINY.bss_bytes
    assert len(m.extable_targets) == TINY.n_extable


def test_generate_names_unique():
    names = generate_names(500, seed=1)
    assert len(names) == len(set(names)) == 500
    assert generate_names(500, seed=1) == names
    assert generate_names(500, seed=2) != names


def test_image_name():
    img = build_kernel(TINY, KernelVariant.FGKASLR, scale=1, seed=0)
    assert img.name == "tiny-fgkaslr"


@st.composite
def _filler_draws(draw):
    """A seed, a pattern list, and a length of 0, 1, some pattern's length
    minus one, plus zero or plus one, or anything up to 2,000."""
    seed = draw(st.integers(0, 2**64 - 1))
    patterns = draw(
        st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=64)
    )
    length = len(draw(st.sampled_from(patterns)))
    n = draw(
        st.one_of(
            st.sampled_from([0, 1, length - 1, length, length + 1]),
            st.integers(0, 2000),
        )
    )
    return seed, patterns, n


@settings(max_examples=150, deadline=None)
@given(_filler_draws())
@example((7, [b"\x90" * 8, b"ab" * 6, b"x" * 16], 25))
def test_filler_matches_reference(draw):
    """The direct draw gives ``Random.choice``'s bytes and leaves the
    generator where ``choice`` leaves it, so later draws agree too."""
    seed, patterns, n = draw
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _filler(ours, patterns, n) == reference_filler(theirs, patterns, n)
    assert ours.getstate() == theirs.getstate()

