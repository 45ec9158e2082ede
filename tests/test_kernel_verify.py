"""The verification oracle must catch injected randomization bugs.

Every injected fault must also panic with exactly the message of the
per-site reference oracle (``reference.verify_guest_kernel``).
"""

import pytest

import reference
from repro.core import RandomizeMode
from repro.errors import GuestMemoryError, GuestPanic, TranslationFault
from repro.kernel import layout as kl
from repro.kernel.verify import _verify_functions, verify_guest_kernel
from repro.monitor.addrspace import build_kernel_address_space
from repro.vm import GuestMemory, PageTableWalker
from repro.vm.pagetable import PAGE_1G, PAGE_2M, PAGE_4K, PageTableBuilder

from helpers import MIB, randomize_into_memory, walker_for


def _panics_like_reference(memory, walker, layout, manifest, match=None):
    with pytest.raises(GuestPanic, match=match) as got:
        verify_guest_kernel(memory, walker, layout, manifest)
    with pytest.raises(GuestPanic) as want:
        reference.verify_guest_kernel(memory, walker, layout, manifest)
    assert str(got.value) == str(want.value)


def _booted(img, mode, seed=31, lazy=True):
    layout, loaded, memory, _ = randomize_into_memory(
        img, mode, seed=seed, lazy_kallsyms=lazy
    )
    walker = walker_for(memory, layout, loaded)
    return layout, memory, walker


def test_clean_boot_verifies(tiny_fgkaslr):
    layout, memory, walker = _booted(tiny_fgkaslr, RandomizeMode.FGKASLR)
    report = verify_guest_kernel(memory, walker, layout, tiny_fgkaslr.manifest)
    assert report.sites_checked > 0
    assert report.kallsyms_stale  # lazy mode


def test_missed_relocation_detected(tiny_kaslr):
    layout, memory, walker = _booted(tiny_kaslr, RandomizeMode.KASLR)
    # Undo one relocation: subtract the offset back out of one ABS64 site.
    site = next(
        s for s in tiny_kaslr.manifest.reloc_sites
        if s.reloc_type.value == "abs64" and not s.in_extable
    )
    paddr = layout.phys_load + layout.final_image_offset(site.link_offset)
    memory.write_u64(paddr, memory.read_u64(paddr) - layout.voffset)
    _panics_like_reference(
        memory, walker, layout, tiny_kaslr.manifest, "relocation site"
    )


def test_double_applied_relocation_detected(tiny_kaslr):
    layout, memory, walker = _booted(tiny_kaslr, RandomizeMode.KASLR)
    site = next(
        s for s in tiny_kaslr.manifest.reloc_sites
        if s.reloc_type.value == "abs32" and not s.in_extable
    )
    paddr = layout.phys_load + layout.final_image_offset(site.link_offset)
    memory.write_u32(paddr, (memory.read_u32(paddr) + layout.voffset) & 0xFFFFFFFF)
    _panics_like_reference(memory, walker, layout, tiny_kaslr.manifest)


def test_corrupted_function_body_detected(tiny_fgkaslr):
    layout, memory, walker = _booted(tiny_fgkaslr, RandomizeMode.FGKASLR)
    func = tiny_fgkaslr.manifest.functions[7]
    paddr = layout.final_paddr(func.link_vaddr)
    memory.write(paddr + 8, b"\x00" * 8)  # clobber the identity tag
    _panics_like_reference(
        memory, walker, layout, tiny_fgkaslr.manifest, "identity tag"
    )


def test_clobbered_prologue_detected(tiny_fgkaslr):
    layout, memory, walker = _booted(tiny_fgkaslr, RandomizeMode.FGKASLR)
    func = tiny_fgkaslr.manifest.functions[3]
    memory.write(layout.final_paddr(func.link_vaddr), b"\xcc")
    _panics_like_reference(
        memory, walker, layout, tiny_fgkaslr.manifest, "no prologue"
    )


def test_header_across_a_page_boundary_read_like_reference(tiny_fgkaslr):
    """A function 8 bytes before a page end: its header spans two pages."""
    layout, memory, walker = _booted(tiny_fgkaslr, RandomizeMode.FGKASLR)
    orig, size, delta = layout.moved[0]
    header = memory.read(layout.final_paddr(orig), 16)
    shift = (0xFF8 - layout.final_vaddr(orig)) & 0xFFF
    layout.moved[0] = (orig, size, delta + shift)
    layout.finalize()
    assert layout.final_vaddr(orig) & 0xFFF == 0xFF8
    memory.write(layout.final_paddr(orig), header)
    manifest = tiny_fgkaslr.manifest
    assert _verify_functions(walker, layout, manifest) == reference.verify_functions(
        walker, layout, manifest
    )
    memory.write(layout.final_paddr(orig) + 12, b"\x00")  # in the second page
    _panics_like_reference(memory, walker, layout, manifest, "identity tag")


def test_lying_layout_detected(tiny_fgkaslr):
    """A layout that misreports where a function went must not verify."""
    layout, memory, walker = _booted(tiny_fgkaslr, RandomizeMode.FGKASLR)
    # shift one moved-section delta by 16 bytes without moving any bytes
    orig, size, delta = layout.moved[0]
    layout.moved[0] = (orig, size, delta + 16)
    layout.finalize()
    _panics_like_reference(memory, walker, layout, tiny_fgkaslr.manifest)


def test_unsorted_extable_detected(tiny_fgkaslr):
    layout, memory, walker = _booted(tiny_fgkaslr, RandomizeMode.FGKASLR)
    vaddr, size = tiny_fgkaslr.manifest.sections["__ex_table"]
    paddr = layout.phys_load + (vaddr - kl.LINK_VBASE)
    first = memory.read(paddr, 16)
    second = memory.read(paddr + 16, 16)
    memory.write(paddr, second)
    memory.write(paddr + 16, first)
    _panics_like_reference(
        memory, walker, layout, tiny_fgkaslr.manifest, "sorted|ground"
    )


def test_stale_kallsyms_detected_in_eager_mode(tiny_fgkaslr):
    layout, memory, walker = _booted(tiny_fgkaslr, RandomizeMode.FGKASLR, lazy=False)
    vaddr, _size = tiny_fgkaslr.manifest.sections[".kallsyms"]
    paddr = layout.phys_load + (vaddr - kl.LINK_VBASE)
    count = memory.read_u32(paddr)
    # Corrupt the first entry's offset. The lowest-offset symbol is
    # startup_64 at offset 0, so write a small nonzero value that keeps the
    # table sorted but points the symbol somewhere wrong.
    memory.write_u32(paddr + 4, 13)
    assert count > 0
    _panics_like_reference(memory, walker, layout, tiny_fgkaslr.manifest, "kallsyms")


def test_wrong_inv32_direction_detected(tiny_kaslr):
    """Applying an inverse relocation with + instead of - must panic."""
    layout, memory, walker = _booted(tiny_kaslr, RandomizeMode.KASLR)
    site = next(
        s for s in tiny_kaslr.manifest.reloc_sites if s.reloc_type.value == "inv32"
    )
    paddr = layout.phys_load + layout.final_image_offset(site.link_offset)
    # correct value is v; wrong-direction application differs by 2*voffset
    memory.write_u32(paddr, (memory.read_u32(paddr) + 2 * layout.voffset) & 0xFFFFFFFF)
    _panics_like_reference(memory, walker, layout, tiny_kaslr.manifest)


def test_verifying_a_cow_clone_materializes_nothing(tiny_fgkaslr):
    layout, memory, walker = _booted(tiny_fgkaslr, RandomizeMode.FGKASLR)
    clone = memory.clone_cow()
    clone_walker = type(walker)(clone, walker.cr3)
    report = verify_guest_kernel(clone, clone_walker, layout, tiny_fgkaslr.manifest)
    assert report == reference.verify_guest_kernel(
        clone, clone_walker, layout, tiny_fgkaslr.manifest
    )
    assert clone.private_bytes == 0


def test_report_counts(tiny_kaslr):
    layout, memory, walker = _booted(tiny_kaslr, RandomizeMode.KASLR)
    report = verify_guest_kernel(memory, walker, layout, tiny_kaslr.manifest)
    assert report.sites_checked == len(tiny_kaslr.manifest.reloc_sites)
    assert report.extable_checked == tiny_kaslr.manifest.n_extable
    assert report.entry_vaddr == kl.LINK_VBASE + layout.voffset


# -- the header walk, once per mapped page -------------------------------------


def _outcome(fn):
    try:
        return "ok", fn()
    except (GuestPanic, GuestMemoryError, TranslationFault) as exc:
        return type(exc).__name__, str(exc)


def _functions_like_reference(memory, walker, layout, manifest):
    got = _outcome(lambda: _verify_functions(walker, layout, manifest))
    want = _outcome(lambda: reference.verify_functions(walker, layout, manifest))
    assert got == want
    return got


def _remap(memory, layout, loaded, page, place, move=True):
    """Fresh tables mapping the kernel window with ``page``-sized leaves.

    Virtual page ``i`` of the window maps to physical ``place(i)``.  With
    ``move`` the image's bytes follow their pages — each page's image
    bytes and the 16 after them, so a header read on across the page's
    end still finds its bytes — and the image the layout points at is
    zeroed.  Returns the walker.
    """
    vbase = kl.LINK_VBASE + layout.voffset
    levels = {PAGE_1G: (39, 30), PAGE_2M: (39, 30, 21)}.get(page, (39, 30, 21, 12))
    builder = PageTableBuilder(memory, memory.size - 64 * MIB)
    image = memory.read(layout.phys_load, loaded.mem_bytes + 16)
    for i in range(-(-loaded.mem_bytes // page)):
        v = (vbase + i * page) & 0xFFFF_FFFF_FFFF
        table = builder.pml4
        for shift in levels[:-1]:
            table = builder._get_or_create(table, (v >> shift) & 0x1FF)
        large = 0x80 if page != PAGE_4K else 0  # the PS bit
        entry = table + ((v >> levels[-1]) & 0x1FF) * 8
        memory.write_u64(entry, place(i) | large | 0x3)
        if move:
            memory.write(place(i), image[i * page : (i + 1) * page + 16])
    if move:
        memory.fill(layout.phys_load, loaded.mem_bytes, 0)
    return PageTableWalker(memory, builder.pml4)


@pytest.mark.parametrize("mode", [RandomizeMode.KASLR, RandomizeMode.FGKASLR])
def test_functions_read_once_per_2m_page_like_reference(tiny_fgkaslr, mode):
    layout, memory, walker = _booted(tiny_fgkaslr, mode)
    got = _functions_like_reference(memory, walker, layout, tiny_fgkaslr.manifest)
    assert got == ("ok", len(tiny_fgkaslr.manifest.functions) + 16)


@pytest.mark.parametrize("order", ["spread", "reversed"])
def test_functions_through_scattered_4k_pages_like_reference(tiny_fgkaslr, order):
    """Neighbouring virtual pages map to non-adjacent physical pages."""
    layout, loaded, memory, _ = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=31
    )
    n = -(-loaded.mem_bytes // PAGE_4K)
    slot = (lambda i: 2 * i) if order == "spread" else (lambda i: 2 * (n - i))
    walker = _remap(
        memory, layout, loaded, PAGE_4K, lambda i: 64 * MIB + slot(i) * PAGE_4K
    )
    got = _functions_like_reference(memory, walker, layout, tiny_fgkaslr.manifest)
    assert got[0] == "ok"


def test_functions_through_a_1g_page_like_reference(tiny_fgkaslr):
    layout, loaded, small, _ = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=31
    )
    memory = GuestMemory(2 * PAGE_1G, base=small.freeze())
    offset = (kl.LINK_VBASE + layout.voffset) % PAGE_1G
    walker = _remap(memory, layout, loaded, PAGE_1G, lambda i: PAGE_1G, move=False)
    memory.write(PAGE_1G + offset, memory.read(layout.phys_load, loaded.mem_bytes))
    memory.fill(layout.phys_load, loaded.mem_bytes, 0)
    got = _functions_like_reference(memory, walker, layout, tiny_fgkaslr.manifest)
    assert got[0] == "ok"


def test_header_across_a_2m_page_like_reference(tiny_fgkaslr):
    """A function 8 bytes before a 2 MiB boundary, both pages mapped."""
    layout, loaded, memory, _ = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=31
    )
    orig, size, delta = layout.moved[0]
    header = memory.read(layout.final_paddr(orig), 16)
    shift = (PAGE_2M - 8 - layout.final_vaddr(orig)) % PAGE_2M
    layout.moved[0] = (orig, size, delta + shift)
    layout.finalize()
    assert layout.final_vaddr(orig) % PAGE_2M == PAGE_2M - 8
    memory.write(layout.final_paddr(orig), header)
    builder = build_kernel_address_space(memory, layout, 2 * PAGE_2M)
    walker = PageTableWalker(memory, builder.pml4)
    manifest = tiny_fgkaslr.manifest
    assert _functions_like_reference(memory, walker, layout, manifest)[0] == "ok"
    memory.write(layout.final_paddr(orig) + 12, b"\x00")  # in the second page
    kind, message = _functions_like_reference(memory, walker, layout, manifest)
    assert kind == "GuestPanic" and "identity tag" in message


@pytest.mark.parametrize("move", [True, False])
def test_a_2m_page_mapped_away_from_the_layout_reads_like_reference(tiny_fgkaslr, move):
    """The tables, not the layout, say where a header's bytes are."""
    layout, loaded, memory, _ = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=31
    )
    walker = _remap(memory, layout, loaded, PAGE_2M, lambda i: 96 * MIB, move=move)
    kind, _ = _functions_like_reference(memory, walker, layout, tiny_fgkaslr.manifest)
    assert kind == ("ok" if move else "GuestPanic")


@pytest.mark.parametrize("level", [0, 1, 2])
def test_non_present_entry_faults_like_reference(tiny_fgkaslr, level):
    """Clear the kernel window's PML4, PDPT or PD entry."""
    layout, memory, walker = _booted(tiny_fgkaslr, RandomizeMode.FGKASLR)
    v = (kl.LINK_VBASE + layout.voffset) & 0xFFFF_FFFF_FFFF
    table = walker.cr3
    for shift in (39, 30, 21)[:level]:
        table = memory.read_u64(table + ((v >> shift) & 0x1FF) * 8) & 0xF_FFFF_FFFF_F000
    memory.write_u64(table + ((v >> (39 - 9 * level)) & 0x1FF) * 8, 0)
    manifest = tiny_fgkaslr.manifest
    kind, message = _functions_like_reference(memory, walker, layout, manifest)
    assert kind == "TranslationFault" and "not present" in message
