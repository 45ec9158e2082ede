"""The verification oracle must catch injected randomization bugs.

Every injected fault must also panic with exactly the message of the
per-site reference oracle (``reference.verify_guest_kernel``).
"""

import pytest

import reference
from repro.core import RandomizeMode
from repro.errors import GuestPanic
from repro.kernel import layout as kl
from repro.kernel.verify import _verify_functions, verify_guest_kernel

from helpers import randomize_into_memory, walker_for


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
