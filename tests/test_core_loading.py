"""Shared ELF segment loading."""

import random

import pytest

from repro.core.context import RandoContext
from repro.core.loading import load_elf_segments
from repro.errors import BootProtocolError
from repro.kernel import layout as kl
from repro.simtime import CostModel, SimClock
from repro.vm import GuestMemory

MIB = 1024 * 1024


def _ctx():
    return RandoContext.monitor(SimClock(), CostModel(scale=1), random.Random(0))


def test_segments_land_at_paddrs(tiny_kaslr):
    memory = GuestMemory(64 * MIB)
    loaded = load_elf_segments(tiny_kaslr.elf, memory, _ctx())
    assert loaded.phys_load == kl.PHYS_LOAD_ADDR
    text = tiny_kaslr.elf.section(".text")
    assert memory.read(kl.PHYS_LOAD_ADDR, 64) == text.data[:64]
    assert loaded.entry_vaddr == kl.LINK_VBASE


def test_phys_shift_moves_everything(tiny_kaslr):
    memory = GuestMemory(128 * MIB)
    shifted = kl.PHYS_LOAD_ADDR + 8 * MIB
    loaded = load_elf_segments(tiny_kaslr.elf, memory, _ctx(), phys_load=shifted)
    assert loaded.phys_load == shifted
    text = tiny_kaslr.elf.section(".text")
    assert memory.read(shifted, 64) == text.data[:64]
    assert memory.read(kl.PHYS_LOAD_ADDR, 64) == bytes(64)


def test_mem_bytes_includes_bss(tiny_kaslr):
    memory = GuestMemory(64 * MIB)
    loaded = load_elf_segments(tiny_kaslr.elf, memory, _ctx())
    assert loaded.mem_bytes == tiny_kaslr.manifest.mem_bytes
    assert loaded.image_bytes < loaded.mem_bytes


def test_skip_text_leaves_text_untouched(tiny_fgkaslr):
    memory = GuestMemory(64 * MIB)
    load_elf_segments(tiny_fgkaslr.elf, memory, _ctx(), skip_text=True)
    assert memory.read(kl.PHYS_LOAD_ADDR, 64) == bytes(64)
    # but data landed
    data_vaddr, _ = tiny_fgkaslr.manifest.sections[".data"]
    paddr = data_vaddr - kl.LINK_VBASE + kl.PHYS_LOAD_ADDR
    assert memory.read(paddr, 16) != bytes(16)


def test_no_segments_rejected():
    from repro.elf import ElfWriter, Section

    empty = ElfWriter(entry=0)
    empty.add_section(Section(".comment", data=b"x"))
    from repro.elf.reader import ElfImage

    with pytest.raises(BootProtocolError, match="PT_LOAD"):
        load_elf_segments(ElfImage(empty.build()), GuestMemory(MIB), _ctx())
