"""ElfWriter -> ElfImage round-trips, layout invariants, error handling."""

import pytest

from repro.elf import (
    ElfImage,
    ElfWriter,
    Section,
    SegmentSpec,
    Symbol,
    PF_R,
    PF_W,
    PF_X,
    SHF_ALLOC,
    SHF_EXECINSTR,
    SHF_WRITE,
    SHT_NOBITS,
)
from repro.elf import constants as c
from repro.errors import ElfLayoutError, ElfParseError

VBASE = 0xFFFFFFFF81000000


def _writer():
    w = ElfWriter(entry=VBASE)
    w.add_section(
        Section(".text", flags=SHF_ALLOC | SHF_EXECINSTR, vaddr=VBASE,
                data=b"\x90" * 256, align=4096)
    )
    w.add_section(
        Section(".data", flags=SHF_ALLOC | SHF_WRITE, vaddr=VBASE + 0x1000,
                data=b"\x01" * 128, align=4096)
    )
    return w


def test_roundtrip_sections_and_entry():
    img = ElfImage(_writer().build())
    assert img.entry == VBASE
    assert img.section(".text").data == b"\x90" * 256
    assert img.section(".data").vaddr == VBASE + 0x1000


def test_duplicate_section_rejected():
    w = _writer()
    with pytest.raises(ElfLayoutError, match="duplicate"):
        w.add_section(Section(".text", data=b""))


def test_duplicate_of_a_constructor_section_rejected():
    w = ElfWriter(entry=VBASE, sections=[Section(".text", data=b"\x90")])
    w.add_section(Section(".data", data=b"\x01"))
    for name in (".text", ".data"):
        with pytest.raises(ElfLayoutError, match="duplicate"):
            w.add_section(Section(name, data=b""))
    assert [s.name for s in w.sections] == [".text", ".data"]
    with pytest.raises(ElfLayoutError, match="duplicate"):
        ElfWriter(sections=[Section(".text", data=b""), Section(".text", data=b"")])


def test_symbols_roundtrip_with_local_ordering():
    w = _writer()
    w.add_symbol(Symbol("globalf", VBASE, 16, section=".text"))
    w.add_symbol(Symbol("localf", VBASE + 16, 16, bind=c.STB_LOCAL, section=".text"))
    img = ElfImage(w.build())
    names = [s.name for s in img.symbols]
    # ELF requires locals before globals in the symbol table.
    assert names == ["localf", "globalf"]
    assert img.symbol("globalf").value == VBASE


def test_symbol_unknown_section_rejected():
    w = _writer()
    w.add_symbol(Symbol("orphan", 0, section=".nope"))
    with pytest.raises(ElfLayoutError, match="unknown section"):
        w.build()


def test_segments_derive_geometry():
    w = _writer()
    w.add_section(
        Section(".bss", sh_type=SHT_NOBITS, flags=SHF_ALLOC | SHF_WRITE,
                vaddr=VBASE + 0x2000, nobits_size=0x800, align=4096)
    )
    w.add_segment(SegmentSpec([".text"], flags=PF_R | PF_X, paddr=0x1000000))
    w.add_segment(SegmentSpec([".data", ".bss"], flags=PF_R | PF_W))
    img = ElfImage(w.build())
    text_seg, data_seg = img.load_segments()
    assert text_seg.p_paddr == 0x1000000
    assert text_seg.p_filesz == 256
    assert data_seg.p_vaddr == VBASE + 0x1000
    assert data_seg.p_filesz == 128
    assert data_seg.p_memsz == 0x1000 + 0x800  # spans .data..end of .bss


def test_segment_unknown_section_rejected():
    w = _writer()
    w.add_segment(SegmentSpec([".missing"]))
    with pytest.raises(ElfLayoutError):
        w.build()


def test_empty_segment_rejected():
    w = _writer()
    w.add_segment(SegmentSpec([]))
    with pytest.raises(ElfLayoutError, match="no sections"):
        w.build()


def test_nobits_consumes_no_file_space():
    w = _writer()
    size_before = len(w.build())
    w.add_section(
        Section(".bss", sh_type=SHT_NOBITS, flags=SHF_ALLOC, vaddr=VBASE + 0x9000,
                nobits_size=1 << 20, align=16)
    )
    size_after = len(w.build())
    assert size_after - size_before < 4096  # just one more header + name


def test_reader_missing_section_raises():
    img = ElfImage(_writer().build())
    with pytest.raises(ElfParseError, match="no section"):
        img.section(".missing")
    assert not img.has_section(".missing")


def test_reader_rejects_truncated_file():
    data = _writer().build()
    with pytest.raises(ElfParseError):
        ElfImage(data[: len(data) // 2])


def test_function_sections_filter():
    w = _writer()
    w.add_section(
        Section(".text.foo", flags=SHF_ALLOC | SHF_EXECINSTR,
                vaddr=VBASE + 0x3000, data=b"\xcc" * 32)
    )
    w.add_section(
        Section(".text.unlikely.bar", flags=SHF_ALLOC | SHF_EXECINSTR,
                vaddr=VBASE + 0x4000, data=b"\xcc" * 32)
    )
    img = ElfImage(w.build())
    names = {s.name for s in img.function_sections()}
    assert ".text.foo" in names
    assert ".text" not in names


def test_sections_with_prefix():
    w = _writer()
    w.add_section(Section(".text.a", vaddr=VBASE + 0x3000, data=b"x",
                          flags=SHF_ALLOC | SHF_EXECINSTR))
    img = ElfImage(w.build())
    assert [s.name for s in img.sections_with_prefix(".text.")] == [".text.a"]


def test_segment_bytes():
    w = _writer()
    w.add_segment(SegmentSpec([".text"], flags=PF_R | PF_X))
    img = ElfImage(w.build())
    seg = img.load_segments()[0]
    assert img.segment_bytes(seg) == b"\x90" * 256
