"""Loadable kernel modules.

KASLR "consists primarily of randomizing the base address where the kernel
and kernel modules are loaded" (Section 1).  This module provides the
module half: a builder emitting relocatable module images (ELF with a
function body per entry plus a relocation sidecar whose targets are
*named* kernel symbols), which :meth:`repro.monitor.vm_handle.MicroVm.load_module`
links into a booted guest at a randomized address inside the module
region, resolving imports through the guest's kallsyms.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

from repro.elf import constants as ec
from repro.elf.reader import ElfImage
from repro.elf.structs import Section, SegmentSpec, Symbol
from repro.elf.writer import ElfWriter
from repro.errors import KernelBuildError
from repro.kernel.image import KernelImage
from repro.kernel.manifest import (
    FUNCTION_PROLOGUE,
    ID_TAG_OFFSET,
    ID_TAG_SIZE,
    function_id_tag,
)

#: Linux's module mapping space sits above the kernel image mapping
MODULE_VADDR_BASE = 0xFFFF_FFFF_A000_0000
MODULE_REGION_SIZE = 1024 * 1024 * 1024  # 1 GiB
#: module load slots are 2 MiB-aligned so the region maps with large pages
MODULE_ALIGN = 0x20_0000

_MODRELOC_FMT = "<IBxH"  # offset-in-image, width, symbol index


@dataclass(frozen=True)
class ModuleReloc:
    """One import fixup: a slot in the module referencing a symbol.

    ``symbol`` names either a kernel export (resolved via kallsyms) or one
    of the module's own functions (resolved against the module's load
    address).
    """

    image_offset: int
    symbol: str
    addend: int = 0


@dataclass
class ModuleImage:
    """A built module: ELF bytes plus its relocation sidecar."""

    name: str
    elf_bytes: bytes
    relocs: list[ModuleReloc]
    #: module-local functions: name -> (image offset, size)
    functions: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: kernel symbols this module imports
    imports: list[str] = field(default_factory=list)

    @property
    def elf(self) -> ElfImage:
        return ElfImage(self.elf_bytes)

    @property
    def image_size(self) -> int:
        """Loadable span (text + data) of the module."""
        segments = self.elf.load_segments()
        lo = min(s.p_vaddr for s in segments)
        hi = max(s.p_vaddr + s.p_memsz for s in segments)
        return hi - lo


def build_module(
    name: str,
    kernel: KernelImage,
    n_functions: int = 6,
    n_imports: int = 8,
    body_size: int = 512,
    seed: int = 0,
) -> ModuleImage:
    """Build a module importing ``n_imports`` random kernel symbols.

    Module ELFs are linked at vaddr 0 (position independent in this model:
    every absolute slot is covered by a relocation entry).
    """
    if n_functions < 1:
        raise KernelBuildError("module needs at least one function")
    rng = random.Random((seed << 4) ^ len(name))
    kernel_exports = [f.name for f in kernel.manifest.functions]
    if not kernel_exports:
        raise KernelBuildError("kernel exports no symbols")
    imports = [rng.choice(kernel_exports) for _ in range(n_imports)]

    functions: dict[str, tuple[int, int]] = {}
    relocs: list[ModuleReloc] = []
    text = bytearray()
    slot_targets: list[str] = []
    for i in range(n_functions):
        func_name = f"{name}_fn{i}"
        offset = len(text)
        body = bytearray(FUNCTION_PROLOGUE)
        body += function_id_tag(func_name)
        # one import slot and one local-call slot per function
        import_sym = imports[i % len(imports)]
        local_sym = f"{name}_fn{(i + 1) % n_functions}"
        for target in (import_sym, local_sym):
            relocs.append(
                ModuleReloc(image_offset=offset + len(body), symbol=target)
            )
            slot_targets.append(target)
            body += struct.pack("<Q", 0)  # filled at load time
        pad = body_size - len(body) - 1
        body += bytes([0x90]) * pad + b"\xc3"
        text += body
        functions[func_name] = (offset, body_size)

    data = bytearray()
    # a module-parameter block holding a pointer back into the module
    relocs.append(ModuleReloc(image_offset=len(text) + 0, symbol=f"{name}_fn0"))
    data += struct.pack("<Q", 0)
    data += rng.randbytes(120)

    writer = ElfWriter(entry=0, e_type=ec.ET_DYN)
    writer.add_section(
        Section(
            ".text",
            flags=ec.SHF_ALLOC | ec.SHF_EXECINSTR,
            vaddr=0,
            data=bytes(text),
            align=16,
        )
    )
    writer.add_section(
        Section(
            ".data",
            flags=ec.SHF_ALLOC | ec.SHF_WRITE,
            vaddr=len(text),
            data=bytes(data),
            align=16,
        )
    )
    for func_name, (offset, size) in functions.items():
        writer.add_symbol(Symbol(func_name, offset, size, section=".text"))
    writer.add_segment(SegmentSpec([".text"], flags=ec.PF_R | ec.PF_X))
    writer.add_segment(SegmentSpec([".data"], flags=ec.PF_R | ec.PF_W))
    return ModuleImage(
        name=name,
        elf_bytes=writer.build(),
        relocs=relocs,
        functions=functions,
        imports=sorted(set(imports)),
    )


def verify_loaded_module(vm, module: "ModuleImage", loaded: "LoadedModule") -> int:
    """Oracle for a linked module; returns the number of slots checked.

    Proves (through the live page tables) that every module function is at
    its claimed address and every relocation slot holds the final address
    of its target — kernel imports must point at the *randomized* kernel
    symbols.  Raises :class:`~repro.errors.GuestPanic` on any mismatch.
    """
    from repro.errors import GuestPanic

    for func_name, (offset, _size) in module.functions.items():
        vaddr = loaded.load_vaddr + offset
        header = vm.walker.read_virt(vaddr, ID_TAG_OFFSET + ID_TAG_SIZE)
        if header[:ID_TAG_OFFSET] != FUNCTION_PROLOGUE:
            raise GuestPanic(f"module fn {func_name}: no prologue at {vaddr:#x}")
        if header[ID_TAG_OFFSET:] != function_id_tag(func_name):
            raise GuestPanic(f"module fn {func_name}: identity tag mismatch")
    checked = 0
    for reloc in module.relocs:
        actual = struct.unpack(
            "<Q", vm.memory.read(loaded.load_paddr + reloc.image_offset, 8)
        )[0]
        if reloc.symbol in module.functions:
            expected = loaded.load_vaddr + module.functions[reloc.symbol][0]
        else:
            kernel_func = vm.kernel.manifest.function(reloc.symbol)
            expected = vm.layout.final_vaddr(kernel_func.link_vaddr)
        if actual != expected + reloc.addend:
            raise GuestPanic(
                f"module {module.name} slot +{reloc.image_offset:#x} -> "
                f"{reloc.symbol}: holds {actual:#x}, expected {expected:#x}"
            )
        checked += 1
    return checked


@dataclass(frozen=True)
class LoadedModule:
    """Where a module landed inside a guest."""

    name: str
    load_vaddr: int
    load_paddr: int
    image_size: int
    resolved_imports: dict[str, int]
