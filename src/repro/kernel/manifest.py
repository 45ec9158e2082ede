"""Ground-truth build manifest.

The builder records exactly where every function and relocation site was
placed and what each site points at.  The manifest is the *oracle*: the
post-boot verifier recomputes every site's expected value from the final
layout and compares it with guest memory.  Neither the monitor nor the
bootstrap loader reads the manifest — they work only from the ELF and the
relocs sidecar, like their real counterparts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from repro.elf.relocs import RelocType
from repro.kernel.config import KernelConfig, KernelVariant

#: length of the unique identity tag embedded at offset 8 of every function
ID_TAG_SIZE = 8

#: canonical prologue bytes at offset 0 of every function
#: (push rbp; mov rbp,rsp; 4-byte nop)
FUNCTION_PROLOGUE = b"\x55\x48\x89\xe5\x0f\x1f\x40\x00"

#: byte offset of the identity tag within a function body
ID_TAG_OFFSET = len(FUNCTION_PROLOGUE)


def function_id_tag(name: str) -> bytes:
    """The 8-byte identity tag embedded in a function's body.

    Verification reads this tag at a function's *final* address to prove
    the layout map is telling the truth about where the function landed.
    """
    return hashlib.blake2b(name.encode("ascii"), digest_size=ID_TAG_SIZE).digest()


@dataclass(frozen=True)
class FunctionInfo:
    """One generated kernel function."""

    name: str
    link_vaddr: int
    size: int
    #: ELF section holding the body (".text" or ".text.<name>")
    section: str

    @property
    def link_end(self) -> int:
        return self.link_vaddr + self.size


@dataclass(frozen=True)
class RelocSiteInfo:
    """One absolute-address fixup site and what it references."""

    reloc_type: RelocType
    #: link-time offset of the site from the start of the loaded image
    link_offset: int
    #: symbol the stored value points at ("" for section-less targets)
    target_symbol: str
    #: byte offset of the referenced address within the target symbol
    target_addend: int = 0
    #: sites inside __ex_table move rows when FGKASLR re-sorts the table,
    #: so they are verified as a set (see verify._verify_extable), not by
    #: fixed offset
    in_extable: bool = False


@dataclass
class BuildManifest:
    """Everything the verification oracle and tests need to know."""

    config: KernelConfig
    variant: KernelVariant
    scale: int
    seed: int
    entry_vaddr: int
    functions: list[FunctionInfo] = field(default_factory=list)
    reloc_sites: list[RelocSiteInfo] = field(default_factory=list)
    #: special symbols: _text, _etext, _sdata, _edata, __bss_start, _end, ...
    symbols: dict[str, int] = field(default_factory=dict)
    #: per-section link vaddr and size
    sections: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: extable ground truth: (target function, insn addend, fixup symbol)
    extable_targets: list[tuple[str, int, str]] = field(default_factory=list)
    n_extable: int = 0
    n_orc: int = 0
    n_kallsyms: int = 0
    #: total bytes of the loaded image (file image, excluding .bss)
    image_bytes: int = 0
    #: total in-memory bytes including .bss
    mem_bytes: int = 0

    _func_by_name: dict[str, FunctionInfo] = field(default_factory=dict, repr=False)

    def index(self) -> None:
        """(Re)build the name -> function lookup."""
        self._func_by_name = {f.name: f for f in self.functions}

    def function(self, name: str) -> FunctionInfo:
        if not self._func_by_name:
            self.index()
        return self._func_by_name[name]

    def has_function(self, name: str) -> bool:
        if not self._func_by_name:
            self.index()
        return name in self._func_by_name

    def symbol_link_vaddr(self, name: str) -> int:
        """Link-time address of a function or special symbol."""
        if self.has_function(name):
            return self.function(name).link_vaddr
        return self.symbols[name]

    # Derived once per manifest, on first verification (the builder is
    # done with the manifest by then); nothing here changes per boot.

    @cached_property
    def symbol_vaddrs(self) -> dict[str, int]:
        """:meth:`symbol_link_vaddr` of every name, as one dict."""
        vaddrs = dict(self.symbols)
        vaddrs.update((f.name, f.link_vaddr) for f in self.functions)
        return vaddrs

    @cached_property
    def code_headers(self) -> dict[str, bytes]:
        """Prologue plus identity tag, as found at each named address."""
        return {
            name: FUNCTION_PROLOGUE + function_id_tag(name)
            for name in self.symbol_vaddrs
        }

    @cached_property
    def site_rows(self) -> list[tuple[RelocType, list[tuple[int, int, bool, int]]]]:
        """The oracle's relocation sites as ``(class, rows)`` per class.

        Each row is ``(link_offset, target link vaddr + addend, in_extable,
        index into reloc_sites)``, sorted by offset.  Rows hold no object
        references, so the garbage collector stops scanning them.
        """
        vaddrs = self.symbol_vaddrs
        by_class: dict[RelocType, list] = {t: [] for t in RelocType}
        for i, s in enumerate(self.reloc_sites):
            by_class[s.reloc_type].append(
                (
                    s.link_offset,
                    vaddrs[s.target_symbol] + s.target_addend,
                    s.in_extable,
                    i,
                )
            )
        for rows in by_class.values():
            rows.sort(key=itemgetter(0))
        return list(by_class.items())
