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
from array import array
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

#: symbols that always exist in base .text (never moved by FGKASLR)
BASE_SYMBOL_NAMES = (
    ["startup_64", "secondary_startup_64", "early_idt_handler", "__switch_to_asm"]
    + [f"ex_fixup_{i}" for i in range(8)]
    + ["memcpy_orig", "memset_orig", "copy_user_generic", "entry_SYSCALL_64"]
)


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

    @cached_property
    def oracle_rows(self) -> "OracleRows":
        """What the verification oracle reads, derived on first use.

        The builder is done with the manifest by then; nothing here
        changes per boot.
        """
        return OracleRows.of(self)


@dataclass(frozen=True)
class SiteRows:
    """One relocation class's sites, sorted by link offset, as flat arrays.

    Arrays hold no object references, so the garbage collector does not
    scan them, and they pickle (a fleet worker may receive the manifest).
    """

    reloc_type: RelocType
    #: link offset of each site
    offsets: array
    #: index of each site's target in :attr:`OracleRows.targets`
    targets: array
    #: 1 where the site lies in ``__ex_table``
    in_extable: bytes
    #: index of each site in :attr:`BuildManifest.reloc_sites`
    index: array


@dataclass(frozen=True)
class OracleRows:
    """A manifest's relocation sites and named addresses, as the oracle reads them."""

    #: each distinct target link vaddr (+ addend), ascending
    targets: array
    #: one entry per class, in :class:`RelocType` order
    classes: tuple[SiteRows, ...]
    #: the names whose code headers the oracle reads, in check order
    names: tuple[str, ...]
    #: link vaddr of each name
    vaddrs: array
    #: prologue plus identity tag expected at each name's address
    headers: tuple[bytes, ...]
    #: digest of everything above: equal manifests share oracle plans
    key: bytes = field(repr=False)

    @classmethod
    def of(cls, manifest: "BuildManifest") -> "OracleRows":
        vaddrs = dict(manifest.symbols)
        vaddrs.update((f.name, f.link_vaddr) for f in manifest.functions)
        names = [f.name for f in manifest.functions]
        names += [n for n in BASE_SYMBOL_NAMES if n in manifest.symbols]
        by_class: dict[RelocType, list] = {t: [] for t in RelocType}
        for i, s in enumerate(manifest.reloc_sites):
            target = vaddrs[s.target_symbol] + s.target_addend
            by_class[s.reloc_type].append((s.link_offset, target, s.in_extable, i))
        targets = sorted({row[1] for rows in by_class.values() for row in rows})
        slot = {t: k for k, t in enumerate(targets)}
        classes = []
        for reloc_type, rows in by_class.items():
            rows.sort(key=itemgetter(0))
            classes.append(
                SiteRows(
                    reloc_type=reloc_type,
                    offsets=array("I", [r[0] for r in rows]),
                    targets=array(
                        "H" if len(targets) <= 0x10000 else "I",
                        [slot[r[1]] for r in rows],
                    ),
                    in_extable=bytes(r[2] for r in rows),
                    index=array("I", [r[3] for r in rows]),
                )
            )
        digest = hashlib.blake2b(digest_size=16)
        digest.update(array("Q", targets))
        for rows in classes:
            for part in (rows.offsets, rows.targets, rows.in_extable):
                digest.update(len(part).to_bytes(4, "little"))
                digest.update(part)
        digest.update(array("Q", [vaddrs[n] for n in names]))
        digest.update("\0".join(names).encode())
        return cls(
            targets=array("Q", targets),
            classes=tuple(classes),
            names=tuple(names),
            vaddrs=array("Q", [vaddrs[n] for n in names]),
            headers=tuple(FUNCTION_PROLOGUE + function_id_tag(n) for n in names),
            key=digest.digest(),
        )
