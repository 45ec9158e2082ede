"""Relocation handling — the three fixup classes from Section 3.2.

Adapted (as the paper's prototype was) from the C implementation in the
Linux bootstrap loader's ``handle_relocations``:

* 64-bit sites get the virtual offset added,
* 32-bit sites get it added (value is the low 32 bits of a kernel vaddr),
* inverse 32-bit sites get it subtracted (per-CPU-style negated values).

Under FGKASLR two extra steps occur per entry, both mirrored here: the
*site itself* may live in a shuffled section (so the fixup location must be
remapped), and the *stored value* may point into a shuffled section (found
by binary search over the shuffled-section table, whose cost the model
charges per entry).
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import add, itemgetter
from typing import Callable, NamedTuple, Sequence

from repro.core import siteplan
from repro.core.context import RandoContext
from repro.core.layout_result import LayoutResult
from repro.elf.reader import ElfImage
from repro.elf.relocs import RelocationTable
from repro.errors import RandomizationError
from repro.kernel import layout as kl
from repro.vm.memory import CHUNK_SHIFT, GuestMemory

#: kernel virtual addresses live in the top 2 GiB, below this
_WINDOW_TOP = kl.START_KERNEL_MAP + 2 * kl.GIB
_HIGH_BITS = kl.START_KERNEL_MAP & ~0xFFFF_FFFF  # 0xffffffff_00000000
_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

#: ``fix(stored word, site image offset) -> new word`` for one class
WordFix = Callable[[int, int], int]


def check_kernel_vaddr(vaddr: int, site: str, offset: int) -> None:
    """Reject a value outside the kernel window; ``site`` + offset names it."""
    if not kl.START_KERNEL_MAP <= vaddr < _WINDOW_TOP:
        raise RandomizationError(
            f"{site}{offset:#x}: value {vaddr:#x} is not a kernel virtual address"
        )


def low32_to_vaddr(low32: int) -> int:
    """Reconstruct a full kernel vaddr from its low 32 bits."""
    return _HIGH_BITS | low32


class RelocClass(NamedTuple):
    """One relocation class: its site word and its arithmetic.

    The checked fix of :meth:`Relocator.apply` and the memo it builds
    from a plan's words both relocate through ``relocate``.
    """

    name: str
    word: struct.Struct
    #: the kernel vaddr a stored word names
    vaddr: Callable[[int], int]
    #: the stored word of that vaddr moved by ``shift``; None for a value
    #: that no longer fits the word
    relocate: Callable[[int, int], int | None]


def _abs32(low: int, shift: int) -> int | None:
    new = low + shift  # the low half of (_HIGH_BITS | low) + shift
    return new if 0 <= new <= _MASK32 else None


#: the three classes, in :class:`RelocationTable` order
CLASSES = (
    RelocClass(
        "ABS64",
        _U64,
        lambda value: value,
        lambda value, shift: (value + shift) & _MASK64,
    ),
    RelocClass("ABS32", _U32, low32_to_vaddr, _abs32),
    RelocClass(
        "INV32",
        _U32,
        lambda stored: low32_to_vaddr(-stored & _MASK32),
        lambda stored, shift: (stored - shift) & _MASK32,
    ),
)


def _class_offsets(table: RelocationTable) -> tuple[list[int], ...]:
    return table.abs64, table.abs32, table.inv32


class ClassPlan(NamedTuple):
    """One class's sites under one window layout, and the words they hold."""

    #: :func:`~repro.core.siteplan.split_runs` of the class's sites
    ends: array
    windows: array
    #: every distinct link-time word at the sites that names a kernel
    #: vaddr, and the window of that vaddr (none without an image);
    #: (tuples: a boot iterates them, and an array makes an int per item)
    words: tuple[int, ...]
    word_windows: tuple[int, ...]


def relocation_plan(
    table: RelocationTable, layout: LayoutResult, image: ElfImage | None = None
) -> tuple[ClassPlan, ...]:
    """Each class's :class:`ClassPlan` under ``layout``'s windows.

    Derived once per table content, image content and window layout
    (see :mod:`repro.core.siteplan`).  Each is hashed once per object, so
    a lookup hashes three digests.
    """
    bounds, _ = layout.windows()
    vbase = layout.link_vbase
    key = (
        "relocs",
        table.content_key,
        image.digest if image is not None else None,
        vbase,
        layout.window_key,
    )
    return siteplan.shared(
        key,
        lambda: tuple(
            _class_plan(offsets, cls, image, bounds, vbase)
            for offsets, cls in zip(_class_offsets(table), CLASSES)
        ),
    )


def _class_plan(
    offsets: Sequence[int],
    cls: RelocClass,
    image: ElfImage | None,
    bounds: tuple[int, ...],
    vbase: int,
) -> ClassPlan:
    ends, windows = siteplan.split_runs(offsets, cls.word.size, bounds, vbase)
    words = []
    if image is not None:
        words = [
            w
            for w in link_words(image, offsets, cls.word)
            if kl.START_KERNEL_MAP <= cls.vaddr(w) < _WINDOW_TOP
        ]
    word_windows = siteplan.window_indices([cls.vaddr(w) for w in words], bounds)
    return ClassPlan(ends, windows, tuple(words), tuple(word_windows))


def link_words(
    image: ElfImage, offsets: Sequence[int], word: struct.Struct
) -> set[int]:
    """The distinct ``word``s ``image`` stores at the sites at ``offsets``.

    Read from the file bytes of the image's load segments, each placed
    at image offset ``p_paddr - PHYS_LOAD_ADDR`` as segment loading
    places it.  A site outside every segment's file bytes is skipped.
    """
    offsets = sorted(offsets)
    out: set[int] = set()
    for p in image.load_segments():
        lo = p.p_paddr - kl.PHYS_LOAD_ADDR
        first = bisect_left(offsets, lo)
        end = bisect_right(offsets, lo + p.p_filesz - word.size)
        at = map(add, offsets[first:end], repeat(p.p_offset - lo))
        out.update(map(itemgetter(0), map(word.unpack_from, repeat(image.data), at)))
    return out


def fix_sites(
    memory: GuestMemory,
    layout: LayoutResult,
    table: RelocationTable,
    fixes: Sequence[WordFix],
    plan: tuple[ClassPlan, ...] | None = None,
    memos: Sequence[dict[int, int | None]] | None = None,
) -> None:
    """Rewrite every site's word in place: one pass per relocation class.

    Sites are visited and written one at a time, in table order.  Under
    FGKASLR a pass walks the table's :func:`relocation_plan` (``plan``,
    looked up when not given): each run shares one displacement and,
    nearly always, one memory chunk, which is looked up once for the run.

    ``fixes`` holds each class's fix, in :data:`CLASSES` order.  A fix
    must depend on the stored word alone — the offset only names the
    site in errors — because a pass memoizes it by stored word.
    ``memos`` prefill the pass's memo (:meth:`Relocator.apply` builds
    them from the plan's words); a word missing from it, or mapped to
    None, goes through the fix once, and the result is reused for every
    other site holding that word.
    """
    bounds, deltas = layout.windows()
    if plan is None and len(bounds) > 2:
        plan = relocation_plan(table, layout)
    phys = layout.phys_load
    size = memory.size
    chunks: dict[int, tuple] = {}  # chunk index -> (writable buf, base, end)
    for c, (offsets, cls, fix) in enumerate(
        zip(_class_offsets(table), CLASSES, fixes)
    ):
        word = cls.word
        fixed = memos[c] if memos is not None else {}
        if plan is None:  # one window: the whole class is one run
            _fix_run(memory, offsets, word, phys, fix, fixed)
            continue
        width = word.size
        unpack, pack = word.unpack_from, word.pack_into
        get = fixed.get
        a = 0
        for b, j in zip(plan[c].ends, plan[c].windows):
            shift = phys + deltas[j]
            lo = offsets[a] + shift
            hi = offsets[b - 1] + shift + width
            view = chunks.get(lo >> CHUNK_SHIFT)
            if view is None or hi > view[2]:
                view = (
                    memory.word_view(lo, hi - lo, writable=True)
                    if 0 <= lo and hi <= size
                    else None
                )
                if view is None:  # straddles two chunks or leaves memory
                    _fix_run(memory, offsets[a:b], word, shift, fix, fixed)
                    a = b
                    continue
                buf, base, last = view
                view = chunks[lo >> CHUNK_SHIFT] = (buf, base, last + hi - lo)
            buf, base, _ = view
            k = shift - base
            for off in offsets[a:b]:
                at = off + k
                stored = unpack(buf, at)[0]
                new = get(stored)
                if new is None:
                    new = fixed[stored] = fix(stored, off)
                pack(buf, at, new)
            a = b


def _fix_run(
    memory: GuestMemory,
    offsets: Sequence[int],
    word: struct.Struct,
    shift: int,
    fix: WordFix,
    fixed: dict[int, int],
) -> None:
    """Fix the sites at ``offsets``, each at physical address ``off + shift``.

    The per-site path: it looks a chunk up again whenever a site leaves
    the last one, reads and writes a word that straddles two chunks with
    :meth:`GuestMemory.read`/:meth:`GuestMemory.write`, and raises
    :class:`~repro.errors.GuestMemoryError` at the first site outside
    guest memory.
    """
    width = word.size
    unpack, pack = word.unpack_from, word.pack_into
    buf, k, lo, hi = None, 0, 0, -1
    for off in offsets:
        if not lo <= off <= hi:
            view = memory.word_view(off + shift, width, writable=True)
            if view is None:  # straddles two chunks
                paddr = off + shift
                (stored,) = word.unpack(memory.read(paddr, width))
                memory.write(paddr, word.pack(fix(stored, off)))
                continue
            buf, base, last = view
            k, lo, hi = shift - base, base - shift, last - shift
        at = off + k
        stored = unpack(buf, at)[0]
        new = fixed.get(stored)
        if new is None:
            new = fixed[stored] = fix(stored, off)
        pack(buf, at, new)


class Relocator:
    """Applies a relocation table to a kernel image in guest memory."""

    def __init__(
        self,
        memory: GuestMemory,
        layout: LayoutResult,
        image: ElfImage | None = None,
    ) -> None:
        self.memory = memory
        self.layout = layout
        #: the ELF the kernel was loaded from; an FGKASLR layout's plan
        #: reads the link-time words at the sites from it
        self.image = image

    def apply(self, table: RelocationTable, ctx: RandoContext) -> int:
        """Fix every site; returns the number of entries processed.

        The byte work is real (values in guest memory change); the
        simulated time is charged in one batch per the cost model, with the
        FGKASLR binary-search surcharge when sections were shuffled.
        Under FGKASLR each class's memo starts with every word of the
        plan relocated by its window's shift, so a boot runs the checked
        fix only for a word the image did not hold at link time.
        """
        layout = self.layout
        n = table.entry_count
        if n == 0:
            return 0
        bounds, deltas = layout.windows()
        voffset = layout.voffset
        shifts = [delta + voffset for delta in deltas]
        fixes = [_checked_fix(cls, bounds, shifts) for cls in CLASSES]
        plan = memos = None
        if len(bounds) > 2:
            plan = relocation_plan(table, layout, self.image)
            memos = [_memo(p, cls, shifts) for p, cls in zip(plan, CLASSES)]
        fix_sites(self.memory, layout, table, fixes, plan, memos)
        ctx.charge(
            ctx.costs.reloc_apply_batch_ns(n, in_guest=ctx.in_guest),
            ctx.steps.relocate,
            label=f"apply {n} relocations",
        )
        if layout.fine_grained:
            ctx.charge(
                ctx.costs.reloc_search_batch_ns(n, len(layout.moved)),
                ctx.steps.relocate,
                label=f"binary search over {len(layout.moved)} shuffled sections",
            )
        layout.relocs_applied += n
        return n


def _memo(plan: ClassPlan, cls: RelocClass, shifts: list[int]) -> dict:
    """Each of the plan's words relocated by its window's shift."""
    word_shifts = map(shifts.__getitem__, plan.word_windows)
    return dict(zip(plan.words, map(cls.relocate, plan.words, word_shifts)))


def _checked_fix(
    cls: RelocClass, bounds: tuple[int, ...], shifts: list[int]
) -> WordFix:
    """``cls``'s fix under one layout: check the vaddr, then relocate it.

    ``shifts[j]`` is window ``j``'s displacement plus the voffset.
    """
    site = f"{cls.name} site at image+"
    vaddr_of, relocate = cls.vaddr, cls.relocate

    def fix(stored: int, off: int) -> int:
        vaddr = vaddr_of(stored)
        check_kernel_vaddr(vaddr, site, off)
        shift = shifts[bisect_right(bounds, vaddr) - 1]
        new = relocate(stored, shift)
        if new is None:
            raise RandomizationError(
                f"{site}{off:#x}: relocated value {vaddr + shift:#x} "
                "no longer fits 32 bits"
            )
        return new

    return fix
