"""The batched relocation passes against their per-site references.

``Relocator.apply``, ``Rerandomizer.rebase`` and the oracle's site check
walk each table once, reuse a moved-section window and a memory chunk
across sites, and resolve each distinct stored word or target once.  For
random tables — unsorted offsets, words straddling a 256 KiB chunk,
sites inside moved sections, stored values in moved sections, in gaps
and outside the kernel window — they must leave byte-identical guest
memory, count the same entries and charge the same time as the per-site
references in ``reference.py``, or fail with the same error.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference
from repro.core import LayoutResult, RandoContext, RandomizeMode
from repro.core.policy import RandomizationPolicy
from repro.core.relocator import Relocator
from repro.core.rerandomize import Rerandomizer
from repro.elf.relocs import RelocationTable, RelocType
from repro.errors import GuestMemoryError, GuestPanic, RandomizationError
from repro.kernel import TINY, KernelVariant
from repro.kernel import layout as kl
from repro.kernel.manifest import BuildManifest, RelocSiteInfo
from repro.kernel.verify import _verify_reloc_sites
from repro.simtime import CostModel, SimClock
from repro.vm import GuestMemory

from helpers import randomize_into_memory

V = kl.LINK_VBASE
P = kl.PHYS_LOAD_ADDR
CHUNK = 1 << 18
#: sites live in the first IMAGE bytes of the image, which span two
#: chunk boundaries
IMAGE = 5 * CHUNK // 2
#: guest memory ends a little past the image, so far-moved sites leave it
MEM = P + 3 * CHUNK
WINDOW_TOP = kl.START_KERNEL_MAP + 2 * kl.GIB
M32 = 0xFFFF_FFFF
M64 = 0xFFFF_FFFF_FFFF_FFFF
SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_offsets = st.one_of(
    st.integers(0, IMAGE - 8),
    # words straddling, touching or just clearing a chunk boundary
    st.sampled_from([CHUNK, 2 * CHUNK]).flatmap(
        lambda b: st.integers(b - P % CHUNK - 9, b - P % CHUNK + 1)
    ),
)
_moves = st.lists(
    st.tuples(
        st.integers(0, IMAGE),
        st.integers(0, 0x8000),
        st.integers(-CHUNK, CHUNK),
    ),
    max_size=6,
)


def _ctx(seed: int = 0) -> RandoContext:
    return RandoContext.monitor(SimClock(), CostModel(scale=1), random.Random(seed))


def _layout(voffset: int, moves) -> LayoutResult:
    layout = LayoutResult(voffset=voffset, phys_load=P, mem_bytes=IMAGE)
    layout.moved = [(V + start, size, delta) for start, size, delta in moves]
    return layout.finalize()


def _contents(memory: GuestMemory) -> dict[int, bytes]:
    """Guest memory as data, whichever chunks happen to be materialized."""
    zero = bytes(CHUNK)
    return {i: c for i, c in memory.freeze().items() if c != zero}


def _outcome(fn):
    try:
        return "ok", fn()
    except (RandomizationError, GuestMemoryError, GuestPanic) as exc:
        return type(exc).__name__, str(exc)


def _stored_values(data, layout, n: int) -> list[int]:
    """Link-time vaddrs: in moved sections, in gaps, or anything at all."""
    in_moved = (
        st.sampled_from(layout.moved).flatmap(
            lambda m: st.integers(m[0], m[0] + max(m[1] - 1, 0))
        )
        if layout.moved
        else st.integers(V, V + IMAGE)
    )
    valid = st.one_of(
        in_moved,
        st.integers(V, V + IMAGE),
        # ABS32 and INV32 both store this as 0x80000000 and relocate it
        # differently, so a memo keyed on the word must stay per class
        st.just(kl.START_KERNEL_MAP),
    )
    anything = st.one_of(
        valid,
        st.integers(WINDOW_TOP - 0x10_0000, WINDOW_TOP - 1),
        st.integers(0, (1 << 64) - 1),
    )
    value = anything if data.draw(st.booleans()) else valid
    return data.draw(st.lists(value, min_size=n, max_size=n))


def _table(data) -> RelocationTable:
    table = RelocationTable(
        abs64=data.draw(st.lists(_offsets, max_size=24)),
        abs32=data.draw(st.lists(_offsets, max_size=24)),
        inv32=data.draw(st.lists(_offsets, max_size=12)),
    )
    return table.sorted() if data.draw(st.booleans()) else table


def _memory_with(layout, table, values, at) -> GuestMemory:
    """Guest memory holding each site's value, written where ``at`` says."""
    memory = GuestMemory(MEM)
    sites = [(8, off) for off in table.abs64]
    sites += [(4, off) for off in table.abs32]
    sites += [(-4, off) for off in table.inv32]
    for (kind, off), value in zip(sites, values):
        paddr = at(layout, off)
        word = (
            struct.pack("<Q", value & M64)
            if kind == 8
            else struct.pack("<I", (value if kind > 0 else -value) & M32)
        )
        if paddr + len(word) <= MEM:
            memory.write(paddr, word)
    return memory


@SETTINGS
@given(data=st.data(), voffset=st.integers(0, 511), moves=_moves)
def test_relocator_matches_per_site_reference(data, voffset, moves):
    layout = _layout(voffset * 2 * kl.MIB, moves)
    table = _table(data)
    values = _stored_values(data, layout, table.entry_count)
    base = _memory_with(layout, table, values, reference.site_paddr)
    mem_new, mem_ref = base.clone_cow(), base.clone_cow()
    lay_new, lay_ref = layout.clone(), layout.clone()
    ctx_new, ctx_ref = _ctx(), _ctx()

    got = _outcome(lambda: Relocator(mem_new, lay_new).apply(table, ctx_new))
    want = _outcome(lambda: reference.relocate(mem_ref, lay_ref, table, ctx_ref))

    assert got == want
    assert _contents(mem_new) == _contents(mem_ref)
    assert lay_new.relocs_applied == lay_ref.relocs_applied
    assert ctx_new.clock.now_ns == ctx_ref.clock.now_ns


def test_a_word_both_32_bit_classes_store_is_fixed_per_class():
    """ABS32 and INV32 both store START_KERNEL_MAP as 0x80000000."""
    layout = _layout(4 * kl.MIB, [])
    table = RelocationTable(abs32=[0x100], inv32=[0x200])
    values = [kl.START_KERNEL_MAP] * 2
    base = _memory_with(layout, table, values, reference.site_paddr)
    mem_new, mem_ref = base.clone_cow(), base.clone_cow()
    Relocator(mem_new, layout.clone()).apply(table, _ctx())
    reference.relocate(mem_ref, layout.clone(), table, _ctx())
    assert _contents(mem_new) == _contents(mem_ref)
    assert mem_new.read_u32(P + 0x200) == (-(kl.START_KERNEL_MAP + 4 * kl.MIB)) & M32


@SETTINGS
@given(data=st.data(), old=st.integers(0, 511), seed=st.integers(0, 2**32))
def test_rebase_matches_per_site_reference(data, old, seed):
    layout = _layout(old * 2 * kl.MIB, [])
    table = _table(data)
    values = [
        v + layout.voffset for v in _stored_values(data, layout, table.entry_count)
    ]
    base = _memory_with(layout, table, values, lambda lay, off: P + off)
    mem_new, mem_ref = base.clone_cow(), base.clone_cow()
    lay_new, lay_ref = layout.clone(), layout.clone()
    ctx_new, ctx_ref = _ctx(seed), _ctx(seed)
    policy = RandomizationPolicy()

    got = _outcome(
        lambda: Rerandomizer(policy).rebase(mem_new, lay_new, table, ctx_new)
    )
    want = _outcome(lambda: reference.rebase(policy, mem_ref, lay_ref, table, ctx_ref))

    assert got == want
    assert _contents(mem_new) == _contents(mem_ref)
    assert lay_new.voffset == lay_ref.voffset
    assert ctx_new.clock.now_ns == ctx_ref.clock.now_ns


def test_rebase_refuses_fine_grained_like_reference():
    layout = _layout(0, [(0x1000, 0x100, 0x40)])
    table = RelocationTable(abs64=[0x10])
    memory = GuestMemory(MEM)
    got = _outcome(
        lambda: Rerandomizer().rebase(memory, layout.clone(), table, _ctx())
    )
    want = _outcome(
        lambda: reference.rebase(
            RandomizationPolicy(), memory, layout.clone(), table, _ctx()
        )
    )
    assert got == want
    assert got[0] == "RandomizationError"


@pytest.mark.parametrize(
    "variant, mode",
    [
        (KernelVariant.KASLR, RandomizeMode.KASLR),
        (KernelVariant.FGKASLR, RandomizeMode.FGKASLR),
    ],
)
def test_real_kernel_relocates_like_reference(variant, mode, monkeypatch):
    """A whole tiny-kernel randomization, batched vs per-site relocation."""
    from repro.artifacts import get_kernel
    from repro.core import inmonitor

    img = get_kernel(TINY, variant, scale=1, seed=3)
    layout, _, memory, clock = randomize_into_memory(img, mode, seed=11)

    class PerSite(Relocator):
        def apply(self, table, ctx):
            return reference.relocate(self.memory, self.layout, table, ctx)

    monkeypatch.setattr(inmonitor, "Relocator", PerSite)
    ref_layout, _, ref_memory, ref_clock = randomize_into_memory(img, mode, seed=11)

    assert layout == ref_layout
    assert _contents(memory) == _contents(ref_memory)
    assert clock.now_ns == ref_clock.now_ns


# -- the oracle's site check ---------------------------------------------------

#: one word per 16-byte slot, at slot + 8, so no two words overlap; the
#: slot ending at the first chunk boundary holds a word straddling it
_SLOT = 16
_STRADDLER = CHUNK - P % CHUNK - 4


def _slot_offset(slot: int) -> int:
    off = slot * _SLOT + 8
    return _STRADDLER if off == _STRADDLER - 4 else off


def _manifest(sites, symbols) -> BuildManifest:
    return BuildManifest(
        config=TINY,
        variant=KernelVariant.KASLR,
        scale=1,
        seed=0,
        entry_vaddr=V,
        reloc_sites=sites,
        symbols=symbols,
    )


def _expected_word(layout, manifest, site) -> bytes:
    final = reference.final_vaddr(
        layout, manifest.symbols[site.target_symbol] + site.target_addend
    )
    if site.reloc_type is RelocType.ABS64:
        return struct.pack("<Q", final)
    if site.reloc_type is RelocType.ABS32:
        return struct.pack("<I", final & M32)
    return struct.pack("<I", -final & M32)


def _compare_oracles(memory, layout, manifest):
    private = memory.private_bytes
    got = _outcome(lambda: _verify_reloc_sites(memory, layout, manifest))
    want = _outcome(lambda: reference.verify_reloc_sites(memory, layout, manifest))
    assert got == want
    # the oracle reads through views that materialize nothing
    assert memory.private_bytes == private
    return got


@SETTINGS
@given(
    data=st.data(),
    voffset=st.integers(0, 511),
    n_moves=st.integers(0, 4),
)
def test_oracle_sites_match_per_site_reference(data, voffset, n_moves):
    # sections of the first half move, intact, into the second half, so
    # moved words never land on unmoved ones
    span = IMAGE // 2 // max(n_moves, 1)
    layout = _layout(
        voffset * 2 * kl.MIB,
        [(k * span, span // 2, IMAGE // 2) for k in range(n_moves)],
    )
    slots = data.draw(
        st.lists(st.integers(0, IMAGE // 2 // _SLOT - 1), unique=True, max_size=40)
    )
    symbols = {f"sym{i}": V + i * 0x40 for i in range(16)}
    sites = [
        RelocSiteInfo(
            reloc_type=data.draw(st.sampled_from(list(RelocType))),
            link_offset=_slot_offset(slot),
            target_symbol=data.draw(st.sampled_from(sorted(symbols))),
            target_addend=data.draw(st.integers(0, 0x3F)),
            in_extable=data.draw(st.booleans()),
        )
        for slot in slots
    ]
    manifest = _manifest(sites, symbols)
    # at most one bad site: with several, which one is reported first
    # depends on the walk order
    bad = data.draw(st.sampled_from([None, *range(len(sites))]))
    skip = data.draw(st.booleans())
    memory = GuestMemory(MEM)
    for i, site in enumerate(sites):
        word = _expected_word(layout, manifest, site)
        if i == bad:
            if skip:
                continue
            word = bytes([word[0] ^ 1]) + word[1:]
        memory.write(reference.site_paddr(layout, site.link_offset), word)
    _compare_oracles(memory.clone_cow(), layout, manifest)


@pytest.mark.parametrize("reloc_type", list(RelocType))
def test_oracle_straddling_site_panics_like_reference(reloc_type):
    layout = _layout(0x400000, [])
    site = RelocSiteInfo(reloc_type, _STRADDLER, "sym", 8)
    manifest = _manifest([site], {"sym": V + 0x100})
    memory = GuestMemory(MEM)
    word = _expected_word(layout, manifest, site)
    memory.write(P + _STRADDLER, word)
    assert _compare_oracles(memory, layout, manifest) == ("ok", 1)
    memory.write(P + _STRADDLER + len(word) - 1, b"\xee")  # the far chunk's byte
    kind, message = _compare_oracles(memory, layout, manifest)
    assert kind == "GuestPanic" and "relocation site" in message


def test_oracle_site_in_untouched_chunk_panics_like_reference():
    layout = _layout(0x400000, [])
    sites = [
        RelocSiteInfo(RelocType.ABS64, 0x100, "sym"),
        RelocSiteInfo(RelocType.ABS32, 2 * CHUNK + 0x40, "sym"),  # never written
    ]
    manifest = _manifest(sites, {"sym": V + 0x100})
    memory = GuestMemory(MEM)
    memory.write(P + 0x100, _expected_word(layout, manifest, sites[0]))
    kind, message = _compare_oracles(memory, layout, manifest)
    assert kind == "GuestPanic" and "holds 00000000" in message
    assert memory.private_bytes == CHUNK


def test_oracle_site_outside_memory_raises_like_reference():
    layout = _layout(0, [])
    manifest = _manifest(
        [RelocSiteInfo(RelocType.ABS64, MEM - P - 4, "sym")], {"sym": V}
    )
    kind, _ = _compare_oracles(GuestMemory(MEM), layout, manifest)
    assert kind == "GuestMemoryError"


# -- site plans ------------------------------------------------------------------


def test_one_plan_serves_layouts_that_share_windows(tiny_fgkaslr, monkeypatch):
    """Three FGKASLR boots and a KASLR boot of one kernel, in one process.

    The FGKASLR layouts share their window bounds and differ in deltas
    and voffset, so they share plans; a plan that kept any boot's data
    would relocate, rebase or verify a later boot wrongly.
    """
    from repro.core import inmonitor
    from repro.kernel.verify import verify_guest_kernel

    from helpers import walker_for

    class PerSite(Relocator):
        def apply(self, table, ctx):
            return reference.relocate(self.memory, self.layout, table, ctx)

    boots = [(RandomizeMode.FGKASLR, s) for s in (11, 12, 13)]
    boots.append((RandomizeMode.KASLR, 14))
    seen = []
    for mode, seed in boots:
        with monkeypatch.context() as m:
            m.setattr(inmonitor, "Relocator", PerSite)
            want = randomize_into_memory(tiny_fgkaslr, mode, seed=seed)
        layout, loaded, memory, clock = randomize_into_memory(
            tiny_fgkaslr, mode, seed=seed
        )
        assert layout == want[0] and clock.now_ns == want[3].now_ns
        assert _contents(memory) == _contents(want[2])
        walker = walker_for(memory, layout, loaded)
        manifest = tiny_fgkaslr.manifest
        report = verify_guest_kernel(memory, walker, layout, manifest)
        assert report == reference.verify_guest_kernel(memory, walker, layout, manifest)
        assert report.sites_checked > 0
        mem_new, mem_ref = memory.clone_cow(), memory.clone_cow()
        lay_new, lay_ref = layout.clone(), layout.clone()
        table, policy = tiny_fgkaslr.reloc_table, RandomizationPolicy()
        got = _outcome(
            lambda: Rerandomizer(policy).rebase(mem_new, lay_new, table, _ctx(seed))
        )
        want_rebase = _outcome(
            lambda: reference.rebase(policy, mem_ref, lay_ref, table, _ctx(seed))
        )
        assert got == want_rebase
        assert _contents(mem_new) == _contents(mem_ref)
        seen.append(layout)
    fg = seen[:3]
    assert len({lay.windows()[0] for lay in fg}) == 1
    assert len({tuple(lay.windows()[1]) for lay in fg}) == 3
    assert len({lay.voffset for lay in fg}) == 3
    assert not seen[3].fine_grained


@SETTINGS
@given(data=st.data(), n_moves=st.integers(1, 4))
def test_plans_carry_no_per_boot_data(data, n_moves):
    """One table and one manifest under layouts sharing window bounds."""
    span = IMAGE // 2 // n_moves
    slots = data.draw(
        st.lists(st.integers(0, IMAGE // 2 // _SLOT - 1), unique=True, max_size=40)
    )
    symbols = {f"sym{i}": V + i * 0x40 for i in range(16)}
    sites = [
        RelocSiteInfo(
            reloc_type=data.draw(st.sampled_from(list(RelocType))),
            link_offset=_slot_offset(slot),
            target_symbol=data.draw(st.sampled_from(sorted(symbols))),
            target_addend=data.draw(st.integers(0, 0x3F)),
        )
        for slot in slots
    ]
    manifest = _manifest(sites, symbols)
    table = _table(data)
    for _ in range(3):
        # sections of the first half move, intact, into the second half
        layout = _layout(
            data.draw(st.integers(0, 511)) * 2 * kl.MIB,
            [
                (k * span, span // 2, IMAGE // 2 + 16 * nudge)
                for k, nudge in enumerate(
                    data.draw(st.integers(0, span // 32)) for _ in range(n_moves)
                )
            ],
        )
        bad = data.draw(st.sampled_from([None, *range(len(sites))]))
        memory = GuestMemory(MEM)
        for i, site in enumerate(sites):
            word = _expected_word(layout, manifest, site)
            if i == bad:
                word = bytes([word[0] ^ 1]) + word[1:]
            memory.write(reference.site_paddr(layout, site.link_offset), word)
        kind, _ = _compare_oracles(memory.clone_cow(), layout, manifest)
        assert kind == ("ok" if bad is None else "GuestPanic")

        values = _stored_values(data, layout, table.entry_count)
        base = _memory_with(layout, table, values, reference.site_paddr)
        mem_new, mem_ref = base.clone_cow(), base.clone_cow()
        lay_new, lay_ref = layout.clone(), layout.clone()
        got = _outcome(lambda: Relocator(mem_new, lay_new).apply(table, _ctx()))
        want = _outcome(lambda: reference.relocate(mem_ref, lay_ref, table, _ctx()))
        assert got == want
        assert _contents(mem_new) == _contents(mem_ref)


def _moved_across_a_chunk(n_sites: int, shift: int = 0):
    """A layout moving one section so it straddles the second chunk
    boundary (with ``shift=CHUNK``, the end of guest memory), and
    ``n_sites`` 8-byte sites in it."""
    start, size = 0x1000, 0x400
    delta = 2 * CHUNK - P % CHUNK - start - size // 2 + shift
    layout = _layout(0x200000, [(start, size, delta)])
    return layout, [start + 16 * i for i in range(n_sites)]


@pytest.mark.parametrize("shift", [0, CHUNK])
def test_a_run_across_a_chunk_relocates_like_reference(shift):
    layout, offsets = _moved_across_a_chunk(40, shift)
    table = RelocationTable(abs64=offsets, abs32=[o + 8 for o in offsets])
    values = [V + 0x40 * i for i in range(table.entry_count)]
    base = _memory_with(layout, table, values, reference.site_paddr)
    mem_new, mem_ref = base.clone_cow(), base.clone_cow()
    got = _outcome(lambda: Relocator(mem_new, layout.clone()).apply(table, _ctx()))
    want = _outcome(lambda: reference.relocate(mem_ref, layout.clone(), table, _ctx()))
    assert got == want
    assert got[0] == ("ok" if shift == 0 else "GuestMemoryError")
    assert _contents(mem_new) == _contents(mem_ref)


@pytest.mark.parametrize("shift", [0, CHUNK])
def test_a_run_across_a_chunk_verifies_like_reference(shift):
    layout, offsets = _moved_across_a_chunk(40, shift)
    manifest = _manifest(
        [RelocSiteInfo(RelocType.ABS64, off, "sym", 8) for off in offsets],
        {"sym": V + 0x100},
    )
    memory = GuestMemory(MEM)
    for site in manifest.reloc_sites:
        paddr = reference.site_paddr(layout, site.link_offset)
        if paddr + 8 <= MEM:
            memory.write(paddr, _expected_word(layout, manifest, site))
    kind, _ = _compare_oracles(memory, layout, manifest)
    assert kind == ("ok" if shift == 0 else "GuestMemoryError")


@SETTINGS
@given(data=st.data(), voffset=st.integers(0, 511), n_moves=st.integers(0, 4))
def test_oracle_reports_the_first_of_several_bad_sites(data, voffset, n_moves):
    """The first bad site in (class, offset) order, as the reference
    reports that site when it is the only bad one."""
    span = IMAGE // 2 // max(n_moves, 1)
    layout = _layout(
        voffset * 2 * kl.MIB,
        [(k * span, span // 2, IMAGE // 2) for k in range(n_moves)],
    )
    slots = data.draw(
        st.lists(
            st.integers(0, IMAGE // 2 // _SLOT - 1),
            unique=True,
            min_size=2,
            max_size=60,
        )
    )
    symbols = {f"sym{i}": V + i * 0x40 for i in range(16)}
    sites = [
        RelocSiteInfo(
            reloc_type=data.draw(st.sampled_from(list(RelocType))),
            link_offset=_slot_offset(slot),
            target_symbol=data.draw(st.sampled_from(sorted(symbols))),
            target_addend=data.draw(st.integers(0, 0x3F)),
        )
        for slot in slots
    ]
    manifest = _manifest(sites, symbols)
    bad = data.draw(st.sets(st.sampled_from(range(len(sites))), min_size=2))

    def memory_with(bad_sites):
        memory = GuestMemory(MEM)
        for i, site in enumerate(sites):
            word = _expected_word(layout, manifest, site)
            if i in bad_sites:
                word = bytes([word[0] ^ 1]) + word[1:]
            memory.write(reference.site_paddr(layout, site.link_offset), word)
        return memory

    classes = list(RelocType)
    first = min(
        bad, key=lambda i: (classes.index(sites[i].reloc_type), sites[i].link_offset)
    )
    got = _outcome(lambda: _verify_reloc_sites(memory_with(bad), layout, manifest))
    alone = memory_with({first})
    want = _outcome(lambda: reference.verify_reloc_sites(alone, layout, manifest))
    assert got == want
    assert got[0] == "GuestPanic"


@pytest.mark.parametrize("variant, mode", [
    (KernelVariant.KASLR, RandomizeMode.KASLR),
    (KernelVariant.FGKASLR, RandomizeMode.FGKASLR),
])
def test_a_table_parsed_per_boot_leaves_no_plan(variant, mode, monkeypatch):
    """A bzImage boot's relocation table dies with the boot."""
    import gc
    import weakref

    from repro.artifacts import get_bzimage, get_kernel
    from repro.core import siteplan
    from repro.host import HostStorage
    from repro.monitor import BootFormat, Firecracker, VmConfig

    kernel = get_kernel(TINY, variant, scale=1, seed=3)
    cfg = VmConfig(
        kernel=kernel,
        boot_format=BootFormat.BZIMAGE,
        bzimage=get_bzimage(TINY, variant, "lz4", scale=1, seed=3),
        randomize=mode,
    )
    parsed = []
    decode = RelocationTable.decode.__func__

    def tracked(cls, blob):
        table = decode(cls, blob)
        parsed.append(weakref.ref(table))
        return table

    monkeypatch.setattr(RelocationTable, "decode", classmethod(tracked))
    monkeypatch.setattr(siteplan, "_plans", {})
    Firecracker(HostStorage()).boot(cfg)
    gc.collect()
    assert parsed and all(ref() is None for ref in parsed)
    # one window needs no plan; the FGKASLR plan is keyed by content
    derived = [k for k in siteplan._plans if k[0] == "relocs"]
    assert len(derived) == (mode is RandomizeMode.FGKASLR)
