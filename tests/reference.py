"""Straightforward reference implementations the library must agree with.

The per-site versions of ``Relocator.apply``, ``Rerandomizer.rebase`` and
the oracle's function and relocation-site checks: every site goes through
a binary search and a copying ``GuestMemory`` read/write.  The library's
batched passes must agree with them byte for byte and error for error;
the differential tests (``test_reloc_differential.py``,
``test_kernel_verify.py``) hold them to it.

:func:`load_text_shuffled` is the FGKASLR text placement as it once wrote
the shuffled text: one ``GuestMemory.write`` per function section, found
in a per-boot dict by link vaddr.  ``test_core_fgkaslr`` holds the
one-write placement to it byte for byte and charge for charge.

:class:`ReferenceRecorder` is the flight recorder that freezes every
closed window into one list before evicting; ``test_property_timeseries``
holds the evict-as-it-closes recorder to it.

:func:`audit_entropy_bits` is the KASLR auditor's entropy as it once
computed it on every record: the plug-in estimate over a stream that
repeats each digest once per boot.  ``test_audit`` holds the histogram
form to it after every record.

:func:`build_serve_traces` is the serve engine's trace builder as it once
replayed a run: span by span through open/close spans, with every
provision span id derived ahead of time, over per-request records it
regroups from the run's log.  ``test_tracing`` holds the
one-commit-per-trace builder to it byte for byte.

:func:`lz4_decompress` is the LZ4 block decoder as it once decoded every
sequence: an unconditional literal slice, ``struct.unpack_from`` for the
offset, ``len(out)`` for the output size and a byte-by-byte overlapping
copy.  ``test_compress_lz4`` holds the one-pass decoder to it byte for
byte and error for error.

:func:`lz4_compress` is the LZ4 block compressor as it once probed and
emitted: a hash call per probed position, a byte-at-a-time match
extension and an emit call per sequence.  :func:`filler` is the kernel
builder's filler as it once drew every pattern, one ``Random.choice``
call per pick.  ``test_compress_lz4`` and ``test_kernel_build`` hold the
inlined loops to them byte for byte (and the filler to the same random
stream).
"""

from __future__ import annotations

import bisect
import struct
from collections import defaultdict

from repro.compress.lz4c import (
    LAST_LITERALS,
    MAX_OFFSET,
    MFLIMIT,
    MIN_MATCH,
    Lz4Codec,
    _write_length,
)
from repro.elf.relocs import RelocType
from repro.errors import CompressionError, GuestPanic, RandomizationError
from repro.kernel import layout as kl
from repro.kernel.build import BASE_SYMBOL_NAMES
from repro.kernel.manifest import (
    FUNCTION_PROLOGUE,
    ID_TAG_OFFSET,
    ID_TAG_SIZE,
    function_id_tag,
)
from repro.kernel.verify import VerificationReport, _verify_extable, _verify_kallsyms
from repro.security.entropy import empirical_entropy_bits
from repro.serve.engine import Logged
from repro.telemetry.timeseries import TimeSeriesRecorder, _Accum
from repro.telemetry.tracing import derive_span_id

_KERNEL_WINDOW = 2 * kl.GIB
_HIGH_BITS = kl.START_KERNEL_MAP & ~0xFFFF_FFFF


# -- layout arithmetic ---------------------------------------------------------


def displacement(layout, link_vaddr: int) -> int:
    """Bisect over the sorted section starts, once per address."""
    moved = sorted(layout.moved, key=lambda m: m[0])
    i = bisect.bisect_right([m[0] for m in moved], link_vaddr) - 1
    if i >= 0:
        start, size, delta = moved[i]
        if start <= link_vaddr < start + size:
            return delta
    return 0


def final_vaddr(layout, link_vaddr: int) -> int:
    return link_vaddr + displacement(layout, link_vaddr) + layout.voffset


def site_paddr(layout, link_offset: int) -> int:
    return (
        layout.phys_load
        + link_offset
        + displacement(layout, layout.link_vbase + link_offset)
    )


# -- relocation ------------------------------------------------------------------


def _check_kernel_vaddr(vaddr: int, context: str) -> None:
    if not kl.START_KERNEL_MAP <= vaddr < kl.START_KERNEL_MAP + _KERNEL_WINDOW:
        raise RandomizationError(
            f"{context}: value {vaddr:#x} is not a kernel virtual address"
        )


def relocate(memory, layout, table, ctx) -> int:
    """``Relocator.apply``, one site at a time."""
    n = table.entry_count
    if n == 0:
        return 0
    for reloc_type, link_offset in table.iter_entries():
        paddr = site_paddr(layout, link_offset)
        if reloc_type is RelocType.ABS64:
            value = memory.read_u64(paddr)
            _check_kernel_vaddr(value, f"ABS64 site at image+{link_offset:#x}")
            memory.write_u64(paddr, final_vaddr(layout, value))
        elif reloc_type is RelocType.ABS32:
            vaddr = _HIGH_BITS | memory.read_u32(paddr)
            _check_kernel_vaddr(vaddr, f"ABS32 site at image+{link_offset:#x}")
            new = final_vaddr(layout, vaddr)
            if (new & ~0xFFFF_FFFF) != _HIGH_BITS:
                raise RandomizationError(
                    f"ABS32 site at image+{link_offset:#x}: relocated value "
                    f"{new:#x} no longer fits 32 bits"
                )
            memory.write_u32(paddr, new & 0xFFFF_FFFF)
        else:
            stored = memory.read_u32(paddr)
            vaddr = _HIGH_BITS | ((-stored) & 0xFFFF_FFFF)
            _check_kernel_vaddr(vaddr, f"INV32 site at image+{link_offset:#x}")
            memory.write_u32(paddr, (-final_vaddr(layout, vaddr)) & 0xFFFF_FFFF)
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


def load_text_shuffled(elf, plan, memory, phys_load, ctx, in_place=False) -> None:
    """``FgkaslrEngine.load_text_shuffled``, one section write at a time."""
    base_text = elf.section(".text")
    if in_place:
        ctx.charge(
            ctx.costs.loader_memcpy_ns(plan.region_end - plan.region_start),
            ctx.steps.shuffle,
            label="copy text region aside for in-place shuffle",
        )
    memory.write(phys_load + base_text.vaddr - kl.LINK_VBASE, base_text.data)
    sections = {s.vaddr: s for s in elf.function_sections()}
    for orig_start, _size, delta in plan.moved:
        new_off = orig_start + delta - kl.LINK_VBASE
        memory.write(phys_load + new_off, sections[orig_start].data)
    ctx.charge(
        ctx.costs.shuffle_ns(plan.n_sections, plan.moved_bytes),
        ctx.steps.shuffle,
        label=f"shuffle {plan.n_sections} sections",
    )


def rebase(policy, memory, layout, relocs, ctx) -> int:
    """``Rerandomizer.rebase``, one site at a time."""
    if layout.fine_grained:
        raise RandomizationError(
            "in-place rebase is limited to base-KASLR layouts; "
            "restore a different zygote to re-randomize FGKASLR guests"
        )
    old = layout.voffset
    new = policy.choose_virtual_offset(ctx, layout.mem_bytes)
    delta = new - old
    if delta == 0:
        return new
    for reloc_type, link_offset in relocs.iter_entries():
        paddr = layout.phys_load + link_offset
        if reloc_type is RelocType.ABS64:
            value = memory.read_u64(paddr)
            _check_kernel_vaddr(value - old, f"rebase ABS64 at +{link_offset:#x}")
            memory.write_u64(paddr, value + delta)
        elif reloc_type is RelocType.ABS32:
            low = memory.read_u32(paddr)
            _check_kernel_vaddr(
                (_HIGH_BITS | low) - old, f"rebase ABS32 at +{link_offset:#x}"
            )
            memory.write_u32(paddr, (low + delta) & 0xFFFFFFFF)
        else:
            memory.write_u32(paddr, (memory.read_u32(paddr) - delta) & 0xFFFFFFFF)
    ctx.charge(
        ctx.costs.reloc_apply_batch_ns(relocs.entry_count, in_guest=ctx.in_guest),
        ctx.steps.relocate,
        label=f"rebase {relocs.entry_count} relocations by {delta:#x}",
    )
    layout.voffset = new
    return new


# -- the oracle ----------------------------------------------------------------


def verify_functions(walker, layout, manifest) -> int:
    checked = 0
    names = [f.name for f in manifest.functions]
    names += [n for n in BASE_SYMBOL_NAMES if n in manifest.symbols]
    for name in names:
        final = final_vaddr(layout, manifest.symbol_link_vaddr(name))
        header = walker.read_virt(final, ID_TAG_OFFSET + ID_TAG_SIZE)
        if header[:ID_TAG_OFFSET] != FUNCTION_PROLOGUE:
            raise GuestPanic(
                f"function {name!r}: no prologue at final vaddr {final:#x}"
            )
        if header[ID_TAG_OFFSET:] != function_id_tag(name):
            raise GuestPanic(
                f"function {name!r}: identity tag mismatch at {final:#x} "
                "(layout map lies about where this function landed)"
            )
        checked += 1
    return checked


def verify_reloc_sites(memory, layout, manifest) -> int:
    checked = 0
    for site in manifest.reloc_sites:
        if site.in_extable and layout.fine_grained:
            continue
        target = manifest.symbol_link_vaddr(site.target_symbol)
        final = final_vaddr(layout, target + site.target_addend)
        if site.reloc_type is RelocType.ABS64:
            width, expected = 8, struct.pack("<Q", final)
        elif site.reloc_type is RelocType.ABS32:
            width, expected = 4, struct.pack("<I", final & 0xFFFFFFFF)
        else:
            width, expected = 4, struct.pack("<I", (-final) & 0xFFFFFFFF)
        actual = memory.read(site_paddr(layout, site.link_offset), width)
        if actual != expected:
            raise GuestPanic(
                f"relocation site image+{site.link_offset:#x} "
                f"({site.reloc_type}) -> {site.target_symbol}"
                f"+{site.target_addend:#x}: holds {actual.hex()} expected "
                f"{expected.hex()}"
            )
        checked += 1
    return checked


def verify_guest_kernel(memory, walker, layout, manifest) -> VerificationReport:
    """The oracle with the per-site function and relocation-site checks."""
    functions_checked = verify_functions(walker, layout, manifest)
    sites_checked = verify_reloc_sites(memory, layout, manifest)
    extable_checked = _verify_extable(memory, layout, manifest)
    kallsyms_checked, stale = _verify_kallsyms(memory, layout, manifest)
    return VerificationReport(
        functions_checked=functions_checked,
        sites_checked=sites_checked,
        extable_checked=extable_checked,
        kallsyms_checked=kallsyms_checked,
        kallsyms_stale=stale,
        entry_vaddr=layout.entry_vaddr,
    )


# -- flight recorder -------------------------------------------------------------


class ReferenceRecorder(TimeSeriesRecorder):
    """Closes windows one frame at a time, gaps included, then evicts."""

    def _close_through(self, last_index: int) -> None:
        closing = []
        with self._lock:
            while self._next_index <= last_index:
                index = self._next_index
                self._next_index += 1
                accum = self._open.pop(index, None) or _Accum()
                closing.append(self._freeze(index, accum))
            for frame in closing:
                self._frames.append(frame)
                self._closed += 1
                if len(self._frames) > self.capacity:
                    evicted = self._frames.pop(0)
                    self._dropped += 1
                    for name, entry in evicted.counters.items():
                        self._evicted[name] = (
                            self._evicted.get(name, 0) + entry["delta"]
                        )
        for frame in closing:
            for listener in self._listeners:
                listener(frame)


# -- KASLR auditor ---------------------------------------------------------------


def audit_entropy_bits(counts: dict[str, int]) -> float:
    """Entropy of ``digest -> boots``, one sample per boot: O(boots)."""
    return empirical_entropy_bits(d for d, n in counts.items() for _ in range(n))


# -- serve trace builder ----------------------------------------------------------


class _Tree:
    """Open/close spans over one trace: a seq per span at open time, the
    finished rows committed in seq order by :meth:`commit`."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.rows: list = []

    def open(self, name, kind, start_ns, *, parent=None, attrs=None):
        span = _OpenSpan(self, len(self.rows), name, kind, start_ns, parent, attrs)
        self.rows.append(None)
        return span

    def span(self, name, kind, start_ns, end_ns, *, parent=None, attrs=None):
        return self.open(name, kind, start_ns, parent=parent, attrs=attrs).close(
            end_ns
        )

    def commit(self) -> None:
        assert None not in self.rows, "a span was never closed"
        self.ctx.commit(self.rows)


class _OpenSpan:
    def __init__(self, tree, seq, name, kind, start_ns, parent, attrs) -> None:
        self.tree = tree
        self.seq = seq
        self.span_id = derive_span_id(tree.ctx.trace_id, seq)
        self.head = (name, kind, start_ns)
        self.parent = parent
        self.attrs = dict(attrs or {})

    def close(self, end_ns, **attrs):
        if self.tree.rows[self.seq] is not None:
            raise ValueError(f"span {self.head[0]!r} closed twice")
        merged = dict(self.attrs)
        merged.update(attrs)
        self.tree.rows[self.seq] = (*self.head, end_ns, self.parent, merged)
        return self


def _prov_attrs(entry: tuple) -> dict:
    _, _, instance_id, window, sample, _, _ = entry
    attrs = {
        "instance": instance_id,
        "worker": window.worker,
        "failed": sample.failed,
    }
    if sample.source:
        attrs["source"] = sample.source
    return attrs


def build_serve_traces(tracer, pool_ctx, log, trace_ids) -> None:
    """Replay one engine run's log (same arguments as
    ``ServeEngine._build_traces``) span by span.  Every trace id is
    derived afresh; the exemplar ids in ``trace_ids`` go unused."""
    # Pass 0: regroup the log into the pool trace's entries and, per
    # request, the entry that resolved it and the provisions it triggered
    # at admission and at dispatch.
    pool_entries = []
    resolved = {}
    arrive, dispatch = defaultdict(list), defaultdict(list)
    for entry in log:
        kind = entry[0]
        if kind == Logged.PROVISION:
            trigger, at_dispatch = entry[5], entry[6]
            if trigger is None:
                pool_entries.append(entry)
            else:
                (dispatch if at_dispatch else arrive)[trigger].append(entry)
        elif kind == Logged.PREWARM:
            if not entry[3].failed:
                pool_entries.append(entry)
        elif kind == Logged.EVICT:
            pool_entries.append(entry)
        elif kind in (Logged.DONE, Logged.DEADLINE, Logged.REJECT):
            resolved[entry[2]] = entry
    order = sorted(resolved)

    # Pass 1: provision/prewarm span ids by the instance they built,
    # computed arithmetically from each entry's future seq so an execute
    # span can link to the provision that built its instance even when
    # that provision lives in a trace built later.
    built_by = {}
    for seq, entry in enumerate(pool_entries):
        if entry[0] != Logged.EVICT:
            built_by[entry[2]] = derive_span_id(pool_ctx.trace_id, seq)
    for index in order:
        if not arrive[index] and not dispatch[index]:
            continue
        trace_id = tracer.trace_id_for(f"req/{index}")
        seq = 2  # after the root (0) and queue (1) spans
        for entry in arrive[index]:
            built_by[entry[2]] = derive_span_id(trace_id, seq)
            seq += 1
        if dispatch[index]:
            seq += 1  # the execute span sits between the phases
            for entry in dispatch[index]:
                built_by[entry[2]] = derive_span_id(trace_id, seq)
                seq += 1

    # Pass 2: the pool trace, spans in log order.
    pool = _Tree(pool_ctx)
    for entry in pool_entries:
        kind = entry[0]
        if kind == Logged.PREWARM:
            _, _, instance_id, sample = entry
            attrs = {"instance": instance_id}
            if sample.source:
                attrs["source"] = sample.source
            pool.span("prewarm", "prewarm", 0, 0, attrs=attrs)
        elif kind == Logged.PROVISION:
            window = entry[3]
            pool.span(
                "provision", "provision", window.start_ns, window.end_ns,
                attrs=_prov_attrs(entry),
            )
        else:
            pool.span("evict", "evict", entry[1], entry[1], attrs={"instance": entry[2]})
    pool.commit()

    # Pass 3: request traces in arrival (= index) order, spans in the
    # order the run created them.
    for index in order:
        entry = resolved[index]
        kind = entry[0]
        ctx = _Tree(tracer.trace(f"req/{index}"))
        if kind == Logged.REJECT:
            ctx.span(
                "request", "request", entry[1], entry[1],
                attrs={"index": index, "status": "rejected"},
            )
            ctx.commit()
            continue
        arrival_ns = entry[3]
        root = ctx.open("request", "request", arrival_ns, attrs={"index": index})
        queue = ctx.open("queue", "queue", arrival_ns, parent=root.span_id)
        for prov in arrive[index]:
            window = prov[3]
            ctx.span(
                "provision", "provision", window.start_ns, window.end_ns,
                parent=root.span_id, attrs=_prov_attrs(prov),
            )
        if kind == Logged.DEADLINE:
            failed_ns = entry[1]
            queue.close(failed_ns)
            root.close(failed_ns, status="deadline")
            ctx.commit()
            continue
        _, done_ns, _, _, dispatch_ns, inst, sample = entry
        queue.close(dispatch_ns)
        attrs = {
            "instance": inst.instance_id,
            "cold": inst.ready_ns > arrival_ns,
            "ready_ns": inst.ready_ns,
            "degraded": inst.degraded,
            "provision_span": built_by[inst.instance_id],
        }
        if sample.source:
            attrs["source"] = sample.source
        if sample.stage_ns:
            attrs["stage_ns"] = dict(sample.stage_ns)
        execute = ctx.open(
            "execute", "execute", dispatch_ns, parent=root.span_id, attrs=attrs
        )
        for prov in dispatch[index]:
            window = prov[3]
            ctx.span(
                "provision", "provision", window.start_ns, window.end_ns,
                parent=root.span_id, attrs=_prov_attrs(prov),
            )
        execute.close(done_ns)
        ctx.span("respond", "respond", done_ns, done_ns, parent=root.span_id)
        root.close(done_ns, status="served", latency_ns=done_ns - arrival_ns)
        ctx.commit()


# -- LZ4 block decoder ------------------------------------------------------------


def lz4_decompress(data: bytes) -> bytes:
    out = bytearray()
    pos = 0
    n = len(data)
    if n == 0:
        raise CompressionError("empty LZ4 block")
    while pos < n:
        token = data[pos]
        pos += 1
        lit_len = token >> 4
        if lit_len == 15:
            lit_len, pos = _lz4_read_length(data, pos, lit_len)
        if pos + lit_len > n:
            raise CompressionError("LZ4 literal run exceeds input")
        out += data[pos : pos + lit_len]
        pos += lit_len
        if pos == n:
            break  # last sequence: literals only
        if pos + 2 > n:
            raise CompressionError("LZ4 block truncated in match offset")
        offset = struct.unpack_from("<H", data, pos)[0]
        pos += 2
        if offset == 0 or offset > len(out):
            raise CompressionError(
                f"LZ4 match offset {offset} invalid at output size {len(out)}"
            )
        match_len = token & 0xF
        if match_len == 15:
            match_len, pos = _lz4_read_length(data, pos, match_len)
        match_len += MIN_MATCH
        start = len(out) - offset
        if offset >= match_len:
            out += out[start : start + match_len]
        else:
            # Overlapping copy replicates the window byte by byte.
            for i in range(match_len):
                out.append(out[start + i])
    return bytes(out)


def _lz4_read_length(data: bytes, pos: int, base: int) -> tuple[int, int]:
    length = base
    while True:
        if pos >= len(data):
            raise CompressionError("LZ4 length extension truncated")
        byte = data[pos]
        pos += 1
        length += byte
        if byte != 255:
            return length, pos


# -- LZ4 block compressor ---------------------------------------------------------

_LZ4_SKIP_TRIGGER = 6
_LZ4_HASH_MULT = 2654435761


def _lz4_hash(seq: int) -> int:
    return ((seq * _LZ4_HASH_MULT) & 0xFFFFFFFF) >> 16


def lz4_compress(data: bytes) -> bytes:
    n = len(data)
    out = bytearray()
    if n < MFLIMIT + 1:
        Lz4Codec._emit_last_literals(out, data, 0)
        return bytes(out)

    table: dict[int, int] = {}
    anchor = 0
    pos = 0
    match_limit = n - LAST_LITERALS
    mf_limit = n - MFLIMIT
    searches = 0
    while pos <= mf_limit:
        seq = struct.unpack_from("<I", data, pos)[0]
        h = _lz4_hash(seq)
        candidate = table.get(h)
        table[h] = pos
        if (
            candidate is None
            or pos - candidate > MAX_OFFSET
            or struct.unpack_from("<I", data, candidate)[0] != seq
        ):
            searches += 1
            pos += 1 + (searches >> _LZ4_SKIP_TRIGGER)
            continue
        searches = 0
        match_len = MIN_MATCH
        limit = match_limit - pos
        while (
            match_len < limit and data[candidate + match_len] == data[pos + match_len]
        ):
            match_len += 1
        _lz4_emit_sequence(out, data, anchor, pos, pos - candidate, match_len)
        pos += match_len
        anchor = pos
    Lz4Codec._emit_last_literals(out, data, anchor)
    return bytes(out)


def _lz4_emit_sequence(
    out: bytearray, data: bytes, anchor: int, pos: int, offset: int, match_len: int
) -> None:
    lit_len = pos - anchor
    ml_code = match_len - MIN_MATCH
    token_lit = 15 if lit_len >= 15 else lit_len
    token_ml = 15 if ml_code >= 15 else ml_code
    out.append((token_lit << 4) | token_ml)
    if lit_len >= 15:
        _write_length(out, lit_len - 15)
    out += data[anchor:pos]
    out += struct.pack("<H", offset)
    if ml_code >= 15:
        _write_length(out, ml_code - 15)


# -- kernel builder filler ---------------------------------------------------------


def filler(rng, patterns: list[bytes], n: int) -> bytes:
    out = bytearray()
    while len(out) < n:
        out += rng.choice(patterns)
    return bytes(out[:n])
