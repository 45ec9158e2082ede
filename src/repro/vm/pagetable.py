"""x86-64 4-level page tables, built in guest memory and walked in software.

Direct boot requires the monitor to hand the kernel an address space that
already maps its randomized virtual base.  The builder emits real PML4 /
PDPT / PD structures into :class:`~repro.vm.memory.GuestMemory` (2 MiB
pages for the kernel map, 1 GiB pages for the low identity map, matching
what Firecracker and the Linux bootstrap loader both construct), and the
walker performs the translation the MMU would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PageTableError, TranslationFault
from repro.vm.memory import GuestMemory

PAGE_4K = 0x1000
PAGE_2M = 0x200000
PAGE_1G = 0x40000000

_PTE_PRESENT = 1 << 0
_PTE_WRITE = 1 << 1
_PTE_PS = 1 << 7  # large page (in PDPT -> 1 GiB, in PD -> 2 MiB)
_ADDR_MASK = 0x000F_FFFF_FFFF_F000

_ENTRIES = 512


def _canonical(vaddr: int) -> int:
    """Truncate to 48 bits; the walker handles sign-extended addresses."""
    return vaddr & 0x0000_FFFF_FFFF_FFFF


@dataclass
class PageTableBuilder:
    """Allocates paging structures from a bump allocator in guest memory."""

    memory: GuestMemory
    table_base: int
    _next_free: int = field(init=False)
    pml4: int = field(init=False)

    def __post_init__(self) -> None:
        if self.table_base % PAGE_4K:
            raise PageTableError(f"table base {self.table_base:#x} not page aligned")
        self._next_free = self.table_base
        self.pml4 = self._alloc_table()

    @classmethod
    def resume(
        cls, memory: GuestMemory, table_base: int, tables_bytes: int
    ) -> "PageTableBuilder":
        """Reattach to an existing table set to extend its mappings.

        ``tables_bytes`` is the amount previously allocated (the original
        builder's :attr:`tables_bytes`); new tables are appended after it
        and existing entries are preserved.
        """
        if tables_bytes < PAGE_4K or tables_bytes % PAGE_4K:
            raise PageTableError(f"bad resume size {tables_bytes:#x}")
        builder = cls.__new__(cls)
        builder.memory = memory
        builder.table_base = table_base
        builder._next_free = table_base + tables_bytes
        builder.pml4 = table_base
        return builder

    def _alloc_table(self) -> int:
        addr = self._next_free
        self._next_free += PAGE_4K
        self.memory.fill(addr, PAGE_4K, 0)
        return addr

    @property
    def tables_bytes(self) -> int:
        """Total bytes of paging structures allocated so far."""
        return self._next_free - self.table_base

    # -- entry plumbing ---------------------------------------------------------

    def _entry_addr(self, table: int, index: int) -> int:
        if not 0 <= index < _ENTRIES:
            raise PageTableError(f"page-table index {index} out of range")
        return table + index * 8

    def _get_or_create(self, table: int, index: int) -> int:
        """Return the next-level table for ``table[index]``, allocating it."""
        slot = self._entry_addr(table, index)
        entry = self.memory.read_u64(slot)
        if entry & _PTE_PRESENT:
            if entry & _PTE_PS:
                raise PageTableError(
                    f"entry {index} at table {table:#x} already maps a large page"
                )
            return entry & _ADDR_MASK
        new_table = self._alloc_table()
        self.memory.write_u64(slot, new_table | _PTE_PRESENT | _PTE_WRITE)
        return new_table

    # -- mapping -------------------------------------------------------------------

    def map_2m(self, vaddr: int, paddr: int, nbytes: int, writable: bool = True) -> int:
        """Map ``nbytes`` (rounded up) using 2 MiB pages; returns page count."""
        if vaddr % PAGE_2M or paddr % PAGE_2M:
            raise PageTableError(
                f"2 MiB mapping requires 2 MiB alignment "
                f"(vaddr={vaddr:#x}, paddr={paddr:#x})"
            )
        pages = max(1, -(-nbytes // PAGE_2M))
        flags = _PTE_PRESENT | _PTE_PS | (_PTE_WRITE if writable else 0)
        for i in range(pages):
            v = _canonical(vaddr + i * PAGE_2M)
            p = paddr + i * PAGE_2M
            pml4_i = (v >> 39) & 0x1FF
            pdpt_i = (v >> 30) & 0x1FF
            pd_i = (v >> 21) & 0x1FF
            pdpt = self._get_or_create(self.pml4, pml4_i)
            pd = self._get_or_create(pdpt, pdpt_i)
            self.memory.write_u64(self._entry_addr(pd, pd_i), p | flags)
        return pages

    def map_identity_1g(self, ngigs: int, writable: bool = True) -> None:
        """Identity-map the first ``ngigs`` GiB with 1 GiB pages.

        This is the low map both Firecracker and the bootstrap loader build
        so that physical addresses (boot_params, cmdline, the loaded image)
        stay reachable during early boot.
        """
        flags = _PTE_PRESENT | _PTE_PS | (_PTE_WRITE if writable else 0)
        for g in range(ngigs):
            v = g * PAGE_1G
            pml4_i = (v >> 39) & 0x1FF
            pdpt_i = (v >> 30) & 0x1FF
            pdpt = self._get_or_create(self.pml4, pml4_i)
            self.memory.write_u64(self._entry_addr(pdpt, pdpt_i), v | flags)


class PageTableWalker:
    """Software MMU: translates virtual addresses through guest tables."""

    def __init__(self, memory: GuestMemory, cr3: int) -> None:
        if cr3 % PAGE_4K:
            raise PageTableError(f"CR3 {cr3:#x} not page aligned")
        self.memory = memory
        self.cr3 = cr3

    def leaf(self, vaddr: int) -> tuple[int, int]:
        """``(paddr, size)`` of the mapped page holding ``vaddr``.

        The page is a 1 GiB, 2 MiB or 4 KiB leaf; ``paddr`` is its
        guest-physical base, so the page maps the ``size`` bytes from
        ``vaddr - vaddr % size`` to ``paddr``.  Raises
        :class:`TranslationFault` at the first non-present entry.
        """
        v = _canonical(vaddr)
        pml4_entry = self.memory.read_u64(self.cr3 + ((v >> 39) & 0x1FF) * 8)
        if not pml4_entry & _PTE_PRESENT:
            raise TranslationFault(f"PML4E not present for {vaddr:#x}")
        pdpt = pml4_entry & _ADDR_MASK
        pdpt_entry = self.memory.read_u64(pdpt + ((v >> 30) & 0x1FF) * 8)
        if not pdpt_entry & _PTE_PRESENT:
            raise TranslationFault(f"PDPTE not present for {vaddr:#x}")
        if pdpt_entry & _PTE_PS:
            return pdpt_entry & _ADDR_MASK & ~(PAGE_1G - 1), PAGE_1G
        pd = pdpt_entry & _ADDR_MASK
        pd_entry = self.memory.read_u64(pd + ((v >> 21) & 0x1FF) * 8)
        if not pd_entry & _PTE_PRESENT:
            raise TranslationFault(f"PDE not present for {vaddr:#x}")
        if pd_entry & _PTE_PS:
            return pd_entry & _ADDR_MASK & ~(PAGE_2M - 1), PAGE_2M
        pt = pd_entry & _ADDR_MASK
        pt_entry = self.memory.read_u64(pt + ((v >> 12) & 0x1FF) * 8)
        if not pt_entry & _PTE_PRESENT:
            raise TranslationFault(f"PTE not present for {vaddr:#x}")
        return pt_entry & _ADDR_MASK, PAGE_4K

    def translate(self, vaddr: int) -> int:
        paddr, size = self.leaf(vaddr)
        return paddr | (vaddr & (size - 1))

    def read_virt(self, vaddr: int, length: int) -> bytes:
        """Read guest-virtual memory, page-crossing aware."""
        out = bytearray()
        while length > 0:
            paddr = self.translate(vaddr)
            run = min(length, PAGE_2M - (vaddr % PAGE_2M))
            out += self.memory.read(paddr, run)
            vaddr += run
            length -= run
        return bytes(out)

    def write_virt(self, vaddr: int, data: bytes) -> None:
        """Write guest-virtual memory, page-crossing aware."""
        pos = 0
        while pos < len(data):
            paddr = self.translate(vaddr + pos)
            run = min(len(data) - pos, PAGE_2M - ((vaddr + pos) % PAGE_2M))
            self.memory.write(paddr, data[pos : pos + run])
            pos += run
