"""Concrete boot stages.

Each stage ports one slice of what used to be a private monolithic method
on :class:`~repro.monitor.vmm.Firecracker` (``_direct_boot``,
``_bzimage_boot``, ``_finish_setup``, ``_enter_guest``, ``_run_guest``) or
:class:`~repro.snapshot.checkpoint.SnapshotManager`.  The simulated
charges — values, order, categories, steps — are exactly the seed
behaviour's; the differential tests in
``tests/test_pipeline_differential.py`` pin that equivalence against
golden values captured before the refactor.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bootstrap.loader import BootstrapLoader
from repro.core.context import RandoContext
from repro.core.inmonitor import InMonitorRandomizer, RandomizeMode
from repro.core.prepared import prepare_image
from repro.core.rerandomize import Rerandomizer
from repro.elf.notes import find_pvh_entry, parse_notes
from repro.errors import MonitorError
from repro.kernel import layout as kl
from repro.kernel.manifest import FUNCTION_PROLOGUE
from repro.kernel.verify import verify_guest_kernel
from repro.pipeline.stage import (
    PRINCIPAL_GUEST,
    PRINCIPAL_KERNEL,
    PRINCIPAL_MONITOR,
    Stage,
    StageContext,
    StageResult,
)
from repro.simtime.trace import BootCategory, BootStep
from repro.vm.bootparams import BP_FLAG_IN_MONITOR_KASLR, BootParams
from repro.vm.cpu import VcpuState
from repro.vm.memory import GuestMemory
from repro.vm.pagetable import PageTableWalker
from repro.vm.portio import (
    MILESTONE_INIT_RUN,
    MILESTONE_KERNEL_ENTRY,
    TRACE_PORT,
    PortIoBus,
)

# ``repro.monitor`` imports ``repro.pipeline`` (the monitors boot through
# pipelines), so everything from the monitor package is imported lazily
# inside the stages that need it to keep module initialization acyclic.


# -- monitor bring-up ----------------------------------------------------------


class MonitorStartupStage(Stage):
    """Monitor process + KVM init, then the guest's memory arena."""

    name = "monitor_startup"
    category = "monitor_setup"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        cfg = ctx.cfg
        if ctx.startup_override_ns is not None:
            # profile override: same jitter draw, routed through the
            # chokepoint so the profiler still sees a vmm_startup kind
            ns = ctx.costs.charge(
                "vmm_startup", ctx.startup_override_ns * ctx.costs.jitter.factor()
            )
        else:
            ns = ctx.costs.vmm_startup()
        ctx.clock.charge(
            ns,
            category=BootCategory.IN_MONITOR,
            step=BootStep.MONITOR_STARTUP,
            label=f"{ctx.vmm_name} startup",
        )
        ctx.memory = GuestMemory(cfg.mem_bytes)
        return self.result(detail=f"{ctx.vmm_name}, {cfg.mem_mib} MiB guest")


# -- direct (vmlinux) boot -----------------------------------------------------


class KernelImageReadStage(Stage):
    """Read the vmlinux (and relocs sidecar) through the page-cache model."""

    name = "image_read"
    category = "image_read"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        cfg = ctx.cfg
        data = ctx.storage.read(cfg.kernel_file_name(), ctx.clock, ctx.costs)
        if cfg.randomize is not RandomizeMode.NONE:
            ctx.storage.read(cfg.relocs_file_name(), ctx.clock, ctx.costs)
            ctx.relocs = cfg.kernel.reloc_table
        if data != cfg.kernel.vmlinux:
            raise MonitorError("host storage returned a different kernel image")
        return self.result(detail=cfg.kernel_file_name())


class PrepareImageStage(Stage):
    """The seed-independent parse phase, executed cold."""

    name = "prepare_image"
    category = "prepare"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        cfg = ctx.cfg
        prepared = prepare_image(cfg.kernel.elf, cfg.randomize)
        ctx.prepared = prepared
        ctx.prepared_from_cache = False
        ctx.clock.charge(
            ctx.costs.elf_parse_ns(prepared.n_sections, prepared.n_symbols),
            category=BootCategory.IN_MONITOR,
            step=BootStep.MONITOR_ELF_PARSE,
            label=f"parse ELF ({prepared.n_sections} sections)",
        )
        return self.result(
            detail=f"{prepared.n_sections} sections, {prepared.n_symbols} symbols"
        )


class ArtifactCacheStage(Stage):
    """Caching wrapper around a prepare stage.

    When the monitor holds a :class:`BootArtifactCache`, a hit replaces the
    inner stage's full parse with a constant probe; a miss runs the inner
    stage and inserts its product.  A ``cache-drop`` fault on this boot
    forces the miss.  Without a cache the wrapper is transparent.  The
    emitted span carries the hit/miss attribution.
    """

    name = "prepare_image"
    category = "prepare"
    principal = PRINCIPAL_MONITOR

    def __init__(self, inner: PrepareImageStage | None = None) -> None:
        self.inner = inner if inner is not None else PrepareImageStage()

    def run(self, ctx: StageContext) -> StageResult:
        from repro.monitor.artifact_cache import cache_key_for

        cache = ctx.artifact_cache
        if cache is None:
            return self.inner.run(ctx)
        cfg = ctx.cfg
        key = cache_key_for(cfg)
        digest = key.image_digest
        prepared = cache.lookup(
            key, scope=ctx.cache_scope, force_miss=ctx.cache_miss_forced
        )
        if prepared is not None:
            ctx.prepared = prepared
            ctx.prepared_from_cache = True
            ctx.clock.charge(
                ctx.costs.artifact_cache_lookup(),
                category=BootCategory.IN_MONITOR,
                step=BootStep.MONITOR_ELF_PARSE,
                label=f"layout cache hit ({digest[:12]})",
            )
            return self.result(
                detail=f"cache hit ({digest[:12]})", cache_hit=True
            )
        inner_result = self.inner.run(ctx)
        cache.note_parse(scope=ctx.cache_scope)
        cache.insert(key, ctx.prepared, scope=ctx.cache_scope)
        return replace(inner_result, cache_hit=False)


class RandomizeLoadStage(Stage):
    """Shuffle plan, segment load, offset draw, relocations, table fixups."""

    name = "randomize_load"
    category = "randomize"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        cfg = ctx.cfg
        randomizer = InMonitorRandomizer(
            policy=cfg.policy,
            lazy_kallsyms=cfg.lazy_kallsyms,
            update_orc=cfg.update_orc,
        )
        rando = RandoContext.monitor(ctx.clock, ctx.costs, ctx.rng)
        ctx.layout, ctx.loaded = randomizer.run_prepared(
            ctx.prepared,
            ctx.relocs,
            ctx.memory,
            rando,
            guest_ram_bytes=cfg.mem_bytes,
            scale=cfg.kernel.scale,
            from_cache=ctx.prepared_from_cache,
            charge_parse=False,
        )
        return self.result(
            detail=f"mode {cfg.randomize}",
            cache_hit=ctx.prepared_from_cache or None,
        )


# -- bzImage (bootstrap loader) boot -------------------------------------------


class BzImageReadStage(Stage):
    """Read the whole bzImage container and place it in guest memory."""

    name = "image_read"
    category = "image_read"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        cfg = ctx.cfg
        assert cfg.bzimage is not None  # validated by VmConfig
        data = ctx.storage.read(cfg.kernel_file_name(), ctx.clock, ctx.costs)
        if data != cfg.bzimage.data:
            raise MonitorError("host storage returned a different bzImage")
        end = kl.BZIMAGE_LOAD_ADDR + len(data)
        if end > kl.PHYS_LOAD_ADDR:
            raise MonitorError(
                f"bzImage of {len(data)} bytes overlaps the kernel load "
                f"address; increase the build scale"
            )
        ctx.memory.write(kl.BZIMAGE_LOAD_ADDR, data)
        return self.result(detail=cfg.kernel_file_name())


class LoaderBringUpStage(Stage):
    """In-guest loader bring-up: stack, GDT/IDT, early tables, boot heap."""

    name = "loader_bringup"
    category = "bootstrap"
    principal = PRINCIPAL_GUEST

    def run(self, ctx: StageContext) -> StageResult:
        cfg = ctx.cfg
        ctx.loader = BootstrapLoader(cfg.loader_options)
        ctx.loader_ctx = RandoContext.loader(ctx.clock, ctx.costs, ctx.rng)
        ctx.loader.bring_up(cfg.bzimage.header, ctx.loader_ctx, ctx.bus)
        return self.result(
            detail=f"{cfg.bzimage.header.heap_size} byte boot heap"
        )


class LoaderDecompressStage(Stage):
    """Copy the payload aside and decompress it to the run location."""

    name = "decompress"
    category = "decompression"
    principal = PRINCIPAL_GUEST

    def run(self, ctx: StageContext) -> StageResult:
        cfg = ctx.cfg
        ctx.payload_blob = ctx.loader.decompress(
            cfg.bzimage, ctx.loader_ctx, ctx.bus
        )
        header = cfg.bzimage.header
        detail = (
            "optimized layout (no copy, no decompress)"
            if header.optimized
            else f"{header.codec}, {len(ctx.payload_blob)} bytes out"
        )
        return self.result(detail=detail)


class LoaderRandomizeStage(Stage):
    """The loader's self-randomization: same pipeline, guest principal."""

    name = "self_randomize"
    category = "randomize"
    principal = PRINCIPAL_GUEST

    def run(self, ctx: StageContext) -> StageResult:
        cfg = ctx.cfg
        elf, table = ctx.loader.parse_payload(cfg.bzimage, ctx.payload_blob)
        ctx.payload_elf, ctx.payload_relocs = elf, table
        ctx.layout, ctx.loaded = ctx.loader.randomize(
            elf,
            table,
            ctx.memory,
            ctx.loader_ctx,
            cfg.randomize,
            guest_ram_bytes=cfg.mem_bytes,
            scale=cfg.kernel.scale,
        )
        return self.result(detail=f"mode {cfg.randomize} (in-place)")


class LoaderJumpStage(Stage):
    """Hand control from the loader to ``startup_64``."""

    name = "loader_jump"
    category = "bootstrap"
    principal = PRINCIPAL_GUEST

    def run(self, ctx: StageContext) -> StageResult:
        ctx.loader.jump(ctx.loader_ctx)
        return self.result()


# -- shared tail: VM setup, guest entry, guest boot ----------------------------


class BootParamsStage(Stage):
    """boot_params + cmdline (+ initrd) written into guest memory."""

    name = "boot_params"
    category = "vm_setup"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        from repro.monitor.config import BootFormat

        cfg = ctx.cfg
        layout = ctx.layout
        params = BootParams(cmdline_ptr=kl.CMDLINE_ADDR)
        params.add_e820(0, cfg.mem_bytes)
        if cfg.initrd:
            # Linux convention: the initrd sits near the top of low RAM.
            initrd_addr = (cfg.mem_bytes - len(cfg.initrd)) & ~0xFFF
            end = layout.phys_load + ctx.loaded.mem_bytes
            if initrd_addr <= end:
                raise MonitorError(
                    f"initrd of {len(cfg.initrd)} bytes does not fit above "
                    f"the kernel in {cfg.mem_mib} MiB of RAM"
                )
            ctx.memory.write(initrd_addr, cfg.initrd)
            params.initrd_ptr = initrd_addr
            params.initrd_size = len(cfg.initrd)
            ctx.clock.charge(
                ctx.costs.memcpy_ns(len(cfg.initrd)),
                category=BootCategory.IN_MONITOR,
                step=BootStep.MONITOR_IMAGE_READ,
                label=f"load initrd ({len(cfg.initrd)} bytes)",
            )
        if layout.randomized and cfg.boot_format is BootFormat.VMLINUX:
            params.flags |= BP_FLAG_IN_MONITOR_KASLR
            params.kaslr_virt_offset = layout.voffset
        ctx.memory.write(
            kl.CMDLINE_ADDR, cfg.effective_cmdline.encode() + b"\x00"
        )
        ctx.memory.write(kl.BOOT_PARAMS_ADDR, params.pack())
        ctx.clock.charge(
            ctx.costs.vmm_boot_params(),
            category=BootCategory.IN_MONITOR,
            step=BootStep.MONITOR_BOOT_PARAMS,
            label="boot_params + cmdline",
        )
        return self.result()


class PageTableStage(Stage):
    """Early page tables covering the (randomized) kernel address space."""

    name = "page_tables"
    category = "vm_setup"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        from repro.monitor.addrspace import build_kernel_address_space

        kernel_mem_bytes = ctx.loaded.mem_bytes
        builder = build_kernel_address_space(
            ctx.memory, ctx.layout, kernel_mem_bytes
        )
        ctx.clock.charge(
            ctx.costs.vmm_pagetable_ns(kernel_mem_bytes),
            category=BootCategory.IN_MONITOR,
            step=BootStep.MONITOR_PAGETABLE,
            label="early page tables",
        )
        ctx.walker = PageTableWalker(ctx.memory, builder.pml4)
        ctx.pt_tables_bytes = builder.tables_bytes
        return self.result(detail=f"{builder.tables_bytes} table bytes")


class GuestEntryStage(Stage):
    """vCPU setup per the boot protocol, KVM_RUN, entry-mapping proof."""

    name = "guest_entry"
    category = "guest_entry"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        from repro.monitor.config import BootProtocol

        cfg = ctx.cfg
        layout = ctx.layout
        walker = ctx.walker
        vcpu = VcpuState()
        if cfg.boot_protocol is BootProtocol.PVH:
            notes = parse_notes(cfg.kernel.elf.section(".notes").data)
            entry_paddr = find_pvh_entry(notes)
            if entry_paddr is None:
                raise MonitorError(
                    "PVH boot requested but kernel has no PVH note"
                )
            vcpu.setup_protected_mode()
            vcpu.rbx = kl.BOOT_PARAMS_ADDR
            vcpu.rip = entry_paddr + (layout.phys_load - kl.PHYS_LOAD_ADDR)
        else:
            vcpu.setup_long_mode(cr3=walker.cr3)
            vcpu.rsi = kl.BOOT_PARAMS_ADDR
            vcpu.rip = layout.entry_vaddr
            problems = vcpu.validate_linux64_entry()
            if problems:
                raise MonitorError(
                    "64-bit boot protocol contract violated: "
                    + "; ".join(problems)
                )
        if ctx.guest_entry_override_ns is not None:
            ns = ctx.costs.charge(
                "vmm_guest_entry",
                ctx.guest_entry_override_ns * ctx.costs.jitter.factor(),
            )
        else:
            ns = ctx.costs.vmm_guest_entry()
        ctx.clock.charge(
            ns,
            category=BootCategory.IN_MONITOR,
            step=BootStep.MONITOR_GUEST_ENTRY,
            label="KVM_RUN",
        )
        # The guest fetches its first instruction: prove the entry mapping.
        if cfg.boot_protocol is BootProtocol.PVH:
            first = walker.memory.read(vcpu.rip, len(FUNCTION_PROLOGUE))
        else:
            first = walker.read_virt(vcpu.rip, len(FUNCTION_PROLOGUE))
        if first != FUNCTION_PROLOGUE:
            raise MonitorError(
                f"guest entry at {vcpu.rip:#x} does not hold startup code"
            )
        ctx.bus.write(TRACE_PORT, MILESTONE_KERNEL_ENTRY)
        return self.result(detail=str(cfg.boot_protocol))


class GuestBootStage(Stage):
    """The guest kernel's own boot, then the verification oracle."""

    name = "linux_boot"
    category = "linux_boot"
    principal = PRINCIPAL_KERNEL

    def run(self, ctx: StageContext) -> StageResult:
        cfg = ctx.cfg
        # each cost is computed immediately before its own clock charge so
        # the profiler's pending/commit pairing stays one-to-one
        ctx.clock.charge(
            ctx.costs.kernel_mem_init_ns(cfg.mem_mib),
            category=BootCategory.LINUX_BOOT,
            step=BootStep.KERNEL_MEM_INIT,
            label=f"memblock/struct-page init for {cfg.mem_mib} MiB",
        )
        ctx.clock.charge(
            ctx.costs.kernel_init_ns(cfg.kernel.config.linux_boot_base_ms),
            category=BootCategory.LINUX_BOOT,
            step=BootStep.KERNEL_INIT,
            label="kernel subsystem init",
        )
        ctx.verification = verify_guest_kernel(
            ctx.memory, ctx.walker, ctx.layout, cfg.kernel.manifest
        )
        ctx.clock.charge(
            0,
            category=BootCategory.LINUX_BOOT,
            step=BootStep.KERNEL_RUN_INIT,
            label="exec /sbin/init",
        )
        ctx.bus.write(TRACE_PORT, MILESTONE_INIT_RUN)
        return self.result(
            detail=f"verified {ctx.verification.functions_checked} functions"
        )


# -- snapshot restore ----------------------------------------------------------


class SnapshotRestoreStage(Stage):
    """CoW-restore a frozen VM image into a fresh :class:`MicroVm`."""

    name = "snapshot_restore"
    category = "restore"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        from repro.monitor.vm_handle import MicroVm

        snapshot = ctx.snapshot
        ctx.clock.charge(
            ctx.costs.snapshot_restore_ns(snapshot.resident_bytes),
            category=BootCategory.IN_MONITOR,
            step=BootStep.MONITOR_STARTUP,
            label="snapshot restore (CoW)",
        )
        memory = GuestMemory(snapshot.mem_size, base=dict(snapshot.frozen))
        ctx.memory = memory
        ctx.vm = MicroVm(
            kernel=snapshot.kernel,
            memory=memory,
            walker=PageTableWalker(memory, snapshot.cr3),
            layout=snapshot.layout.clone(),
            clock=ctx.clock,
            costs=ctx.costs,
            bus=PortIoBus(ctx.clock),
            pt_tables_bytes=snapshot.pt_tables_bytes,
        )
        return self.result(
            detail=f"{snapshot.resident_bytes >> 20} MiB resident",
            cache_hit=True,  # a restore is by definition served from state
        )


class RebaseStage(Stage):
    """Move a restored clone to a fresh KASLR offset (Section 7)."""

    name = "rebase"
    category = "rebase"
    principal = PRINCIPAL_MONITOR

    def run(self, ctx: StageContext) -> StageResult:
        from repro.monitor.addrspace import build_kernel_address_space

        vm = ctx.vm
        relocs = vm.kernel.reloc_table
        if relocs is None:
            raise MonitorError(
                f"{vm.kernel.name} carries no relocation info; "
                "cannot rebase a restored clone"
            )
        rando = RandoContext.monitor(vm.clock, ctx.costs, ctx.rng)
        Rerandomizer(ctx.policy).rebase(vm.memory, vm.layout, relocs, rando)
        builder = build_kernel_address_space(
            vm.memory, vm.layout, vm.layout.mem_bytes
        )
        vm.walker = PageTableWalker(vm.memory, builder.pml4)
        vm.pt_tables_bytes = builder.tables_bytes
        params = BootParams.unpack(vm.memory.read(kl.BOOT_PARAMS_ADDR, 4096))
        params.kaslr_virt_offset = vm.layout.voffset
        vm.memory.write(kl.BOOT_PARAMS_ADDR, params.pack())
        return self.result(detail=f"new voffset {vm.layout.voffset:#x}")
