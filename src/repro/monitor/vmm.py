"""The microVM monitors: Firecracker (and a QEMU profile).

``Firecracker.boot`` runs one complete simulated boot through the staged
boot pipeline (:mod:`repro.pipeline`):

* monitor startup (process + KVM init),
* kernel file read through the host page-cache model,
* direct boot — with optional in-monitor (FG)KASLR, the parse phase
  served by the :class:`BootArtifactCache` when present —
  or bzImage boot via the in-guest bootstrap loader stages,
* boot_params/cmdline/page-table/vCPU setup per the chosen boot protocol,
* guest entry, then the guest's own boot (memory init + subsystem init),
* the post-boot verification oracle (a failed relocation here is the
  simulation's kernel panic).

Every stage charges a deterministic simulated clock and emits a begin/end
span; the returned :class:`~repro.monitor.report.BootReport` carries both
the paper's four-way category breakdown and the per-stage spans.

Monitor variation is stage *substitution*, not subclass override: a
:class:`MonitorProfile` supplies the constants (and constraints) the
pipeline builder and stages consume, so :class:`Qemu` and the unikernel
monitor are profiles over the same pipeline machinery.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace

from typing import TYPE_CHECKING

from repro.core import siteplan
from repro.core.fgkaslr import FgkaslrEngine
from repro.core.inmonitor import RandomizeMode
from repro.core.layout_result import LayoutResult
from repro.core.relocator import relocation_plan
from repro.errors import BootFailure, InjectedFault, MonitorError, failure_kind
from repro.host.entropy import HostEntropyPool
from repro.host.storage import HostStorage
from repro.kernel.verify import oracle_plan
from repro.monitor.artifact_cache import BootArtifactCache
from repro.monitor.config import BootFormat, VmConfig
from repro.monitor.report import BootReport
from repro.monitor.vm_handle import MicroVm
from repro.pipeline import BootPipeline, StageContext, build_boot_pipeline
from repro.simtime.clock import SimClock
from repro.simtime.costs import CostModel, JitterModel
from repro.simtime.trace import Timeline
from repro.telemetry import NS_PER_MS, Telemetry
from repro.vm.portio import PortIoBus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.kernel.image import KernelImage


def boot_identity(kernel_name: str, seed: int) -> str:
    """The boot id telemetry events carry: ``<kernel>:<seed hex>``.

    Deterministic in (kernel, seed), so seeded fleet runs produce the
    same ids — and therefore the same exported traces — every time.
    """
    return f"{kernel_name}:{seed:016x}"


def record_boot(
    telemetry: Telemetry | None,
    boot_id: str,
    timeline: Timeline,
    *,
    vmm: str | None = None,
    failure: tuple[str, str] | None = None,
) -> None:
    """Derive one boot's telemetry from its finished timeline.

    Stages and fired faults always; then the boot counters for a boot
    that reached init (``vmm``), or the failure counter for an aborted
    one (``failure=(stage, kind)``).  Restores pass neither.  Thread
    boots, the process executor's replay and restores all record here,
    and so all reach the telemetry's cost profile, when it has one.
    Without a telemetry nothing is recorded.
    """
    if telemetry is None:
        return
    if telemetry.profiler is not None:
        telemetry.profiler.add(boot_id, timeline)
    for span in timeline.spans:
        telemetry.stage_span(boot_id, span)
    registry = telemetry.registry
    for stage, kind in timeline.faults:
        registry.counter(
            "repro_fault_injections_total",
            help="Faults fired by the installed fault plan",
            stage=stage,
            kind=kind,
        ).inc()
    if failure is not None:
        stage, kind = failure
        registry.counter(
            "repro_boot_failures_total",
            help="Boots aborted by a stage failure",
            stage=stage,
            kind=kind,
        ).inc()
    elif vmm is not None:
        registry.counter(
            "repro_monitor_boots_total",
            help="Boots completed by a monitor",
            vmm=vmm,
        ).inc()
        registry.histogram(
            "repro_boot_duration_ms",
            help="End-to-end simulated boot duration",
            scale=NS_PER_MS,
        ).observe(timeline.total_ns)


@dataclass(frozen=True)
class MonitorProfile:
    """Monitor-implementation constants (Section 2.2: these vary by VMM)."""

    name: str
    #: overrides CostModel.vmm_startup_ns when set
    startup_ns: float | None = None
    #: overrides CostModel.vmm_guest_entry_ns when set
    guest_entry_ns: float | None = None
    #: monitors without a bootstrap loader can only compose direct boots
    direct_only: bool = False


FIRECRACKER_PROFILE = MonitorProfile(name="firecracker")
#: QEMU brings up a much larger device model before the guest runs
QEMU_PROFILE = MonitorProfile(
    name="qemu", startup_ns=80_000_000.0, guest_entry_ns=250_000.0
)


class Firecracker:
    """A Firecracker-like microVM monitor over the simulated substrate.

    One instance may serve concurrent :meth:`boot_vm` calls (the fleet
    path): every boot works on a per-boot cost-model clone and its own
    clock/memory, and the only shared mutable pieces — host storage's page
    cache, the entropy pool, and the optional boot-artifact cache — are
    safe to share.
    """

    profile: MonitorProfile = FIRECRACKER_PROFILE

    def __init__(
        self,
        storage: HostStorage,
        costs: CostModel | None = None,
        entropy: HostEntropyPool | None = None,
        artifact_cache: BootArtifactCache | None = None,
        telemetry: Telemetry | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.storage = storage
        self.costs = costs if costs is not None else CostModel()
        self.telemetry = telemetry
        self.fault_plan = fault_plan
        if entropy is None:
            registry = telemetry.registry if telemetry is not None else None
            entropy = HostEntropyPool(registry=registry)
        self.entropy = entropy
        self.artifact_cache = artifact_cache

    # -- public API ------------------------------------------------------------

    def register_kernel(self, cfg: VmConfig) -> None:
        """Place the config's kernel files on host storage (uncached)."""
        name = cfg.kernel_file_name()
        if not self.storage.exists(name):
            if cfg.boot_format is BootFormat.BZIMAGE:
                assert cfg.bzimage is not None  # validated by caller
                self.storage.put(name, cfg.bzimage.data)
            else:
                self.storage.put(name, cfg.kernel.vmlinux)
        relocs_needed = (
            cfg.boot_format is BootFormat.VMLINUX
            and cfg.randomize is not RandomizeMode.NONE
        )
        if relocs_needed and not self.storage.exists(cfg.relocs_file_name()):
            if cfg.kernel.relocs is None:
                raise MonitorError(
                    f"{cfg.kernel.name} has no relocation info to register"
                )
            self.storage.put(cfg.relocs_file_name(), cfg.kernel.relocs)

    def warm_caches(self, cfg: VmConfig) -> None:
        """Model the 5 warm-up boots the paper runs before measuring.

        Warms the host page cache, and — when this monitor carries a
        :class:`BootArtifactCache` — primes the parse entry the caching
        stage will probe, so the first measured boot is already a hit.
        Then derives the site plans every boot of this kernel walks, so
        that fleet workers forked after the warm-up inherit them.
        """
        self.register_kernel(cfg)
        self.storage.warm(cfg.kernel_file_name())
        if (
            cfg.boot_format is BootFormat.VMLINUX
            and cfg.randomize is not RandomizeMode.NONE
        ):
            self.storage.warm(cfg.relocs_file_name())
        if (
            self.artifact_cache is not None
            and cfg.boot_format is BootFormat.VMLINUX
        ):
            self.artifact_cache.get_or_parse(cfg)
        _derive_site_plans(cfg)

    def boot(
        self,
        cfg: VmConfig,
        *,
        boot_index: int = 0,
        attempt: int = 0,
        cache_scope=None,
    ) -> BootReport:
        """Run one boot start-to-init; raises on any contract violation.

        ``boot_index``/``attempt`` identify the boot to an installed
        fault plan (fleet index targeting, retry redraws); both default
        to 0 for standalone boots.  ``cache_scope`` is an optional
        :class:`~repro.monitor.artifact_cache.CacheScope` the
        ``prepare_image`` stage attributes its cache activity to.
        """
        report, _vm = self.boot_vm(
            cfg,
            boot_index=boot_index,
            attempt=attempt,
            cache_scope=cache_scope,
        )
        return report

    def build_pipeline(self, cfg: VmConfig) -> BootPipeline:
        """The stage composition this monitor uses for ``cfg``."""
        return build_boot_pipeline(cfg, direct_only=self.profile.direct_only)

    def boot_vm(
        self,
        cfg: VmConfig,
        *,
        boot_index: int = 0,
        attempt: int = 0,
        cache_scope=None,
    ) -> tuple[BootReport, "MicroVm"]:
        """Like :meth:`boot`, but also returns a live guest handle."""
        cfg.validate()
        self.register_kernel(cfg)
        if cfg.drop_caches:
            self.storage.drop_caches()
        cached = self.storage.is_cached(cfg.kernel_file_name())

        seed = cfg.seed if cfg.seed is not None else self.entropy.draw_u64()
        # Distinct per-boot measurement noise, deterministic in the seed.
        # A per-boot clone keeps concurrent boots off one shared jitter RNG.
        costs = self._boot_costs(cfg, seed)

        clock = SimClock()
        ctx = StageContext(
            clock=clock,
            costs=costs,
            rng=random.Random(seed),
            cfg=cfg,
            storage=self.storage,
            entropy=self.entropy,
            artifact_cache=self.artifact_cache,
            cache_scope=cache_scope,
            bus=PortIoBus(clock),
            vmm_name=self.profile.name,
            startup_override_ns=self.profile.startup_ns,
            guest_entry_override_ns=self.profile.guest_entry_ns,
            boot_id=boot_identity(cfg.kernel.name, seed),
            fault_plan=self.fault_plan,
            boot_index=boot_index,
            attempt=attempt,
        )
        try:
            self.build_pipeline(cfg).run(ctx)
        except Exception as exc:
            stage = getattr(exc, "boot_stage", None) or "unknown"
            record_boot(
                self.telemetry,
                ctx.boot_id,
                clock.timeline,
                failure=(stage, failure_kind(exc)),
            )
            if isinstance(exc, InjectedFault):
                raise BootFailure(
                    str(exc),
                    boot_id=ctx.boot_id,
                    stage=exc.boot_stage,
                    kind=exc.fault_kind,
                    attempt=attempt,
                    index=boot_index,
                    seed=seed,
                ) from exc
            raise
        record_boot(
            self.telemetry, ctx.boot_id, clock.timeline, vmm=self.profile.name
        )

        codec = (
            cfg.bzimage.header.codec
            if cfg.boot_format is BootFormat.BZIMAGE and cfg.bzimage
            else None
        )
        report = BootReport(
            vmm_name=self.profile.name,
            kernel_name=cfg.kernel.name,
            boot_format=str(cfg.boot_format),
            mode=cfg.randomize,
            codec=codec,
            total_ms=clock.elapsed_ms(),
            timeline=clock.timeline,
            layout=ctx.layout,
            verification=ctx.verification,
            milestones=ctx.bus.milestones(),
            mem_mib=cfg.mem_mib,
            cached=cached,
            scale=cfg.kernel.scale,
        )
        vm = MicroVm(
            kernel=cfg.kernel,
            memory=ctx.memory,
            walker=ctx.walker,
            layout=ctx.layout,
            clock=clock,
            costs=costs,
            bus=ctx.bus,
            pt_tables_bytes=ctx.pt_tables_bytes,
        )
        return report, vm

    # -- per-boot plumbing -----------------------------------------------------

    def _boot_costs(self, cfg, seed) -> CostModel:
        """A per-boot :class:`CostModel` with its own seeded jitter stream.

        Cloning (rather than reseeding the shared model) is what makes
        concurrent ``boot_vm`` calls deterministic: each boot draws noise
        from a private RNG keyed exactly as the serial path always was.
        """
        jseed = zlib.crc32(f"{self.profile.name}:{cfg.kernel.name}:{seed}".encode())
        return replace(
            self.costs,
            jitter=JitterModel(sigma=self.costs.jitter.sigma, seed=jseed),
            decompress_mib_s=dict(self.costs.decompress_mib_s),
        )


class Qemu(Firecracker):
    """The same machinery under QEMU-like monitor constants (Section 2.2)."""

    profile = QEMU_PROFILE


def _derive_site_plans(cfg: VmConfig) -> None:
    """The oracle's site plan for ``cfg``'s window layout and, under
    FGKASLR, the relocator's with its word map (see
    :mod:`repro.core.siteplan`).

    Under FGKASLR the derivation is remembered per kernel content: a
    repeat warm-up finds both plans under the kernel's content key and
    skips the section inventory and the plan keys (4.5-7 ms of every
    repeat warm-up of aws at scale 16 on a 2-vCPU Xeon).  Keyed by
    content like the plans themselves, so a rebuilt image with other
    bytes derives again.  The memo shares the plans' bounded store; a
    plan evicted while its memo entry stays is derived again by the
    next boot that needs it.  Any other mode has one window and one
    cheap plan lookup.
    """
    kernel = cfg.kernel
    if cfg.randomize is not RandomizeMode.FGKASLR:
        oracle_plan(kernel.manifest, LayoutResult().finalize())
        return
    table = kernel.reloc_table
    key = (
        "fgkaslr-warm-up",
        kernel.elf.digest,
        table.content_key if table is not None else None,
        kernel.manifest.oracle_rows.key,
    )
    siteplan.shared(key, lambda: _fgkaslr_plans(kernel))


def _fgkaslr_plans(kernel: KernelImage) -> tuple:
    """Derive (or find) the kernel's FGKASLR plans; the memo entry holds them."""
    inventory = FgkaslrEngine.inventory(kernel.elf)
    windows = LayoutResult(
        moved=[(vaddr, size, 0) for _, vaddr, size in inventory.ordered]
    ).finalize(inventory.windows)
    plans = []
    if windows.moved and kernel.reloc_table is not None:
        plans.append(relocation_plan(kernel.reloc_table, windows, kernel.elf))
    plans.append(oracle_plan(kernel.manifest, windows))
    return tuple(plans)
