"""The paper's figures, one runner each (Appendix A: E1–E5).

The paper's artifact runs one script per experiment, so each figure has
one number.  Here each of Table 1 and Figures 3, 4, 6, 9 and 11 has one
runner: it takes an :class:`Env` (boots per series, build scale,
jitter), measures the figure and returns a :class:`Figure` holding its
rows, rendered table and gated series.  The benches in ``benchmarks/``
record those and assert the paper's claims on them;
``python -m repro experiment e1..e5`` prints the same tables (E1 is
Figure 3, E2 Figure 4, E3 Figure 6, E4 Figure 9, E5 Figure 11), and
``repro sizes`` / ``repro lebench`` print Table 1 and Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis import BootSeries, render_table, run_boots
from repro.analysis.stats import SEED0
from repro.artifacts import (
    BENCH_SCALE,
    bzimage_cfg,
    direct_cfg,
    get_bzimage,
    get_kernel,
)
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import AWS, LUPINE, UBUNTU, KernelConfig, KernelVariant
from repro.lebench import run_lebench
from repro.monitor import Firecracker, VmConfig
from repro.simtime import BootCategory, CostModel, JitterModel

KERNELS = [LUPINE, AWS, UBUNTU]
#: the Linux compression schemes of the Figure 3 bakeoff
CODECS = ["gzip", "bzip2", "lzma", "xz", "lzo", "lz4"]
MIB = 1024 * 1024


@dataclass(frozen=True)
class Env:
    """The settings every series of one run shares."""

    #: measured boots per series (the paper: 100)
    boots: int = 20
    #: kernel build scale divisor (DESIGN.md §7)
    scale: int = BENCH_SCALE
    #: run-to-run noise sigma behind the min/max bars; 0 makes every
    #: series exactly reproducible
    jitter: float = 0.02

    def vmm(self, monitor: type[Firecracker] = Firecracker) -> Firecracker:
        """A fresh monitor charging this environment's costs."""
        costs = CostModel(scale=self.scale, jitter=JitterModel(sigma=self.jitter))
        return monitor(HostStorage(), costs)

    def measure(
        self, vmm: Firecracker, cfg: VmConfig, warm: bool = True
    ) -> BootSeries:
        """``boots`` boots of ``cfg`` under the paper's protocol."""
        return run_boots(vmm, cfg, n=self.boots, warm=warm)


@dataclass
class Figure:
    """One runner's output.  ``name`` is the bench's record name and the
    key of its series in ``benchmarks/baselines.json``."""

    name: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    series: dict[str, float]
    units: str = "ms"

    @property
    def table(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


def _method_cfg(
    config: KernelConfig, mode: RandomizeMode, method: str, scale: int
) -> VmConfig:
    """The boot a Figure 6/9 method names."""
    if method == "uncompressed":
        return direct_cfg(config, mode, scale=scale)
    if method in ("none-optimized", "compression-none"):
        return bzimage_cfg(config, mode, "none", scale=scale, optimized=True)
    return bzimage_cfg(config, mode, method, scale=scale)


def table1_kernel_sizes(env: Env = Env()) -> Figure:
    """Table 1: vmlinux, bzImage (none, LZ4) and relocs sizes of all nine
    kernels, projected back to paper scale."""

    def mb(actual_bytes: int) -> str:
        return f"{actual_bytes * env.scale / MIB:.1f}M"

    def kb(actual_bytes: int) -> str:
        if actual_bytes == 0:
            return "N/A"
        kib = actual_bytes * env.scale / 1024
        return f"{kib / 1024:.1f}M" if kib >= 1024 else f"{kib:.0f}K"

    rows: list[list[object]] = []
    for config in KERNELS:
        for variant in KernelVariant:
            kernel = get_kernel(config, variant, scale=env.scale)
            bz_none = get_bzimage(config, variant, "none", scale=env.scale)
            bz_lz4 = get_bzimage(config, variant, "lz4", scale=env.scale)
            rows.append([
                kernel.name, mb(kernel.vmlinux_size), mb(bz_none.size),
                mb(bz_lz4.size), kb(kernel.relocs_size),
            ])
    return Figure(
        "table1 kernel sizes",
        f"Table 1: kernel image sizes (paper scale, build scale 1/{env.scale})",
        ["kernel", "vmlinux", "bzImage(none)", "bzImage(lz4)", "relocs"],
        rows,
        {f"{row[0]}/vmlinux_mb": float(row[1].rstrip("M")) for row in rows},
        units="MB",
    )


def fig3_compression_bakeoff(env: Env = Env()) -> Figure:
    """E1, Figure 3: cached bzImage boot time under each codec."""
    vmm = env.vmm()
    rows: list[list[object]] = []
    series = {}
    for config in KERNELS:
        for codec in CODECS:
            boots = env.measure(
                vmm,
                bzimage_cfg(config, RandomizeMode.NONE, codec, scale=env.scale),
            )
            total = boots.total
            rows.append([
                config.name, codec, total.mean, total.min, total.max,
                boots.first.decompression_ms,
            ])
            series[f"{config.name}/{codec}_ms"] = total.mean
    return Figure(
        "fig3 compression bakeoff",
        f"Figure 3: compression bakeoff ({env.boots} cached boots/series)",
        ["kernel", "codec", "boot ms", "min", "max", "decompress ms"],
        rows,
        series,
    )


def fig4_cache_effects(env: Env = Env()) -> Figure:
    """E2, Figure 4: LZ4 bzImage vs direct vmlinux, cold and cached."""
    vmm = env.vmm()
    rows: list[list[object]] = []
    series = {}
    for config in KERNELS:
        for cached in (False, True):
            direct = env.measure(
                vmm, direct_cfg(config, RandomizeMode.NONE, scale=env.scale),
                warm=cached,
            )
            bz = env.measure(
                vmm,
                bzimage_cfg(config, RandomizeMode.NONE, "lz4", scale=env.scale),
                warm=cached,
            )
            direct_ms, bz_ms = direct.total.mean, bz.total.mean
            state = "cached" if cached else "cold"
            rows.append([
                config.name, state, direct_ms, bz_ms,
                direct.first.category_ms(BootCategory.IN_MONITOR),
                "direct" if direct_ms < bz_ms else "bzImage",
                f"{abs(direct_ms - bz_ms) / max(direct_ms, bz_ms) * 100:.0f}%",
            ])
            series[f"{config.name}/{state}/direct_ms"] = direct_ms
            series[f"{config.name}/{state}/bzimage_lz4_ms"] = bz_ms
    return Figure(
        "fig4 cache effects",
        f"Figure 4: cache effects ({env.boots} boots/series)",
        ["kernel", "cache", "direct ms", "lz4 bzImage ms", "direct in-mon",
         "winner", "gap"],
        rows,
        series,
    )


def fig6_bootstrap_methods(env: Env = Env()) -> Figure:
    """E3, Figure 6: four ways to boot a nokaslr kernel, cached."""
    vmm = env.vmm()
    rows: list[list[object]] = []
    series = {}
    for config in KERNELS:
        for method in ("none", "lz4", "none-optimized", "uncompressed"):
            total = env.measure(
                vmm, _method_cfg(config, RandomizeMode.NONE, method, env.scale)
            ).total
            rows.append([config.name, method, total.mean, total.min, total.max])
            series[f"{config.name}/{method}_ms"] = total.mean
    return Figure(
        "fig6 bootstrap methods",
        f"Figure 6: bootstrap methods, nokaslr cached ({env.boots} boots)",
        ["kernel", "method", "boot ms", "min", "max"],
        rows,
        series,
    )


def fig9_evaluation(env: Env = Env()) -> Figure:
    """E4, Figure 9: in-monitor vs self-randomized (FG)KASLR, with the
    paper's four-way breakdown of every series."""
    vmm = env.vmm()
    rows: list[list[object]] = []
    series = {}
    for config in KERNELS:
        for mode in RandomizeMode:
            for method in ("uncompressed", "compression-none", "lz4"):
                boots = env.measure(
                    vmm, _method_cfg(config, mode, method, env.scale)
                )
                total = boots.total
                rows.append([
                    config.name, str(mode), method, total.mean, total.min,
                    total.max,
                    *(boots.category(category).mean for category in (
                        BootCategory.IN_MONITOR, BootCategory.BOOTSTRAP_SETUP,
                        BootCategory.DECOMPRESSION, BootCategory.LINUX_BOOT,
                    )),
                ])
                series[f"{config.name}/{mode}/{method}_ms"] = total.mean
    return Figure(
        "fig9 evaluation",
        f"Figure 9: boot time evaluation (ms, {env.boots} boots/series)",
        ["kernel", "rando", "method", "total", "min", "max",
         "in-monitor", "bootstrap", "decompress", "linux"],
        rows,
        series,
    )


def fig11_lebench(
    env: Env = Env(), config: KernelConfig | str = AWS, seed: int = SEED0
) -> Figure:
    """E5, Figure 11: LEBench on one booted guest per mode (first boot
    seed ``seed``), normalized to the nokaslr guest.  Only the layout
    matters, so one boot per mode is enough."""
    vmm = env.vmm()
    runs = {}
    for mode in RandomizeMode:
        cfg = direct_cfg(config, mode, scale=env.scale)
        layout = run_boots(vmm, cfg, n=1, seed0=seed).first.layout
        runs[mode] = run_lebench(cfg.kernel, layout)
    base = runs[RandomizeMode.NONE]
    kaslr = runs[RandomizeMode.KASLR].normalized_to(base)
    fg = runs[RandomizeMode.FGKASLR].normalized_to(base)
    rows: list[list[object]] = [
        [name, f"{kaslr[name]:.3f}", f"{fg[name]:.3f}"] for name in kaslr
    ]
    kaslr_mean = runs[RandomizeMode.KASLR].mean_normalized(base)
    fg_mean = runs[RandomizeMode.FGKASLR].mean_normalized(base)
    rows.append(["== mean ==", f"{kaslr_mean:.3f}", f"{fg_mean:.3f}"])
    return Figure(
        "fig11 lebench",
        f"Figure 11: LEBench normalized to {base.kernel_name} "
        f"(scale 1/{env.scale})",
        ["test", "kaslr / nokaslr", "fgkaslr / nokaslr"],
        rows,
        {"kaslr_mean_norm": kaslr_mean, "fgkaslr_mean_norm": fg_mean},
        units="ratio",
    )


EXPERIMENTS: dict[str, Callable[[Env], Figure]] = {
    "e1": fig3_compression_bakeoff,
    "e2": fig4_cache_effects,
    "e3": fig6_bootstrap_methods,
    "e4": fig9_evaluation,
    "e5": fig11_lebench,
}


def run_experiment(experiment_id: str, env: Env = Env()) -> Figure:
    """Run one artifact experiment by id (``e1`` .. ``e5``)."""
    try:
        runner = EXPERIMENTS[experiment_id.lower()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from "
            f"{sorted(EXPERIMENTS)}"
        ) from None
    return runner(env)
