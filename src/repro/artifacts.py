"""Memoized build artifacts shared by tests, examples, and benchmarks.

Kernel builds and (especially) bzImage compression are the expensive parts
of the simulation; every experiment over the same (config, variant, scale,
seed, codec) tuple reuses one artifact, just as the paper reuses one set of
built kernels across all runs.  :func:`direct_cfg` and :func:`bzimage_cfg`
wrap those artifacts in the VM config a randomization mode boots.
"""

from __future__ import annotations

import threading

from repro.bzimage.build import build_bzimage
from repro.bzimage.format import BzImage
from repro.core.inmonitor import RandomizeMode
from repro.kernel.build import build_kernel
from repro.kernel.config import PRESETS, KernelConfig, KernelVariant
from repro.kernel.image import KernelImage
from repro.monitor.config import BootFormat, VmConfig

_KERNELS: dict[tuple[str, KernelVariant, int, int], KernelImage] = {}
_BZIMAGES: dict[tuple[str, KernelVariant, int, int, str, bool], BzImage] = {}
# fleet worker threads may fault in the same artifact concurrently; builds
# are deterministic, so the lock only prevents duplicate work
_LOCK = threading.Lock()

#: default build scale for benchmarks (DESIGN.md §7)
BENCH_SCALE = 16

#: the kernel build each randomization mode boots
VARIANT_FOR_MODE = {
    RandomizeMode.NONE: KernelVariant.NOKASLR,
    RandomizeMode.KASLR: KernelVariant.KASLR,
    RandomizeMode.FGKASLR: KernelVariant.FGKASLR,
}


def get_kernel(
    config: KernelConfig | str,
    variant: KernelVariant,
    scale: int = BENCH_SCALE,
    seed: int = 1,
) -> KernelImage:
    """Build (or fetch) a kernel image."""
    cfg = PRESETS[config] if isinstance(config, str) else config
    key = (cfg.name, variant, scale, seed)
    with _LOCK:
        if key not in _KERNELS:
            _KERNELS[key] = build_kernel(cfg, variant, scale=scale, seed=seed)
        return _KERNELS[key]


def get_bzimage(
    config: KernelConfig | str,
    variant: KernelVariant,
    codec: str,
    scale: int = BENCH_SCALE,
    seed: int = 1,
    optimized: bool = False,
) -> BzImage:
    """Build (or fetch) a bzImage for the given kernel and codec."""
    cfg = PRESETS[config] if isinstance(config, str) else config
    key = (cfg.name, variant, scale, seed, codec, optimized)
    kernel = get_kernel(cfg, variant, scale=scale, seed=seed)
    with _LOCK:
        if key not in _BZIMAGES:
            _BZIMAGES[key] = build_bzimage(kernel, codec, optimized=optimized)
        return _BZIMAGES[key]


def direct_cfg(
    config: KernelConfig | str,
    mode: RandomizeMode,
    scale: int = BENCH_SCALE,
    **vm,
) -> VmConfig:
    """A direct vmlinux boot of ``config``'s ``mode`` build; ``vm`` holds
    any further :class:`VmConfig` fields."""
    kernel = get_kernel(config, VARIANT_FOR_MODE[mode], scale=scale)
    return VmConfig(kernel=kernel, randomize=mode, **vm)


def bzimage_cfg(
    config: KernelConfig | str,
    mode: RandomizeMode,
    codec: str,
    scale: int = BENCH_SCALE,
    optimized: bool = False,
    **vm,
) -> VmConfig:
    """A bzImage boot of ``config``'s ``mode`` build, compressed with
    ``codec`` (``optimized``: the copy-free loader of Section 3.3)."""
    variant = VARIANT_FOR_MODE[mode]
    return VmConfig(
        kernel=get_kernel(config, variant, scale=scale),
        boot_format=BootFormat.BZIMAGE,
        bzimage=get_bzimage(
            config, variant, codec, scale=scale, optimized=optimized
        ),
        randomize=mode,
        **vm,
    )


def clear_cache() -> None:
    """Drop all memoized artifacts (used by tests)."""
    with _LOCK:
        _KERNELS.clear()
        _BZIMAGES.clear()
