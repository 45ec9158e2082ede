"""Bootstrap-loader boots: steps, costs, self-randomization.

Each test boots a bzImage through ``Firecracker.boot_vm``, the path the
figures run; its guest-boot stage runs the verification oracle.
"""

import pytest

from repro.bootstrap import LoaderOptions
from repro.bzimage import build_bzimage
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.monitor import BootFormat, Firecracker, VmConfig
from repro.simtime import BootCategory, BootStep, CostModel
from repro.vm.portio import (
    MILESTONE_DECOMPRESS_END,
    MILESTONE_DECOMPRESS_START,
    MILESTONE_LOADER_ENTRY,
)


def _boot(img, bz, mode, options=None, seed=13):
    cfg = VmConfig(
        kernel=img,
        boot_format=BootFormat.BZIMAGE,
        bzimage=bz,
        randomize=mode,
        seed=seed,
        loader_options=options or LoaderOptions(),
    )
    return Firecracker(HostStorage(), CostModel(scale=img.scale)).boot_vm(cfg)


def _run(img, codec, mode, optimized=False, options=None, seed=13):
    bz = build_bzimage(img, codec, optimized=optimized)
    report, _vm = _boot(img, bz, mode, options=options, seed=seed)
    return report


def _loader_ns(timeline) -> int:
    """The guest's share before ``startup_64``: bootstrap + decompression."""
    return timeline.category_ns(BootCategory.BOOTSTRAP_SETUP) + timeline.category_ns(
        BootCategory.DECOMPRESSION
    )


def test_lz4_boot_self_randomizes_and_verifies(tiny_kaslr):
    report = _run(tiny_kaslr, "lz4", RandomizeMode.KASLR)
    assert report.layout.voffset != 0
    assert report.verification.functions_checked > 0


def test_fgkaslr_self_randomization_verifies(tiny_fgkaslr):
    report = _run(tiny_fgkaslr, "none", RandomizeMode.FGKASLR, optimized=True)
    assert report.layout.fine_grained
    assert report.verification.kallsyms_stale  # fair-comparison loader skips the fixup


def test_stock_loader_fixes_kallsyms(tiny_fgkaslr):
    options = LoaderOptions(kallsyms_fixup=True)
    report = _run(
        tiny_fgkaslr, "none", RandomizeMode.FGKASLR, optimized=True, options=options
    )
    assert report.layout.kallsyms_fixed


def test_decompression_charged_to_its_own_category(tiny_kaslr):
    totals = _run(tiny_kaslr, "lz4", RandomizeMode.KASLR).timeline.category_totals_ns()
    assert totals[BootCategory.DECOMPRESSION] > 0
    assert totals[BootCategory.BOOTSTRAP_SETUP] > 0


def test_optimized_skips_copy_and_decompression(tiny_kaslr):
    timeline = _run(tiny_kaslr, "none", RandomizeMode.KASLR, optimized=True).timeline
    assert BootStep.LOADER_COPY_KERNEL not in timeline.step_totals_ns()
    assert timeline.category_ns(BootCategory.DECOMPRESSION) == 0


def test_unoptimized_none_pays_both_copies(tiny_kaslr):
    plain = _run(tiny_kaslr, "none", RandomizeMode.KASLR).timeline
    opt = _run(tiny_kaslr, "none", RandomizeMode.KASLR, optimized=True).timeline
    assert _loader_ns(plain) > _loader_ns(opt)
    # the unoptimized boot has the copy-aside step
    assert plain.step_ns(BootStep.LOADER_COPY_KERNEL) > 0


def test_lz4_decompression_dominates_loader_time():
    """Figure 5: decompression is the bulk of bootstrap-loader time.

    This is a property of paper-size kernels (tens of MiB), so it uses a
    scaled AWS build rather than the tiny unit-test kernel, whose constant
    bring-up costs dominate.
    """
    from repro.artifacts import get_kernel
    from repro.kernel import AWS, KernelVariant

    aws = get_kernel(AWS, KernelVariant.NOKASLR, scale=64)
    timeline = _run(aws, "lz4", RandomizeMode.NONE).timeline
    decompress = timeline.category_ns(BootCategory.DECOMPRESSION)
    assert decompress / _loader_ns(timeline) > 0.5


def test_milestones_in_order(tiny_kaslr):
    report = _run(tiny_kaslr, "lz4", RandomizeMode.KASLR)
    values = [w.value for w in report.milestones]
    assert values[:3] == [
        MILESTONE_LOADER_ENTRY,
        MILESTONE_DECOMPRESS_START,
        MILESTONE_DECOMPRESS_END,
    ]


def test_fgkaslr_heap_zero_dominates_kaslr_setup(tiny_kaslr, tiny_fgkaslr):
    ck = _run(tiny_kaslr, "none", RandomizeMode.KASLR, optimized=True).timeline
    cf = _run(tiny_fgkaslr, "none", RandomizeMode.FGKASLR, optimized=True).timeline
    assert cf.step_ns(BootStep.LOADER_HEAP_ZERO) > 5 * ck.step_ns(
        BootStep.LOADER_HEAP_ZERO
    )


def test_corrupt_payload_fails_boot(tiny_kaslr):
    from repro.bzimage.format import BzImage
    from repro.errors import CompressionError, BzImageError

    bz = build_bzimage(tiny_kaslr, "lz4")
    data = bytearray(bz.data)
    data[bz.header.payload_offset + 100] ^= 0xFF
    corrupted = BzImage.parse(bytes(data))
    with pytest.raises((CompressionError, BzImageError)) as excinfo:
        _boot(tiny_kaslr, corrupted, RandomizeMode.KASLR, seed=0)
    assert excinfo.value.boot_stage in ("decompress", "self_randomize")


def test_nokaslr_bzimage_boots_without_randomization(tiny_nokaslr):
    report = _run(tiny_nokaslr, "gzip", RandomizeMode.NONE)
    assert report.layout.voffset == 0
    assert report.verification.functions_checked > 0
