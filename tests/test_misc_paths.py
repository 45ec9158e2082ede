"""Remaining cross-cutting paths: ORC in the loader, QEMU bzImage FGKASLR,
config naming, CLI sizes."""

import dataclasses

import pytest

from repro.bzimage import build_bzimage
from repro.bootstrap import LoaderOptions
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import TINY, KernelVariant, build_kernel
from repro.monitor import BootFormat, Firecracker, Qemu, VmConfig
from repro.simtime import CostModel


@pytest.fixture(scope="module")
def orc_kernel():
    config = dataclasses.replace(TINY, name="tiny-orc", has_orc=True)
    return build_kernel(config, KernelVariant.FGKASLR, scale=1, seed=5)


def test_orc_kernel_has_unwind_sections(orc_kernel):
    assert orc_kernel.elf.has_section(".orc_unwind_ip")
    assert orc_kernel.elf.has_section(".orc_unwind")


def test_loader_orc_fixup_path(orc_kernel):
    """The stock loader updates ORC tables; the stripped one skips them."""
    bz = build_bzimage(orc_kernel, "none", optimized=True)

    def run(orc_fixup):
        cfg = VmConfig(
            kernel=orc_kernel, boot_format=BootFormat.BZIMAGE, bzimage=bz,
            randomize=RandomizeMode.FGKASLR, seed=3,
            loader_options=LoaderOptions(orc_fixup=orc_fixup),
        )
        # the guest-boot stage verifies the randomized kernel
        report = Firecracker(HostStorage(), CostModel(scale=1)).boot(cfg)
        return report.timeline.total_ns

    assert run(orc_fixup=True) > run(orc_fixup=False)


def test_qemu_bzimage_fgkaslr_boots(storage, orc_kernel):
    qemu = Qemu(storage, CostModel(scale=1))
    bz = build_bzimage(orc_kernel, "lz4")
    cfg = VmConfig(
        kernel=orc_kernel, boot_format=BootFormat.BZIMAGE, bzimage=bz,
        randomize=RandomizeMode.FGKASLR, seed=5,
    )
    qemu.warm_caches(cfg)
    report = qemu.boot(cfg)
    assert report.layout.fine_grained
    assert report.vmm_name == "qemu"


def test_kernel_file_names(tiny_kaslr):
    direct = VmConfig(kernel=tiny_kaslr)
    assert direct.kernel_file_name() == "tiny-kaslr.vmlinux"
    assert direct.relocs_file_name() == "tiny-kaslr.relocs"
    bz = build_bzimage(tiny_kaslr, "none", optimized=True)
    cfg = VmConfig(kernel=tiny_kaslr, boot_format=BootFormat.BZIMAGE, bzimage=bz)
    assert cfg.kernel_file_name() == "tiny-kaslr.bzimage.none-opt"


def test_effective_cmdline_falls_back_to_config(tiny_kaslr):
    assert VmConfig(kernel=tiny_kaslr).effective_cmdline == TINY.cmdline
    assert (
        VmConfig(kernel=tiny_kaslr, cmdline="quiet").effective_cmdline == "quiet"
    )


def test_cli_sizes(capsys):
    from repro.cli import main

    assert main(["sizes", "--scale", "128"]) == 0
    out = capsys.readouterr().out
    assert "aws-fgkaslr" in out
    assert "N/A" in out  # nokaslr rows have no relocs


def test_image_paper_scale_projection(tiny_kaslr):
    assert tiny_kaslr.paper_scale_bytes(100) == 100 * tiny_kaslr.scale


def test_paper_config_preserved():
    from repro.kernel import AWS

    kernel = build_kernel(AWS, KernelVariant.KASLR, scale=64, seed=1)
    assert kernel.paper_config is AWS
    assert kernel.config.text_bytes == AWS.text_bytes // 64
