"""Section 4.3 — entropy equivalence of in-monitor randomization.

"Because the computational steps for in-monitor (FG)KASLR are the same as
those in the Linux bootstrap loader, the entropy provided by in-monitor
randomization is equivalent to that of Linux."  This experiment measures
the offset distributions both principals actually produce over many boots
and compares their empirical entropy, slot coverage, and alignment.
"""

from __future__ import annotations

from _common import ENV
from repro.analysis import render_table
from repro.artifacts import bzimage_cfg, direct_cfg
from repro.core import RandomizeMode, RandomizationPolicy
from repro.kernel import AWS, layout as kl
from repro.security import empirical_entropy_bits
from repro.security.entropy import coverage_fraction

N_SAMPLES = 200


def _offsets(vmm, cfg_factory):
    offsets = []
    for seed in range(N_SAMPLES):
        cfg = cfg_factory()
        cfg.seed = 10_000 + seed
        vmm.warm_caches(cfg)
        offsets.append(vmm.boot(cfg).layout.voffset)
    return offsets


def _run():
    vmm = ENV.vmm()
    monitor = _offsets(
        vmm, lambda: direct_cfg(AWS, RandomizeMode.KASLR, scale=ENV.scale)
    )
    loader = _offsets(
        vmm,
        lambda: bzimage_cfg(
            AWS, RandomizeMode.KASLR, "none", scale=ENV.scale, optimized=True
        ),
    )
    return monitor, loader


def test_entropy_equivalence(benchmark, record):
    monitor, loader = benchmark.pedantic(_run, rounds=1, iterations=1)
    policy = RandomizationPolicy()
    kernel = direct_cfg(AWS, RandomizeMode.KASLR, scale=ENV.scale).kernel
    kernel_mem = kernel.manifest.mem_bytes
    slots = policy.slot_count(kernel_mem)

    rows = []
    stats = {}
    for name, offsets in (("in-monitor", monitor), ("bootstrap loader", loader)):
        entropy = empirical_entropy_bits(offsets)
        coverage = coverage_fraction(offsets, slots)
        stats[name] = (entropy, coverage)
        rows.append(
            [
                name,
                len(offsets),
                f"{entropy:.2f}",
                f"{coverage * 100:.0f}%",
                f"{min(offsets):#x}",
                f"{max(offsets):#x}",
            ]
        )
    table = render_table(
        ["principal", "boots", "empirical bits", "slot coverage", "min", "max"],
        rows,
        title=f"Entropy equivalence over {N_SAMPLES} boots "
        f"({slots} theoretical slots, scale 1/{ENV.scale})",
    )
    record(
        "entropy equivalence",
        table,
        series={
            "in-monitor/entropy_bits": stats["in-monitor"][0],
            "in-monitor/coverage": stats["in-monitor"][1],
            "bootstrap-loader/entropy_bits": stats["bootstrap loader"][0],
            "bootstrap-loader/coverage": stats["bootstrap loader"][1],
        },
        units="bits",
    )

    (m_entropy, m_cov), (l_entropy, l_cov) = stats["in-monitor"], stats[
        "bootstrap loader"
    ]
    # equivalent entropy within sampling error
    assert abs(m_entropy - l_entropy) < 0.4
    assert abs(m_cov - l_cov) < 0.12
    # both respect alignment and the window
    for offsets in (monitor, loader):
        assert all(off % kl.KERNEL_ALIGN == 0 for off in offsets)
        assert all(policy.min_offset <= off < policy.max_offset for off in offsets)
