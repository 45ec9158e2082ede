"""Cost-model invariants: scaling, jitter, calibration relationships."""

import math

import pytest

from repro.simtime.costs import MIB, CostModel, JitterModel


def test_scale_multiplies_size_proportional_costs():
    small = CostModel(scale=1)
    big = CostModel(scale=16)
    n = 4 * MIB
    assert big.memcpy_ns(n) == pytest.approx(16 * small.memcpy_ns(n))
    assert big.reloc_apply_batch_ns(1000) == pytest.approx(
        16 * small.reloc_apply_batch_ns(1000)
    )


def test_scale_does_not_touch_constants():
    small = CostModel(scale=1)
    big = CostModel(scale=64)
    assert small.vmm_startup() == big.vmm_startup()
    assert small.vmm_guest_entry() == big.vmm_guest_entry()


def test_cached_read_much_faster_than_cold():
    costs = CostModel(scale=1)
    n = 32 * MIB
    assert costs.disk_read_ns(n, cached=True) < costs.disk_read_ns(n, cached=False) / 5


def test_decompress_lz4_fastest_of_real_codecs():
    costs = CostModel(scale=1)
    n = 8 * MIB
    lz4 = costs.decompress_ns("lz4", n)
    for codec in ("gzip", "bzip2", "lzma", "xz", "lzo"):
        assert lz4 < costs.decompress_ns(codec, n)


def test_decompress_unknown_codec_raises():
    with pytest.raises(KeyError):
        CostModel().decompress_ns("zstd", 100)


def test_reloc_search_grows_with_section_count():
    costs = CostModel(scale=1)
    assert costs.reloc_search_batch_ns(1000, 4096) > costs.reloc_search_batch_ns(
        1000, 16
    )
    assert costs.reloc_search_batch_ns(1000, 0) == 0


def test_guest_rng_slower_than_host():
    costs = CostModel(scale=1)
    assert costs.rng_ns(1, in_guest=True) > costs.rng_ns(1, in_guest=False)


def test_in_guest_reloc_apply_slower():
    costs = CostModel(scale=1)
    assert costs.reloc_apply_batch_ns(1000, in_guest=True) == pytest.approx(
        costs.loader_reloc_slowdown * costs.reloc_apply_batch_ns(1000)
    )


def test_kernel_boot_ns_splits_memory_and_base():
    costs = CostModel(scale=1)
    mem_ns = costs.kernel_mem_init_ns(1024)
    base_ns = costs.kernel_init_ns(50.0)
    assert base_ns == pytest.approx(50e6)
    assert mem_ns == pytest.approx(1024 * costs.kernel_mem_init_per_mib_ns)


def test_jitter_disabled_by_default():
    j = JitterModel()
    assert all(j.factor() == 1.0 for _ in range(10))


def test_jitter_bounded_and_deterministic():
    j1 = JitterModel(sigma=0.05, seed=42)
    j2 = JitterModel(sigma=0.05, seed=42)
    draws1 = [j1.factor() for _ in range(200)]
    draws2 = [j2.factor() for _ in range(200)]
    assert draws1 == draws2
    assert all(0.8 <= f <= 1.2 for f in draws1)
    assert len(set(draws1)) > 50  # actually varies


def test_negative_byte_count_rejected():
    with pytest.raises(ValueError):
        CostModel().memcpy_ns(-1)


def test_loader_heap_zero_includes_early_env_penalty():
    costs = CostModel(scale=1)
    assert costs.loader_heap_zero_ns(MIB) == pytest.approx(
        costs.memzero_ns(MIB) * costs.loader_zero_slowdown
    )


def test_throughput_formula():
    costs = CostModel(scale=1)
    # 1 MiB at 1024 MiB/s is ~0.977 ms
    assert costs.memcpy_ns(MIB) == pytest.approx(
        MIB / (costs.memcpy_mib_s * MIB) * 1e9
    )
    assert math.isclose(
        costs.memzero_ns(2 * MIB) / costs.memzero_ns(MIB), 2.0, rel_tol=1e-9
    )
