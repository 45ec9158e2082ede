"""LEBench cache/TLB mechanism and Figure 11 properties."""

import pytest

from repro.core import LayoutResult, RandomizeMode
from repro.lebench import (
    ICache,
    Itlb,
    LEBENCH_TESTS,
    alias_period,
    layout_key,
    run_lebench,
)

from helpers import randomize_into_memory


def test_icache_geometry():
    cache = ICache()
    assert cache.n_sets == 64
    with pytest.raises(ValueError):
        ICache(size_bytes=1000, line_bytes=64, ways=8)


def test_icache_hit_after_miss():
    cache = ICache()
    assert not cache.access_line(42)
    assert cache.access_line(42)
    assert cache.hits == 1 and cache.misses == 1


def test_icache_lru_eviction():
    cache = ICache(size_bytes=2 * 64 * 2, line_bytes=64, ways=2)  # 2 sets, 2 ways
    s = cache.n_sets
    cache.access_line(0)
    cache.access_line(s)      # same set, way 2
    cache.access_line(2 * s)  # evicts line 0 (LRU)
    assert not cache.access_line(0)


def test_icache_range_counts_lines():
    cache = ICache()
    misses = cache.access_range(0x1000, 256)  # exactly 4 lines
    assert misses == 4
    assert cache.access_range(0x1000, 256) == 0


def test_itlb_lru():
    tlb = Itlb(entries=2, page_bytes=4096)
    assert not tlb.access(0)
    assert not tlb.access(4096)
    assert tlb.access(100)  # page 0 still resident
    assert not tlb.access(3 * 4096)  # evicts page 4096 (LRU)
    assert not tlb.access(4096)


def test_kaslr_layout_is_performance_neutral(tiny_nokaslr, tiny_kaslr):
    """Figure 11: base KASLR is within noise of nokaslr (here: exactly 0)."""
    base = run_lebench(tiny_nokaslr, LayoutResult().finalize())
    layout, *_ = randomize_into_memory(tiny_kaslr, RandomizeMode.KASLR, seed=8)
    kaslr = run_lebench(tiny_kaslr, layout)
    assert kaslr.mean_normalized(base) == pytest.approx(1.0, abs=1e-9)


def test_fgkaslr_layout_costs_a_few_percent():
    """Scattering only bites once hot paths span a realistic text size, so
    this uses a scaled AWS kernel rather than the tiny fixture (whose whole
    text fits in one page and one cache footprint)."""
    from repro.artifacts import get_kernel
    from repro.kernel import AWS, KernelVariant

    nok = get_kernel(AWS, KernelVariant.NOKASLR, scale=64)
    fg_img = get_kernel(AWS, KernelVariant.FGKASLR, scale=64)
    base = run_lebench(nok, LayoutResult().finalize())
    layout, *_ = randomize_into_memory(fg_img, RandomizeMode.FGKASLR, seed=8)
    fg = run_lebench(fg_img, layout)
    mean = fg.mean_normalized(base)
    assert 1.01 < mean < 1.25  # paper: ~7% average regression


def test_fgkaslr_variation_is_per_workload(tiny_nokaslr, tiny_fgkaslr):
    base = run_lebench(tiny_nokaslr, LayoutResult().finalize())
    layout, *_ = randomize_into_memory(tiny_fgkaslr, RandomizeMode.FGKASLR, seed=8)
    ratios = run_lebench(tiny_fgkaslr, layout).normalized_to(base)
    assert len(set(round(v, 4) for v in ratios.values())) > 3


def test_all_tests_run():
    from repro.kernel import TINY, KernelVariant, build_kernel

    img = build_kernel(TINY, KernelVariant.NOKASLR, scale=1, seed=3)
    result = run_lebench(img, LayoutResult().finalize())
    assert len(result.results) == len(LEBENCH_TESTS)
    assert all(r.ns_per_iter > 0 for r in result.results)


def test_subset_of_tests(tiny_nokaslr):
    result = run_lebench(
        tiny_nokaslr, LayoutResult().finalize(), tests=LEBENCH_TESTS[:3]
    )
    assert [r.name for r in result.results] == [t.name for t in LEBENCH_TESTS[:3]]


def test_hot_set_start_deterministic():
    test = LEBENCH_TESTS[0]
    assert test.hot_set_start(1000) == test.hot_set_start(1000)
    assert 0 <= test.hot_set_start(50) < 50


# -- cache-equivalent layouts (layout_key), run_lebench as the reference -------

_SCALE = 64
_MODES = (RandomizeMode.KASLR, RandomizeMode.FGKASLR)


@pytest.fixture(scope="module")
def aws_kernels():
    """aws at scale 64: a 32 KiB ITLB page, so the period is not 4 KiB."""
    from repro.artifacts import VARIANT_FOR_MODE, get_kernel
    from repro.kernel import AWS

    return {
        mode: get_kernel(AWS, VARIANT_FOR_MODE[mode], scale=_SCALE)
        for mode in _MODES
    }


def _shifted(layout: LayoutResult, by: int) -> LayoutResult:
    return LayoutResult(voffset=layout.voffset + by, moved=list(layout.moved)).finalize()


@pytest.mark.parametrize("mode", _MODES, ids=str)
def test_shift_by_alias_period_changes_no_result(aws_kernels, mode):
    kernel = aws_kernels[mode]
    period = alias_period(kernel)
    assert period == 32 * 1024
    for seed in (1, 8, 21):
        layout, *_ = randomize_into_memory(kernel, mode, seed=seed)
        expected = run_lebench(kernel, layout).results
        for k in (1, 5):
            shifted = _shifted(layout, k * period)
            assert layout_key(kernel, shifted) == layout_key(kernel, layout)
            assert run_lebench(kernel, shifted).results == expected


@pytest.mark.parametrize("mode", _MODES, ids=str)
def test_equal_keys_give_equal_results(aws_kernels, mode):
    """Layouts grouped by key share one result within each group.

    Three boots plus 4 KiB steps of the first one across two periods.
    Under FGKASLR the steps below the period land in other groups with
    other results, so a key coarser than the cache model fails here.
    """
    kernel = aws_kernels[mode]
    layouts = [randomize_into_memory(kernel, mode, seed=seed)[0] for seed in (1, 2, 3)]
    layouts += [_shifted(layouts[0], k * 4096) for k in range(1, 17)]
    groups: dict[tuple, list] = {}
    for layout in layouts:
        groups.setdefault(layout_key(kernel, layout), []).append(
            run_lebench(kernel, layout).results
        )
    for results in groups.values():
        assert all(r == results[0] for r in results)
    distinct = {tuple(results[0]) for results in groups.values()}
    if mode is RandomizeMode.KASLR:
        assert len(groups) == 8  # the hot set fits: every shift reads the same
    else:
        assert len(groups) == 10 and len(distinct) > 1


def test_distinct_move_maps_get_distinct_keys(aws_kernels):
    kernel = aws_kernels[RandomizeMode.FGKASLR]
    a, *_ = randomize_into_memory(kernel, RandomizeMode.FGKASLR, seed=1)
    b, *_ = randomize_into_memory(kernel, RandomizeMode.FGKASLR, seed=2)
    assert a.moved != b.moved
    assert layout_key(kernel, a) != layout_key(kernel, b)
    # a shift that is not a multiple of the period is a different class
    assert layout_key(kernel, _shifted(a, alias_period(kernel) // 2)) != layout_key(
        kernel, a
    )


def test_sampling_runs_lebench_once_per_equivalent_layout(monkeypatch, aws_kernels):
    """8 KASLR cold-boot samples share one key, so one suite run serves all."""
    from repro.host import HostStorage
    from repro.monitor import Firecracker, VmConfig
    from repro.serve import SampledBackend
    from repro.simtime import CostModel
    from repro.workloads import FUNCTIONS, ServerlessPlatform, invoke_ns
    from repro.workloads import functions

    kernel = aws_kernels[RandomizeMode.KASLR]
    spec = FUNCTIONS["api-echo"]
    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return run_lebench(*args, **kwargs)

    monkeypatch.setattr(functions, "run_lebench", counted)

    def sample():
        platform = ServerlessPlatform(
            Firecracker(HostStorage(), CostModel(scale=_SCALE)),
            lambda seed: VmConfig(kernel=kernel, randomize=RandomizeMode.KASLR, seed=seed),
        )
        layouts = []
        produce = platform.produce

        def capture(seed, **kwargs):
            produced = produce(seed, **kwargs)
            layouts.append(produced.vm.layout)
            return produced

        platform.produce = capture
        backend = SampledBackend.from_platform(platform, spec, n_samples=8, seed=4)
        return backend, layouts

    backend, layouts = sample()
    assert len(runs) == 1
    assert len({s.layout_offset for s in backend.samples}) > 1
    # the memo belongs to the platform: a second one measures afresh
    sample()
    assert len(runs) == 2
    monkeypatch.undo()
    for s, layout in zip(backend.samples, layouts, strict=True):
        assert s.invoke_ns == int(round(invoke_ns(kernel, layout, spec)))
