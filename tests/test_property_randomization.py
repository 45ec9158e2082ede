"""Property-based tests: randomization preserves kernel semantics.

The central invariant of the whole paper: *any* seed, any mode, any
principal — after randomization the guest kernel must still be correct
(every pointer resolves, every table consistent).  Hypothesis drives the
seed/mode space; the verification oracle is the property.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.artifacts import bzimage_cfg, direct_cfg
from repro.bzimage import build_bzimage
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import TINY
from repro.kernel import layout as kl
from repro.kernel.verify import verify_guest_kernel
from repro.monitor import BootFormat, Firecracker, VmConfig
from repro.simtime import CostModel

from helpers import randomize_into_memory, walker_for

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_inmonitor_kaslr_always_verifies(tiny_kaslr, seed):
    layout, loaded, memory, _ = randomize_into_memory(
        tiny_kaslr, RandomizeMode.KASLR, seed=seed
    )
    walker = walker_for(memory, layout, loaded)
    verify_guest_kernel(memory, walker, layout, tiny_kaslr.manifest)
    assert layout.voffset % kl.KERNEL_ALIGN == 0


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), lazy=st.booleans())
def test_inmonitor_fgkaslr_always_verifies(tiny_fgkaslr, seed, lazy):
    layout, loaded, memory, _ = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=seed, lazy_kallsyms=lazy
    )
    walker = walker_for(memory, layout, loaded)
    report = verify_guest_kernel(memory, walker, layout, tiny_fgkaslr.manifest)
    assert report.kallsyms_stale == lazy


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**31),
    codec=st.sampled_from(["none", "lz4", "gzip"]),
)
def test_self_randomization_always_verifies(tiny_fgkaslr, seed, codec):
    cfg = VmConfig(
        kernel=tiny_fgkaslr, boot_format=BootFormat.BZIMAGE,
        bzimage=build_bzimage(tiny_fgkaslr, codec),
        randomize=RandomizeMode.FGKASLR, seed=seed,
    )
    # the guest-boot stage runs the verification oracle
    report = Firecracker(HostStorage(), CostModel(scale=1)).boot(cfg)
    assert report.verification.functions_checked > 0


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(list(RandomizeMode)),
    codec=st.sampled_from([("lz4", False), ("none", True)]),
)
def test_monitor_and_loader_entropy_equivalent(seed, mode, codec):
    """Same seed, same algorithm -> same guest under either principal.

    This is the Section 4.3 equivalence claim made literal: the principals
    share the randomization pipeline, so given the same randomness a
    direct boot and a bzImage boot of one kernel lay it out identically,
    byte for byte.  (A kernel with ORC tables would differ under the
    default options: the fair-comparison loader skips the ORC update.)
    """
    codec, optimized = codec
    fc = Firecracker(HostStorage(), CostModel(scale=1))
    _, direct = fc.boot_vm(direct_cfg(TINY, mode, scale=1, seed=seed))
    _, loader = fc.boot_vm(
        bzimage_cfg(TINY, mode, codec, scale=1, optimized=optimized, seed=seed)
    )
    a, b = direct.layout, loader.layout
    assert (a.voffset, a.phys_load, a.moved, a.mem_bytes) == (
        b.voffset, b.phys_load, b.moved, b.mem_bytes
    )
    image = (a.phys_load, a.mem_bytes)
    assert direct.memory.read(*image) == loader.memory.read(*image)


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_fgkaslr_moves_form_permutation(tiny_fgkaslr, seed):
    layout, *_ = randomize_into_memory(
        tiny_fgkaslr, RandomizeMode.FGKASLR, seed=seed
    )
    spans = sorted((o + d, o + d + s) for o, s, d in layout.moved)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end  # never overlap
    # total byte span preserved
    assert sum(e - s for s, e in spans) == sum(s for _o, s, _d in layout.moved)
