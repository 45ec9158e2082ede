#!/usr/bin/env python3
"""Re-randomized zygotes: SAND-style VM reuse without layout reuse (§7).

Serverless platforms avoid cold starts by restoring snapshots ("zygotes"),
but every copy-on-write clone then shares one kernel layout — a single
leaked pointer from any instance de-randomizes the whole fleet.  Because
the *monitor* holds vmlinux.relocs under in-monitor KASLR, it can rebase
each restored clone to a fresh offset in-place: relocation-table delta
apply + page-table rebuild, no reboot.

This script compares cold boots, plain restores, a Morula-style diverse
pool, and rebase-on-restore, then demonstrates that a leak from one
rebased clone does not locate gadgets in its siblings.

Run:  python examples/rerandomized_zygotes.py
"""

from repro import (
    AWS,
    CostModel,
    Firecracker,
    HostStorage,
    KernelVariant,
    RandomizeMode,
    ServerlessPlatform,
    VmConfig,
    get_kernel,
)
from repro.security import GadgetCatalog, simulate_leak_attack
from repro.workloads import InstanceStrategy

SCALE = 16
ACQUIRES = 12
#: name -> (strategy, zygotes)
STRATEGIES = {
    "shared": (InstanceStrategy.RESTORE, 1),
    "pool": (InstanceStrategy.RESTORE, 4),
    "rebase": (InstanceStrategy.RESTORE_REBASE, 1),
}


def main() -> None:
    vmm = Firecracker(HostStorage(), CostModel(scale=SCALE))
    kernel = get_kernel(AWS, KernelVariant.KASLR, scale=SCALE)

    def factory(i: int) -> VmConfig:
        return VmConfig(kernel=kernel, randomize=RandomizeMode.KASLR, seed=300 + i)

    # Reference: a cold boot with in-monitor KASLR.
    cfg = factory(0)
    vmm.warm_caches(cfg)
    cold = vmm.boot(cfg)
    print(f"cold boot w/ in-monitor KASLR: {cold.total_ms:7.2f} ms\n")

    clones = {}
    for name, (strategy, zygotes) in STRATEGIES.items():
        platform = ServerlessPlatform(
            vmm, factory, strategy=strategy, zygotes=zygotes
        )
        platform.setup()
        produced = [platform.produce(8_000 + i) for i in range(ACQUIRES)]
        mean = sum(p.startup_ms for p in produced) / len(produced)
        layouts = {p.layout_offset for p in produced}
        clones[name] = [p.vm for p in produced]
        print(f"zygote strategy {name:7s}: acquire {mean:6.2f} ms "
              f"(up-front {platform.setup_ms:6.1f} ms), "
              f"{len(layouts):2d} distinct layouts")

    # Security payoff: leak one clone, attack another.
    catalog = GadgetCatalog.from_kernel(kernel, n_gadgets=200, seed=2)
    print("\nleak in clone #0, gadgets locatable in clone #1:")
    for name in ("shared", "rebase"):
        a, b = clones[name][0], clones[name][1]
        # attacker learns clone A's offset; it transfers iff B shares it
        transferable = a.layout.voffset == b.layout.voffset
        result = simulate_leak_attack(kernel, b.layout, catalog, n_leaks=1)
        located = result.located if transferable else 0
        print(f"  {name:7s}: {located}/{result.n_gadgets} "
              f"({'layout shared — leak transfers' if transferable else 'fresh layout — leak useless'})")

    print("\nRebase-on-restore keeps restore-class latency while denying "
          "cross-instance leak reuse entirely.")


if __name__ == "__main__":
    main()
