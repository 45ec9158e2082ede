"""Section 4.3/6 — live KASLR entropy audit per production strategy.

The flight recorder's :class:`~repro.security.KaslrAuditor` watches the
fleet from the *defender's* side: it fingerprints every produced
instance's layout and reports, per strategy, how much address-space
diversity actually reached production.  This bench reproduces the
paper's headline trade-off as an audit finding rather than a latency
number:

* cold boots keep the distinct-layout fraction at ~1.0 (every instance
  rolls fresh dice);
* plain restore collapses to a single shared layout — the fraction
  falls to 1/N and the empirical entropy to 0 bits;
* in-monitor rebase restores the diversity of cold boots at warm-start
  latency.

The gate tracks the distinct fraction and entropy bits per strategy.
The bench also measures the auditor's own cost on a fleet launch — the
CPU time spent inside :meth:`KaslrAuditor.record` over the launch's
process CPU time — and requires it stay under 5%: an always-on auditor
must be free.  Timing the auditor's calls, rather than comparing two
wall-clock launches, keeps host noise out of the reading.
"""

from __future__ import annotations

import time

from _common import SCALE, direct_cfg, make_vmm
from repro.analysis import render_table
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import AWS
from repro.monitor import Firecracker, FleetManager
from repro.security import KaslrAuditor
from repro.simtime import CostModel
from repro.workloads import InstanceStrategy, ServerlessPlatform

N_INSTANCES = 24
OVERHEAD_BOOTS = 48
SEED = 11


def _audit_strategy(strategy: InstanceStrategy) -> dict:
    auditor = KaslrAuditor()
    vmm = make_vmm()
    platform = ServerlessPlatform(
        vmm,
        lambda seed: direct_cfg(AWS, RandomizeMode.KASLR, seed=seed),
        strategy=strategy,
    )
    platform.setup()
    for i in range(N_INSTANCES):
        produced = platform.produce(SEED + i, boot_index=i)
        auditor.record(
            f"{strategy.value}:{i}",
            strategy=strategy.value,
            t_ns=i,
            layout=produced.vm.layout,
        )
    return auditor.to_json_dict()["strategies"][strategy.value]


class _TimedAuditor(KaslrAuditor):
    """Keeps the thread CPU time of each of its own records."""

    def __init__(self) -> None:
        super().__init__()
        self.record_cpu_s: list[float] = []

    def record(self, *args, **kwargs) -> str:
        start = time.thread_time()
        try:
            return super().record(*args, **kwargs)
        finally:
            self.record_cpu_s.append(time.thread_time() - start)


def _audit_cpu_share() -> float:
    """CPU inside ``KaslrAuditor.record`` / process CPU of one launch."""
    auditor = _TimedAuditor()
    vmm = Firecracker(HostStorage(), CostModel(scale=SCALE))
    manager = FleetManager(vmm, workers=4, auditor=auditor)
    cfg = direct_cfg(AWS, RandomizeMode.KASLR)
    start = time.process_time()
    manager.launch(cfg, OVERHEAD_BOOTS, fleet_seed=SEED)
    launch_cpu_s = time.process_time() - start
    assert len(auditor.record_cpu_s) == OVERHEAD_BOOTS
    return sum(auditor.record_cpu_s) / launch_cpu_s


def _run() -> tuple[dict[str, dict], float]:
    audits = {
        strategy.value: _audit_strategy(strategy)
        for strategy in InstanceStrategy
    }
    return audits, _audit_cpu_share()


def test_entropy_audit(benchmark, record):
    audits, overhead_frac = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = render_table(
        ["strategy", "instances", "distinct", "fraction", "entropy bits",
         "duplicates"],
        [
            [
                name,
                doc["boots"],
                doc["distinct_layouts"],
                f"{doc['distinct_fraction']:.4f}",
                f"{doc['entropy_bits']:.2f}",
                doc["duplicates"],
            ]
            for name, doc in sorted(audits.items())
        ],
        title=f"live KASLR audit — {N_INSTANCES} instances per strategy, "
        f"auditor overhead {overhead_frac * 100:.2f}% of the CPU "
        f"of a {OVERHEAD_BOOTS}-boot fleet",
    )
    series = {}
    for name, doc in audits.items():
        series[f"{name}/distinct_fraction"] = doc["distinct_fraction"]
        series[f"{name}/entropy_bits"] = doc["entropy_bits"]
    record("entropy audit", table, series=series, units="fraction")

    cold = audits["cold-boot"]
    restore = audits["restore"]
    rebase = audits["restore-rebase"]
    for doc in (cold, restore, rebase):
        assert doc["boots"] == N_INSTANCES
    # cold boots roll fresh dice per instance
    assert cold["distinct_fraction"] >= 0.9
    # plain restore collapses toward 1/N: one zygote layout, N clones
    assert restore["distinct_layouts"] <= 2
    assert restore["distinct_fraction"] <= 2 / N_INSTANCES
    assert restore["entropy_bits"] <= 1.0
    # in-monitor rebase buys the diversity back at warm latency
    assert rebase["distinct_fraction"] >= 0.9
    assert rebase["entropy_bits"] > restore["entropy_bits"]
    # an always-on auditor must be (nearly) free
    assert overhead_frac <= 0.05, f"audit overhead {overhead_frac:.3f} > 5%"
