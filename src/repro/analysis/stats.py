"""Aggregation over repeated boots.

The paper reports the average over 100 boots with min/max error bars,
after 5 cache-warming boots (Section 5.1).  :func:`run_boots` reproduces
that protocol on the simulated monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, pstdev

from repro.monitor.config import VmConfig
from repro.monitor.report import BootReport
from repro.monitor.vmm import Firecracker
from repro.simtime.trace import BootCategory

#: seed of a series' first measured boot; boot ``i`` gets ``SEED0 + i``
SEED0 = 1000


@dataclass(frozen=True)
class Stats:
    """mean/min/max/std of one measured quantity."""

    mean: float
    min: float
    max: float
    n: int
    std: float = 0.0

    @classmethod
    def of(cls, values: list[float]) -> "Stats":
        if not values:
            raise ValueError("no samples")
        return cls(
            mean=mean(values),
            min=min(values),
            max=max(values),
            n=len(values),
            std=pstdev(values) if len(values) > 1 else 0.0,
        )

    def speedup_over(self, other: "Stats") -> float:
        """Fractional improvement of this series over ``other`` (its mean)."""
        if other.mean == 0:
            raise ValueError("cannot compare against a zero-mean series")
        return (other.mean - self.mean) / other.mean

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.2f} [{self.min:.2f}, {self.max:.2f}] (n={self.n})"


@dataclass
class BootSeries:
    """All reports from one measurement series plus derived stats."""

    label: str
    reports: list[BootReport] = field(default_factory=list)

    @property
    def total(self) -> Stats:
        return Stats.of([r.total_ms for r in self.reports])

    def category(self, category: BootCategory) -> Stats:
        return Stats.of([r.category_ms(category) for r in self.reports])

    def breakdown_means(self) -> dict[str, float]:
        return {c.value: self.category(c).mean for c in BootCategory}

    @property
    def first(self) -> BootReport:
        return self.reports[0]


def run_boots(
    vmm: Firecracker,
    cfg: VmConfig,
    n: int = 20,
    seed0: int = SEED0,
    warm: bool = True,
    label: str | None = None,
) -> BootSeries:
    """Measure ``n`` boots following the paper's protocol.

    ``warm=True`` warms the host caches first
    (:meth:`~repro.monitor.vmm.Firecracker.warm_caches` models the
    paper's warm-up boots); ``warm=False`` drops host caches before
    every measured boot.  Each boot gets a distinct deterministic seed
    (``seed0 + i``).
    """
    series = BootSeries(label=label or f"{cfg.kernel.name}/{cfg.randomize}")
    if warm:
        vmm.warm_caches(cfg)
    for i in range(n):
        cfg.seed = seed0 + i
        cfg.drop_caches = not warm
        series.reports.append(vmm.boot(cfg))
    return series
