"""Host entropy pool.

Section 4.3: instead of the bootstrap loader's mix of ``rdrand``/``rdtsc``,
in-monitor KASLR pulls randomness from the long-running host's entropy pool
(a Rust ``rand`` crate in the prototype).  Here that pool is a seeded PRNG
so experiments are reproducible; the *cost* difference between host draws
and in-guest draws is captured by the cost model.
"""

from __future__ import annotations

import random
import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import MetricsRegistry


class HostEntropyPool:
    """Deterministic stand-in for ``/dev/urandom``.

    Draws are serialized by a lock: a long-running host pool is shared by
    every monitor thread booting fleet instances, and ``draws`` / the RNG
    stream must stay consistent under that concurrency.

    With a metrics registry, every draw also increments
    ``repro_entropy_draws_total`` on it, so fleet launches can attribute
    randomness consumption.
    """

    def __init__(
        self, seed: int = 0, registry: "MetricsRegistry | None" = None
    ) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.draws = 0
        # bound once: the counter itself is thread-safe
        self._draw_counter = (
            registry.counter(
                "repro_entropy_draws_total", help="Host entropy pool draws"
            )
            if registry is not None
            else None
        )

    @property
    def seed(self) -> int:
        return self._seed

    def reseed(self, seed: int) -> None:
        with self._lock:
            self._seed = seed
            self._rng = random.Random(seed)

    def _count_draw(self) -> None:
        """Count one draw; the caller holds ``_lock``."""
        self.draws += 1
        if self._draw_counter is not None:
            self._draw_counter.inc()

    def draw_u64(self) -> int:
        with self._lock:
            self._count_draw()
            return self._rng.getrandbits(64)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n); counts as one pool draw."""
        if n <= 0:
            raise ValueError(f"randrange bound must be positive: {n}")
        with self._lock:
            self._count_draw()
            return self._rng.randrange(n)

    def shuffle_rng(self) -> random.Random:
        """A child RNG for Fisher-Yates shuffles; counts as one seed draw."""
        with self._lock:
            self._count_draw()
            return random.Random(self._rng.getrandbits(64))
