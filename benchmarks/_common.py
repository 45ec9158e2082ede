"""Shared benchmark-harness settings.

Environment knobs:

* ``REPRO_BOOTS``  — measured boots per series (paper: 100; default 20)
* ``REPRO_SCALE``  — kernel build scale divisor (DESIGN.md §7; default 16)
* ``REPRO_JITTER`` — run-to-run noise sigma giving the paper-style
  min/max error bars (default 0.02); the CI bench-smoke job sets 0 so
  low-boot-count runs are exactly reproducible and the regression gate
  compares deterministic numbers

All reported times are simulated milliseconds at paper scale.  Table 1
and Figures 3, 4, 6, 9 and 11 are measured by :mod:`repro.experiments`;
the other benches build their boots with :func:`repro.artifacts.direct_cfg`
/ :func:`~repro.artifacts.bzimage_cfg` and measure them through ``ENV``.
"""

from __future__ import annotations

import functools
import os

from repro.experiments import Env, Figure, fig9_evaluation

ENV = Env(
    boots=int(os.environ.get("REPRO_BOOTS", Env.boots)),
    scale=int(os.environ.get("REPRO_SCALE", Env.scale)),
    jitter=float(os.environ.get("REPRO_JITTER", Env.jitter)),
)


@functools.cache
def fig9() -> Figure:
    """The Figure 9 measurement, shared by its bench and the headline
    claims (whose 15 series are Figure 9 series)."""
    return fig9_evaluation(ENV)
