"""Benchmark harness conftest: result recording + terminal summary.

Each experiment registers its reproduced table/figure text via the
``record`` fixture; everything is echoed in the pytest terminal summary
(so it survives output capture) and written to ``benchmarks/results/``.

Experiments that additionally pass ``series={metric: value}`` get a
machine-readable trajectory file ``benchmarks/results/BENCH_<name>.json``
(schema in :mod:`repro.tools.benchgate`), which ``repro bench-compare``
gates against the committed ``benchmarks/baselines.json``.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import subprocess

import pytest

from _common import ENV

_RESULTS: list[tuple[str, str]] = []
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


@pytest.fixture()
def record():
    """record(name, text, series=None, units="ms"): register one output.

    ``series`` values must be plain numbers; they become the benchmark's
    gated metrics in ``BENCH_<name>.json``.
    """

    def _record(
        name: str,
        text: str,
        series: dict[str, float] | None = None,
        units: str = "ms",
    ) -> None:
        _RESULTS.append((name, text))
        _RESULTS_DIR.mkdir(exist_ok=True)
        safe = name.lower().replace(" ", "_").replace("/", "-")
        (_RESULTS_DIR / f"{safe}.txt").write_text(text + "\n")
        if series:
            payload = {
                "schema": 1,
                "name": name,
                "units": units,
                "repro_boots": ENV.boots,
                "repro_scale": ENV.scale,
                "jitter_sigma": ENV.jitter,
                "git_rev": _git_rev(),
                "timestamp": datetime.datetime.now(
                    datetime.timezone.utc
                ).isoformat(timespec="seconds"),
                "series": {k: float(v) for k, v in sorted(series.items())},
            }
            (_RESULTS_DIR / f"BENCH_{safe}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for name, text in _RESULTS:
        terminalreporter.write_sep("-", name)
        terminalreporter.write_line(text)
