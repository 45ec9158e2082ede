"""Benchmark regression gate.

The benchmark suite writes one machine-readable trajectory file per
experiment — ``benchmarks/results/BENCH_<name>.json`` with schema::

    {
      "schema": 1,
      "name": "fig4 cache effects",
      "units": "ms",
      "repro_boots": 20, "repro_scale": 16, "jitter_sigma": 0.02,
      "git_rev": "abc1234", "timestamp": "2026-08-06T12:00:00+00:00",
      "series": {"<metric>": <number>, ...},
      "rows": [...]                       # optional raw figure rows
    }

This module compares those series against the committed baseline store
(``benchmarks/baselines.json``, which deliberately lives *outside*
``benchmarks/results/`` so ``make bench-clean`` can't destroy it) and
exits non-zero when any metric leaves its tolerance band — the ROADMAP's
"as fast as the hardware allows" regression ratchet.

Baseline store schema::

    {
      "schema": 1,
      "default_rel_tol": 0.15,
      "settings": {"repro_boots": ..., "repro_scale": ..., "jitter_sigma": ...},
      "benchmarks": {
        "<name>": {
          "units": "ms",
          "series": {"<metric>": <number>, ...},
          "rel_tol": 0.15,                 # optional per-benchmark override
          "tolerances": {"<metric>": 0.3}  # optional per-metric override
        }
      }
    }

A result taken at the store's own ``settings`` with jitter 0 is a pure
function of the code, so it must reproduce its baseline to within
``EXACT_REL_TOL``; the bands apply to every other setting.  Refresh
intentionally with ``repro bench-compare --update`` (see
EXPERIMENTS.md); per-benchmark/per-metric tolerances survive an update.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable

SCHEMA_VERSION = 1
DEFAULT_REL_TOL = 0.15
RESULT_PREFIX = "BENCH_"
#: floor for relative deviation on near-zero baselines
EPS = 1e-12
#: the band for a jitter-free run at the store's settings
EXACT_REL_TOL = 1e-9
#: the run settings each result carries and the store records
SETTINGS = ("repro_boots", "repro_scale", "jitter_sigma")

DEFAULT_RESULTS_DIR = "benchmarks/results"
DEFAULT_BASELINES = "benchmarks/baselines.json"


def safe_name(name: str) -> str:
    """The filesystem slug a benchmark name maps to (matches conftest)."""
    return name.lower().replace(" ", "_").replace("/", "-")


def result_path(results_dir: pathlib.Path, name: str) -> pathlib.Path:
    return results_dir / f"{RESULT_PREFIX}{safe_name(name)}.json"


def load_results(results_dir: pathlib.Path) -> dict[str, dict]:
    """Every BENCH_*.json in the results directory, keyed by name."""
    found: dict[str, dict] = {}
    if not results_dir.is_dir():
        return found
    for path in sorted(results_dir.glob(f"{RESULT_PREFIX}*.json")):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        found[payload["name"]] = payload
    return found


def load_baselines(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        store = json.load(fh)
    if store.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported baseline schema {store.get('schema')!r}"
        )
    return store


def _exact(store: dict, payload: dict) -> bool:
    """Was ``payload`` run jitter-free at the store's own settings?"""
    settings = store.get("settings") or {}
    return settings.get("jitter_sigma") == 0 and all(
        payload.get(key) == settings.get(key) for key in SETTINGS
    )


def _tolerance(store: dict, bench: dict, metric: str) -> float:
    if metric in bench.get("tolerances", {}):
        return float(bench["tolerances"][metric])
    if "rel_tol" in bench:
        return float(bench["rel_tol"])
    return float(store.get("default_rel_tol", DEFAULT_REL_TOL))


def update_baselines(
    store: dict, results: dict[str, dict], settings: dict | None
) -> dict:
    """A refreshed store: new series values, tolerances preserved."""
    benchmarks: dict[str, dict] = {}
    for name in sorted(results):
        payload = results[name]
        old = store.get("benchmarks", {}).get(name, {})
        entry: dict = {
            "units": payload.get("units", "ms"),
            "series": dict(sorted(payload.get("series", {}).items())),
        }
        for key in ("rel_tol", "tolerances"):
            if key in old:
                entry[key] = old[key]
        benchmarks[name] = entry
    refreshed = {
        "schema": SCHEMA_VERSION,
        "default_rel_tol": store.get("default_rel_tol", DEFAULT_REL_TOL),
        "benchmarks": benchmarks,
    }
    if settings:
        refreshed["settings"] = settings
    return refreshed


def run_compare(
    results_dir: str | pathlib.Path = DEFAULT_RESULTS_DIR,
    baselines_path: str | pathlib.Path = DEFAULT_BASELINES,
    update: bool = False,
    strict: bool = False,
    write: Callable[[str], object] = sys.stdout.write,
) -> int:
    """Compare (or ``--update``) and return the process exit code."""
    results_dir = pathlib.Path(results_dir)
    baselines_path = pathlib.Path(baselines_path)
    results = load_results(results_dir)

    if update:
        store = (
            load_baselines(baselines_path)
            if baselines_path.exists()
            else {"schema": SCHEMA_VERSION, "default_rel_tol": DEFAULT_REL_TOL}
        )
        if not results:
            write(f"no {RESULT_PREFIX}*.json under {results_dir}; nothing to do\n")
            return 1
        first = next(iter(results.values()))
        settings = {key: first.get(key) for key in SETTINGS}
        refreshed = update_baselines(store, results, settings)
        baselines_path.write_text(
            json.dumps(refreshed, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        n_metrics = sum(
            len(b["series"]) for b in refreshed["benchmarks"].values()
        )
        write(
            f"baselines updated: {len(refreshed['benchmarks'])} benchmarks, "
            f"{n_metrics} metrics -> {baselines_path}\n"
        )
        return 0

    store = load_baselines(baselines_path)
    baselined = store.get("benchmarks", {})
    rows: list[tuple[str, str, str, str, str, str, str]] = []
    failures = 0
    missing_results = 0

    for name in sorted(baselined):
        bench = baselined[name]
        payload = results.get(name)
        if payload is None:
            missing_results += 1
            status = "MISSING" if strict else "skipped"
            rows.append((name, "-", "-", "-", "-", "-", status))
            if strict:
                failures += 1
            continue
        series = payload.get("series", {})
        exact = _exact(store, payload)
        for metric in sorted(bench.get("series", {})):
            base = float(bench["series"][metric])
            tol = EXACT_REL_TOL if exact else _tolerance(store, bench, metric)
            band = "exact" if exact else f"{tol * 100:.0f}%"
            if metric not in series:
                failures += 1
                rows.append(
                    (name, metric, f"{base:g}", "-", "-", band,
                     "FAIL (metric gone)")
                )
                continue
            current = float(series[metric])
            deviation = abs(current - base) / max(abs(base), EPS)
            ok = deviation <= tol
            if not ok:
                failures += 1
            rows.append(
                (
                    name,
                    metric,
                    f"{base:g}",
                    f"{current:g}",
                    f"{deviation * 100:+.1f}%".replace("+", ""),
                    band,
                    "ok" if ok else "FAIL",
                )
            )

    new_benchmarks = sorted(set(results) - set(baselined))

    headers = ("benchmark", "metric", "baseline", "current", "Δ", "tol", "status")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    write(fmt.format(*headers) + "\n")
    write("  ".join("-" * w for w in widths) + "\n")
    for row in rows:
        write(fmt.format(*row) + "\n")
    for name in new_benchmarks:
        write(f"note: {name!r} has results but no baseline "
              f"(run with --update to adopt)\n")
    if missing_results and not strict:
        write(
            f"note: {missing_results} baselined benchmark(s) produced no "
            f"{RESULT_PREFIX}*.json this run (pass --strict to fail on this)\n"
        )
    verdict = "REGRESSION" if failures else "ok"
    write(
        f"bench-compare: {len(rows)} checks, {failures} failing -> {verdict}\n"
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.benchgate",
        description="Gate benchmarks/results/BENCH_*.json against "
        "committed baselines.",
    )
    parser.add_argument("--results", default=DEFAULT_RESULTS_DIR, metavar="DIR")
    parser.add_argument("--baselines", default=DEFAULT_BASELINES, metavar="PATH")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline store from the results")
    parser.add_argument("--strict", action="store_true",
                        help="fail when a baselined benchmark has no result")
    args = parser.parse_args(argv)
    return run_compare(
        results_dir=args.results,
        baselines_path=args.baselines,
        update=args.update,
        strict=args.strict,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
