"""Regression gate semantics (repro.tools.benchgate).

These run entirely against tmp_path stores, so they are independent of
the committed benchmarks/baselines.json; the committed store itself is
validated by ``repro bench-compare`` in the CI bench-smoke job.
"""

from __future__ import annotations

import json

import pytest

from repro.tools.benchgate import (
    load_baselines,
    main,
    run_compare,
    safe_name,
    update_baselines,
)


def _write_result(results_dir, name, series, **extra):
    results_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1,
        "name": name,
        "units": "ms",
        "repro_boots": 3,
        "repro_scale": 16,
        "jitter_sigma": 0.0,
        "git_rev": "deadbee",
        "timestamp": "2026-08-06T00:00:00+00:00",
        "series": series,
    }
    payload.update(extra)
    path = results_dir / f"BENCH_{safe_name(name)}.json"
    path.write_text(json.dumps(payload))
    return path


def _write_baselines(path, benchmarks, default_rel_tol=0.15, **store):
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "default_rel_tol": default_rel_tol,
                "benchmarks": benchmarks,
                **store,
            }
        )
    )
    return path


#: the bench-smoke settings: 3 jitter-free boots per series at scale 16
SMOKE = {"repro_boots": 3, "repro_scale": 16, "jitter_sigma": 0.0}


def _drift(tmp_path, jitter):
    """Gate a 0.1% drift run at ``jitter`` against a smoke-settings store."""
    results = tmp_path / "results"
    _write_result(
        results, "fig4 cache effects", {"aws/cold/direct_ms": 10.01},
        jitter_sigma=jitter,
    )
    baselines = _write_baselines(
        tmp_path / "baselines.json",
        {"fig4 cache effects": {"units": "ms",
                                "series": {"aws/cold/direct_ms": 10.0}}},
        settings=SMOKE,
    )
    out: list[str] = []
    return run_compare(results, baselines, write=out.append), "".join(out)


def test_safe_name_matches_conftest_slugging():
    assert safe_name("fig4 cache effects") == "fig4_cache_effects"
    assert safe_name("qemu/crosscheck Run") == "qemu-crosscheck_run"


def test_within_tolerance_passes(tmp_path):
    results = tmp_path / "results"
    _write_result(results, "fig4 cache effects", {"aws/cold/direct_ms": 10.5})
    baselines = _write_baselines(
        tmp_path / "baselines.json",
        {"fig4 cache effects": {"units": "ms",
                                "series": {"aws/cold/direct_ms": 10.0}}},
    )
    out: list[str] = []
    assert run_compare(results, baselines, write=out.append) == 0
    text = "".join(out)
    assert "-> ok" in text and "FAIL" not in text


def test_doctored_result_fails_non_zero(tmp_path):
    """The ISSUE's acceptance check: a regressed metric exits non-zero."""
    results = tmp_path / "results"
    _write_result(results, "fig4 cache effects", {"aws/cold/direct_ms": 13.0})
    baselines = _write_baselines(
        tmp_path / "baselines.json",
        {"fig4 cache effects": {"units": "ms",
                                "series": {"aws/cold/direct_ms": 10.0}}},
    )
    out: list[str] = []
    assert run_compare(results, baselines, write=out.append) == 1
    assert "REGRESSION" in "".join(out)
    # the argparse entrypoint propagates the same exit code
    assert main(["--results", str(results), "--baselines", str(baselines)]) == 1


def test_drift_at_the_baseline_settings_fails(tmp_path):
    """A jitter-free run at the store's settings is a pure function of
    the code: any drift is a change, not noise."""
    code, text = _drift(tmp_path, jitter=0.0)
    assert code == 1
    assert "exact" in text and "FAIL" in text


def test_the_same_drift_at_other_settings_passes_its_band(tmp_path):
    code, text = _drift(tmp_path, jitter=0.02)
    assert code == 0
    assert "15%" in text and "FAIL" not in text


def test_missing_metric_fails(tmp_path):
    results = tmp_path / "results"
    _write_result(results, "b", {"other_ms": 1.0})
    baselines = _write_baselines(
        tmp_path / "baselines.json",
        {"b": {"units": "ms", "series": {"gone_ms": 1.0}}},
    )
    out: list[str] = []
    assert run_compare(results, baselines, write=out.append) == 1
    assert "metric gone" in "".join(out)


def test_missing_result_skips_unless_strict(tmp_path):
    results = tmp_path / "results"  # never created: no results at all
    baselines = _write_baselines(
        tmp_path / "baselines.json",
        {"b": {"units": "ms", "series": {"x_ms": 1.0}}},
    )
    assert run_compare(results, baselines, write=lambda s: None) == 0
    assert run_compare(results, baselines, strict=True,
                       write=lambda s: None) == 1


def test_per_metric_and_per_benchmark_tolerances(tmp_path):
    results = tmp_path / "results"
    _write_result(results, "b", {"loose_ms": 12.0, "tight_ms": 10.3})
    baselines = _write_baselines(
        tmp_path / "baselines.json",
        {
            "b": {
                "units": "ms",
                "series": {"loose_ms": 10.0, "tight_ms": 10.0},
                "rel_tol": 0.25,
                "tolerances": {"tight_ms": 0.02},
            }
        },
    )
    out: list[str] = []
    assert run_compare(results, baselines, write=out.append) == 1
    text = "".join(out)
    # loose_ms (+20%) passes its 25% band; tight_ms (+3%) breaks its 2% band
    assert text.count("FAIL") == 1 and "tight_ms" in text


def test_update_writes_store_and_preserves_tolerances(tmp_path):
    results = tmp_path / "results"
    _write_result(results, "b", {"x_ms": 11.0})
    baselines = _write_baselines(
        tmp_path / "baselines.json",
        {"b": {"units": "ms", "series": {"x_ms": 2.0},
               "tolerances": {"x_ms": 0.5}}},
    )
    assert run_compare(results, baselines, update=True,
                       write=lambda s: None) == 0
    store = load_baselines(baselines)
    assert store["benchmarks"]["b"]["series"] == {"x_ms": 11.0}
    assert store["benchmarks"]["b"]["tolerances"] == {"x_ms": 0.5}
    assert store["settings"]["repro_boots"] == 3
    # and the refreshed store gates its own results cleanly
    assert run_compare(results, baselines, strict=True,
                       write=lambda s: None) == 0


def test_update_with_no_results_is_an_error(tmp_path):
    baselines = _write_baselines(tmp_path / "baselines.json", {})
    assert run_compare(tmp_path / "results", baselines, update=True,
                       write=lambda s: None) == 1


def test_new_benchmark_is_noted_not_failed(tmp_path):
    results = tmp_path / "results"
    _write_result(results, "brand new", {"x_ms": 1.0})
    baselines = _write_baselines(tmp_path / "baselines.json", {})
    out: list[str] = []
    assert run_compare(results, baselines, write=out.append) == 0
    assert "no baseline" in "".join(out)


def test_bad_schema_rejected(tmp_path):
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps({"schema": 99, "benchmarks": {}}))
    with pytest.raises(ValueError):
        load_baselines(path)


def test_update_baselines_sorts_names_and_metrics():
    store = {"schema": 1, "benchmarks": {}}
    results = {
        "zeta": {"units": "ms", "series": {"b": 2, "a": 1}},
        "alpha": {"units": "ms", "series": {"z": 3}},
    }
    refreshed = update_baselines(store, results, None)
    assert list(refreshed["benchmarks"]) == ["alpha", "zeta"]
    assert list(refreshed["benchmarks"]["zeta"]["series"]) == ["a", "b"]
