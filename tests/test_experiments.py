"""Figure runners (Appendix A: E1–E5, plus Table 1)."""

import functools
import json
import pathlib

import pytest

from repro.experiments import (
    EXPERIMENTS,
    Env,
    run_experiment,
    table1_kernel_sizes,
)

FAST = Env(boots=2, scale=64)
FIGURES = {"table1": table1_kernel_sizes, **EXPERIMENTS}
BASELINES = pathlib.Path(__file__).parent.parent / "benchmarks" / "baselines.json"


@functools.cache
def _run(figure_id):
    return FIGURES[figure_id](FAST)


def test_registry_complete():
    assert set(EXPERIMENTS) == {"e1", "e2", "e3", "e4", "e5"}


def test_unknown_experiment():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("e9")


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_series_are_the_ones_the_bench_gate_holds(figure_id):
    """A renamed or dropped series fails here, not only in bench-smoke."""
    figure = _run(figure_id)
    store = json.loads(BASELINES.read_text())["benchmarks"]
    assert set(figure.series) == set(store[figure.name]["series"])
    assert figure.units == store[figure.name]["units"]


def test_e1_lz4_fastest():
    result = _run("e1")
    by_kernel = {}
    for kernel, codec, mean, _min, _max, _decompress in result.rows:
        by_kernel.setdefault(kernel, {})[codec] = mean
    for codecs in by_kernel.values():
        assert min(codecs, key=codecs.get) == "lz4"


def test_e2_cache_effects_rows():
    result = _run("e2")
    assert len(result.rows) == 6  # 3 kernels x {cold, cached}
    assert all(len(row) == 7 for row in result.rows)
    winners = {(r[0], r[1]): r[5] for r in result.rows}
    for kernel in ("lupine", "aws", "ubuntu"):
        assert winners[(kernel, "cold")] == "bzImage"
        assert winners[(kernel, "cached")] == "direct"
    assert "Figure 4" in result.table


def test_e3_ordering():
    result = _run("e3")
    by_kernel = {}
    for kernel, method, ms, _min, _max in result.rows:
        by_kernel.setdefault(kernel, {})[method] = ms
    for methods in by_kernel.values():
        assert (
            methods["none"] > methods["lz4"] > methods["none-optimized"]
            > methods["uncompressed"]
        )


def test_e4_in_monitor_wins():
    result = _run("e4")
    assert all(len(row) == 10 for row in result.rows)
    totals = {(r[0], r[1], r[2]): r[3] for r in result.rows}
    for kernel in ("lupine", "aws", "ubuntu"):
        for mode in ("kaslr", "fgkaslr"):
            assert (
                totals[(kernel, mode, "uncompressed")]
                < totals[(kernel, mode, "compression-none")]
                < totals[(kernel, mode, "lz4")]
            )


def test_e5_lebench_means():
    result = _run("e5")
    mean_row = result.rows[-1]
    assert mean_row[0] == "== mean =="
    assert float(mean_row[1]) == pytest.approx(1.0, abs=0.01)
    assert 1.0 < float(mean_row[2]) < 1.2


def test_cli_experiment(capsys):
    """``repro experiment`` prints the runner's table at the benches'
    default jitter."""
    from repro.cli import main

    assert main(["experiment", "e2", "--boots", "2", "--scale", "64"]) == 0
    assert capsys.readouterr().out == _run("e2").table + "\n"


def test_cli_lebench_prints_the_figure_11_runner(capsys):
    """Only the layouts matter, so jitter and boots leave the table alone."""
    from repro.cli import main

    assert main(["lebench", "--scale", "64"]) == 0
    assert capsys.readouterr().out == _run("e5").table + "\n"
