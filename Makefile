# Convenience targets; all just wrap the documented commands.

PYTHON ?= python3

.PHONY: install test metrics-smoke faults-smoke serve-smoke watch-smoke \
	trace-smoke mp-smoke bench bench-paper bench-gate bench-clean \
	fleet-bench perfbench examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# mirrors the tier-1 verify command in ROADMAP.md
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# boot + small fleet, export prometheus/chrome/json telemetry, validate
metrics-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.metrics_smoke

# jitter-free fault matrix through the CLI: containment, retries,
# byte-identical determinism, zero-overhead-when-disabled
faults-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.faults_smoke

# serve control plane through the CLI: request conservation, byte-identical
# reruns, arrival-mix volume parity, warm-vs-cold p99, fault degradation
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.serve_smoke

# flight recorder through the CLI: byte-identical reruns, window tiling,
# counter conservation, SLO alert firing, entropy-audit coverage
watch-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.watch_smoke

# request tracing through the CLI: deterministic ids, exact critical-path
# conservation, alert-exemplar-to-span-tree linkage
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.trace_smoke

# multiprocess boot engine through the CLI: thread/process byte-identical
# reports, deterministic replay, persistent cache tier reused across
# invocations (second run parses zero times)
mp-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.mp_smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# paper-fidelity runs: 100 boots per series, like Section 5.1
bench-paper:
	REPRO_BOOTS=100 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# 256-VM fleet scaling sweep; writes benchmarks/results/fleet_scaling.txt
fleet-bench:
	$(PYTHON) -m pytest benchmarks/test_fleet_scaling.py --benchmark-only

# gate the freshest benchmarks/results/BENCH_*.json against the committed
# baseline store (exits non-zero on regression); see EXPERIMENTS.md
bench-gate:
	PYTHONPATH=src $(PYTHON) -m repro bench-compare

# host-clock benchmark smoke: its self-test, then every workload for 3 s,
# untraced and traced; fails unless every operation reproduced the
# layouts, oracle counts and stage ns stored in perfbench/expected.json
# and, when traced, entered every layer perfbench/layers.py requires
# (the last line's "correct")
PERFBENCH_CORRECT = tail -n 1 | $(PYTHON) -c 'import json, sys; \
	sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else \
	"perfbench: an operation did not reproduce its expected outputs")'

perfbench:
	$(PYTHON) perfbench/selftest.py
	$(PYTHON) perfbench/run.py --workload all --seconds 3 | tee /dev/stderr \
		| $(PERFBENCH_CORRECT)
	$(PYTHON) perfbench/run.py --workload all --seconds 3 --trace 1 \
		| tee /dev/stderr | $(PERFBENCH_CORRECT)

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

# benchmarks/baselines.json lives OUTSIDE results/ precisely so these
# cleanup targets can never delete the committed baseline store
bench-clean:
	rm -rf benchmarks/results

clean: bench-clean
	rm -rf build dist src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
