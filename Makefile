# Convenience targets; all just wrap the documented commands.

PYTHON ?= python3

.PHONY: install test bench bench-paper bench-gate bench-clean fleet-bench \
	perfbench examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# mirrors the tier-1 verify command in ROADMAP.md
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

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
