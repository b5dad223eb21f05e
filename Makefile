# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install lint check typecheck test chaos chaos-net chaos-kill bench bench-show bench-recovery bench-suite bench-pairs report examples clean

install:
	pip install -e . --no-build-isolation

# Lint with ruff when it is available; offline images without it still
# get a green `make test` (the config lives in pyproject.toml).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (pip install -e '.[dev]')"; \
	fi

# Project-specific invariants (RC01..RC15, RC02 retired): the repro-check pass ships
# with the package, so this runs everywhere — no extra install needed.
check:
	PYTHONPATH=src $(PYTHON) -m repro.tools.check src tests benchmarks examples --strict

# mypy --strict over the typed perimeter (config in pyproject.toml).
# Gated like lint: offline images without mypy still get a green run.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed; skipping typecheck (pip install -e '.[dev]')"; \
	fi

test: lint check
	$(PYTHON) -m pytest tests/

# Seeded fault schedules against the real multiprocessing runtime:
# coordinator crash/recover, lossy channels, worker crashes and hangs,
# and the notice families (every Notice dropped; all duplicated/delayed).
chaos:
	$(PYTHON) -m pytest tests/test_chaos_runtime.py -q -s

# The cross-transport chaos matrix (marked slow, excluded from tier-1):
# the same seeded schedules over in-process queues AND loopback TCP,
# plus the socket-specific faults and the multi-tenant service SIGKILL
# acceptance run (two jobs in flight, resume, serial-identical optima).
chaos-net:
	$(PYTHON) -m pytest tests/test_net_chaos.py tests/test_service_crash_e2e.py -m "slow or not slow" -q -s

# The kill -9 acceptance run (marked slow, excluded from tier-1): a
# real serve process SIGKILLed mid-run, resumed from its checkpoint
# directory while the supervisor respawns SIGKILLed workers.
chaos-kill:
	$(PYTHON) -m pytest tests/test_crash_recovery_e2e.py -m "slow or not slow" -q -s

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-show:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Crash recovery: journal replay vs snapshot-only restart, plus the
# replay-latency sweep.  Regenerates BENCH_PR6.json.
bench-recovery:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_recovery.py

# The benchmark suite (benchmarks/suite/README.md): five workloads on
# real processes — serial engine, TCP fleet, multi-tenant service,
# simulator — with named end-to-end metrics and a per-layer budget.
bench-suite:
	PYTHONPATH=src $(PYTHON) -m benchmarks.suite run

# Alternating parent/change pairs of one suite workload, judged as the
# choosing-metrics guide (section 8) asks: medians, quartiles, pairs won.
#   make bench-pairs WORKLOAD=service_stream PARENT=/path/to/parent-checkout [PAIRS=10 SEED=2007]
WORKLOAD ?= service_stream
PAIRS ?= 10
SEED ?= 2007
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs WORKLOAD=... PARENT=<checkout of the parent commit>"; exit 2; }
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

report:
	$(PYTHON) -m repro.cli report

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf .pytest_cache .benchmarks build *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
