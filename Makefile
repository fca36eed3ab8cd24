PYTHON ?= python
PYTHONPATH := src

.PHONY: test lint lint-program typecheck coverage refresh-golden figures matrix matrix-smoke stream-smoke obs-smoke fleet-smoke scoreboard-smoke

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Determinism/API-contract AST lint (docs/STATIC_ANALYSIS.md); exits
# nonzero on any violation.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis src tests benchmarks scripts

# Whole-program (interprocedural) analysis: lock discipline, RNG/seed
# provenance, cross-class contracts — gated on the committed
# .repro-lint-baseline.json (new findings fail; fixed findings report
# stale entries).  See docs/STATIC_ANALYSIS.md.
lint-program:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis --program src tests benchmarks scripts

# mypy gate (strict on repro.core/stream/perf — see [tool.mypy] in
# pyproject.toml).  Skips gracefully where mypy isn't installed; CI
# always installs it.
typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping typecheck (pip install mypy)"; \
	fi

# Tier-1 suite with a coverage floor on the robustness-critical
# packages (streaming twin + fault harness).  Skips gracefully where
# pytest-cov isn't installed; CI always installs it.
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q \
			--cov=repro.stream --cov=repro.faults --cov=repro.fleet \
			--cov-report=term-missing --cov-fail-under=80; \
	else \
		echo "pytest-cov not installed; skipping coverage (pip install pytest-cov)"; \
	fi

# Recompute the committed golden-master digest fixtures
# (tests/golden/*.json).  Run only after an intentional behaviour
# change, then commit the diff.
refresh-golden:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/refresh_golden.py --all

figures:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli all

# Full tariff x attack x PV scenario matrix at smoke scale
# (docs/SCENARIOS.md): JSON artifact + ASCII table + schema validation.
matrix:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro sweep-matrix --preset smoke \
		--out matrix_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/validate_matrix.py matrix_smoke.json

# 2x2 quick grid (CI's matrix-smoke job).
matrix-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro sweep-matrix --preset smoke \
		--quick --slots 24 --out matrix_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/validate_matrix.py matrix_smoke.json

# Pump a short synthetic detection stream end to end (CI smoke).
stream-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro stream --preset smoke --days 2

# Traced stream run + artifact validation (CI's obs-smoke job): writes
# trace.json (open in Perfetto) and audit.jsonl, then checks the trace
# shape, the audit schema, and a Prometheus render/parse round trip.
obs-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro stream --preset smoke --days 2 \
		--trace-out trace.json --audit audit.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/validate_obs.py \
		--trace trace.json --audit audit.jsonl

# Fleet-vs-sequential bitwise equivalence suite (CI's fleet-smoke job;
# see docs/FLEET.md).
fleet-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_fleet_equivalence.py -x -q

# Campaign fleet + resilience scoreboard + merged fleet trace (CI's
# scoreboard-smoke job): serve a traced fleet with announced attacks,
# drain it over HTTP, scrape /scoreboard and the Prometheus series,
# then validate the scoreboard merge and the Chrome-trace pid/tid grid.
scoreboard-smoke:
	@set -e; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fleet serve \
		--communities 3 --shards 2 --days 2 --port 8051 \
		--campaign --trace --trace-out fleet_trace.json & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 60); do \
		curl -sf localhost:8051/healthz >/dev/null 2>&1 && break; sleep 1; \
	done; \
	curl -s -X POST localhost:8051/advance -d '{"until_day": 2}' >/dev/null; \
	curl -sf localhost:8051/scoreboard > scoreboard.json; \
	curl -sf localhost:8051/trace > fleet_trace_live.json; \
	kill $$SERVE_PID; wait $$SERVE_PID 2>/dev/null || true; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/validate_obs.py \
		--scoreboard scoreboard.json --fleet-trace fleet_trace_live.json \
		--skip-prometheus; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/validate_obs.py \
		--fleet-trace fleet_trace.json --skip-prometheus; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro trace fleet_trace.json
