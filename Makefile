# Developer entry points. numpy is the one third-party runtime dep;
# ruff is optional (the lint target degrades to a syntax check without it).

PYTHONPATH := src
export PYTHONPATH

# Where `make smoke` / `make serve` persist the session cache. CI points this
# at the actions/cache-restored directory; locally it lives untracked in
# the repo root (see .gitignore).
REPRO_CI_CACHE_DIR ?= .repro-session-cache

.PHONY: test lint lint-det lint-tests bench sweep smoke smoke-parity speed-gate examples ci serve

test:
	python -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks scripts; \
	else \
		echo "ruff not installed (pip install ruff); falling back to a syntax check"; \
		python -m compileall -q src tests benchmarks scripts; \
	fi

# The in-repo determinism & wire-safety analyzer (src/repro/analysis/lint):
# DET001-DET004 guard the byte-identical-verdict contract (no builtin
# hash() keying, no unseeded RNG, no wall clock in sim code, no bare set
# iteration feeding serialization); WIRE001/WIRE002 guard the pickle wire
# format (atomic writes via repro.util, vetted wire-class fields); the
# cross-file contract rules (CACHE001 cache-key completeness, WIRE003
# wire-schema drift vs. the committed .repro-wire-schema.json baseline,
# CONC001 TOCTOU, CONC002 lock consistency, DET005 detector conformance)
# check the project model as a whole. Non-baselined findings fail; entries
# in .repro-lint-baseline.json warn (refresh: `repro lint --update-baseline`).
# Rule docs: `python -m repro lint --rules`.
lint-det:
	python -m repro lint

# The test tree under the relaxed `tests` profile: wall-clock/RNG/set-order
# rules off (tests measure wall time and use throwaway randomness on
# purpose), atomic-write + TOCTOU + contract rules still on.
lint-tests:
	python -m repro lint --profile tests

# Micro-benchmarks. With pytest-benchmark installed these report timing
# stats; without it, benchmarks/conftest.py substitutes a pass-through
# `benchmark` fixture so the suite still runs as a plain correctness check
# (pytest-benchmark stays optional).
bench:
	python -m pytest benchmarks/ -q

# sweep's nonzero exit means "detection gap reported", not "crash" — don't
# fail the make run over it.
sweep:
	python -m repro sweep --grid full --workers 0 || \
		echo "sweep exited $$? — a detection gap or false positive is reported above"

# The incremental smoke sweep: persistent session cache + CSV/HTML reports
# (written under benchmarks/out/, not the repo root; both are gitignored).
# A warm cache makes this a zero-resimulation no-op; unlike `make sweep`,
# a detection gap here IS a failure (the smoke grid must stay green).
smoke:
	python -m repro sweep --grid smoke \
		--cache-dir $(REPRO_CI_CACHE_DIR) \
		--csv benchmarks/out/smoke-sweep.csv \
		--html benchmarks/out/smoke-sweep.html

# Run the sweep service locally on the stdlib WSGI server.
serve:
	python -m repro serve --cache-dir $(REPRO_CI_CACHE_DIR)

# Verdict parity across topologies: one cold serial reference CSV for the
# smoke grid, then the distributed (`--hosts 2 --workers 2` + payload shrink
# floor + warm repeat), service (HTTP submit/poll/report + store dedup) and
# elastic work-stealing (throttled stragglers + a late-joining worker)
# checks must each reproduce it byte for byte. Every check uses its own
# fresh cache dirs. Numbers merge into benchmarks/out/smoke_parity.txt.
smoke-parity:
	python scripts/smoke.py --record benchmarks/out/smoke_parity.txt \
		distrib service steal

# Fast-path throughput non-regression gate: re-measures the smoke grid's
# cold sessions/sec through the vectorized fast path and fails if it drops
# below the floor recorded in benchmarks/bench_session_speed.py.
speed-gate:
	python benchmarks/bench_session_speed.py --check

# Every user-facing example script, run to completion; the first non-zero
# exit fails the target. logic_analyzer.py is the path to the Tracer, the
# one recorder of signal timing (peak frequency, narrowest pulse).
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python "$$script" > /dev/null || exit 1; \
	done

# Mirrors .github/workflows/ci.yml step for step so CI and dev runs stay in
# lockstep: lint -> determinism/contract lint (src + test profile) ->
# tier-1 tests -> incremental smoke sweep -> verdict parity smoke
# (distributed, service, work stealing) -> fast-path speed gate -> examples.
ci: lint lint-det lint-tests test smoke smoke-parity speed-gate examples
