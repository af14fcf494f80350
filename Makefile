# Developer entry points. numpy is the one third-party runtime dep;
# ruff is optional (the lint target degrades to a syntax check without it).

PYTHONPATH := src
export PYTHONPATH

# Where `make ci` / `make smoke` persist the session cache. CI points this
# at the actions/cache-restored directory; locally it lives untracked in
# the repo root (see .gitignore).
REPRO_CI_CACHE_DIR ?= .repro-session-cache

.PHONY: test lint lint-det lint-tests bench sweep smoke smoke-service smoke-distrib smoke-steal speed-gate ci serve

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

# Service smoke: drive the sweep service end-to-end in-process (WSGI app +
# SQLite job store): submit the smoke grid over HTTP, poll to completion,
# assert the served report.csv is byte-identical to the `make smoke` CSV,
# and assert a warm resubmission (same instance AND a second instance over
# the same store file) is answered from the store with 0 sessions simulated.
# Runs after `make smoke` so the reference CSV and session cache are warm.
smoke-service:
	python scripts/smoke_service.py \
		--cache-dir $(REPRO_CI_CACHE_DIR) \
		--record benchmarks/out/smoke-service.txt

# Run the sweep service locally on the stdlib WSGI server.
serve:
	python -m repro serve --cache-dir $(REPRO_CI_CACHE_DIR)

# Distributed smoke parity: the smoke grid through serial, `--hosts 2
# --workers 2` (worker-side scoring, verdict-row payloads) and a warm repeat
# must yield byte-identical verdict CSVs; the repeat must simulate nothing
# and the verdict payload must be >= 5x smaller than the summary files the
# workers wrote into the shared cache dir. The measured bytes are recorded
# in benchmarks/out/.
smoke-distrib:
	python scripts/smoke_distrib.py --workers 2 \
		--record benchmarks/out/distributed_sweep.txt

# Elastic work-stealing smoke: the smoke grid over the HTTP shard-queue
# transport (in-process service), two throttled straggler workers, and one
# real late-joining `repro worker <url>` subprocess. The late joiner must
# steal >= 1 shard and shorten the straggling sweep; verdict CSVs stay
# byte-identical to serial and the warm repeat simulates 0 sessions.
smoke-steal:
	python scripts/smoke_steal.py \
		--record benchmarks/out/steal_sweep.txt

# Fast-path throughput non-regression gate: re-measures the smoke grid's
# cold sessions/sec through the vectorized fast path and fails if it drops
# below the floor recorded in benchmarks/bench_session_speed.py.
speed-gate:
	python benchmarks/bench_session_speed.py --check

# Mirrors .github/workflows/ci.yml step for step so CI and dev runs stay in
# lockstep: lint -> determinism/contract lint (src + test profile) ->
# tier-1 tests -> incremental smoke sweep -> service smoke (HTTP parity +
# store dedup) -> distributed smoke parity -> elastic work-stealing smoke
# -> fast-path speed gate.
ci: lint lint-det lint-tests test smoke smoke-service smoke-distrib smoke-steal speed-gate
