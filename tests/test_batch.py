"""BatchRunner tests: spec keying, dedup, cache, failure isolation, parity."""

import dataclasses
import hashlib
import importlib
import os
import pickle

import pytest

from repro.experiments.batch import (
    BatchRunner,
    GoldenPrintCache,
    SessionSpec,
    content_keys,
    execute_spec,
    failure_summary,
    run_sessions,
    shared_cache,
    summarize_result,
)
from repro.experiments.scenario import compile_scenario, compile_sweep, grid_scenarios
from repro.firmware.marlin import PrinterStatus
from repro.gcode.writer import write_line

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def spec(spec_factory):
    """This module's historical defaults: a noisy print of the tiny coupon."""
    return spec_factory(noise_sigma=0.0005, noise_seed=11)


class TestSessionSpecKeys:
    def test_key_is_stable(self, spec):
        assert spec().content_key() == spec().content_key()

    def test_key_changes_with_physics_fields(self, spec):
        base = spec().content_key()
        assert spec(noise_seed=12).content_key() != base
        assert spec(uart_period_ms=50).content_key() != base
        assert spec(trojan_id="T2").content_key() != base
        assert (
            spec(trojan_id="T2", trojan_params={"keep_fraction": 0.7}).content_key()
            != spec(trojan_id="T2").content_key()
        )

    def test_key_ignores_presentation_fields(self, spec):
        assert (
            spec(label="a", cacheable=True).content_key()
            == spec(label="b").content_key()
        )

    def test_key_changes_with_program(self, spec, standard_program):
        assert spec().content_key() != spec(program=standard_program).content_key()


class TestEstimatedCost:
    def test_grace_window_does_not_count(self, spec):
        # The post-kill grace window costs little wall time (T7 sessions are
        # among the cheapest), so it must not move a session up the order.
        base = spec()
        assert dataclasses.replace(base, grace_s=40.0).estimated_cost() == (
            base.estimated_cost()
        )


def _reference_key(spec: SessionSpec) -> str:
    """The per-spec hashing loop: render and hash the whole program every time."""
    digest = hashlib.sha256()
    for line in map(write_line, spec.program):
        digest.update(line.encode())
        digest.update(b"\n")
    digest.update(repr(spec.config).encode())
    params = sorted((str(k), repr(v)) for k, v in spec.trojan_params.items())
    digest.update(
        repr(
            (
                spec.noise_sigma,
                spec.noise_seed,
                spec.trojan_id,
                params,
                spec.trojan_seed,
                spec.uart_period_ms,
                spec.grace_s,
                spec.timeout_s,
                spec.trace_signals,
                spec.route_all_through_fpga,
                spec.fast_path,
            )
        ).encode()
    )
    return digest.hexdigest()


def _swept_scenarios(monkeypatch):
    """The smoke and full grids and perfbench's two scenario sets."""
    monkeypatch.syspath_prepend(os.path.join(REPO_ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    return (
        grid_scenarios("smoke")
        + grid_scenarios("full")
        + workloads.mix_scenarios(0)
        + workloads.steal_scenarios(0)
    )


def _swept_specs(monkeypatch):
    """Every spec of :func:`_swept_scenarios`."""
    return [
        spec
        for scenario in _swept_scenarios(monkeypatch)
        for spec in compile_scenario(scenario)
    ]


class TestContentKeyPass:
    def test_pass_matches_per_spec_hashing(self, monkeypatch):
        specs = _swept_specs(monkeypatch)
        reference = [_reference_key(spec) for spec in specs]
        programs = {id(spec.program) for spec in specs}
        assert len(programs) < len(specs)  # the pass has programs to share
        assert content_keys(specs) == reference
        # The memo is the hex string alone, so keyed specs still pickle
        # (to workers and shards) and carry their key across.
        for spec, key in zip(specs, reference):
            assert pickle.loads(pickle.dumps(spec)).content_key() == key

    def test_compiled_sweep_keys_match_per_spec_hashing(self, monkeypatch):
        plan = compile_sweep(_swept_scenarios(monkeypatch))
        assert list(plan.keys) == [_reference_key(spec) for spec in plan.specs]

    def test_specs_sharing_a_program_share_one_table_entry(self, spec):
        first, second = spec(noise_seed=1), spec(noise_seed=2)
        table = {}
        keys = [first.content_key(table), second.content_key(table)]
        assert list(table) == [id(first.program)]
        assert keys == [_reference_key(first), _reference_key(second)]
        assert spec(noise_seed=2).content_key() == keys[1]


class TestSummaryFidelity:
    def test_summary_matches_live_result(self, spec):
        one = spec(label="golden")
        result = execute_spec(one)
        summary = summarize_result(result, label="golden", spec_key=one.content_key())
        assert summary.status is result.status
        assert summary.completed == result.completed
        assert summary.final_counts == result.final_counts()
        assert summary.transactions == result.capture.transactions
        assert summary.capture.transactions == result.capture.transactions
        assert summary.trace is result.plant.trace
        assert summary.missed_steps == result.missed_steps

    def test_trojan_counters_harvested(self, spec):
        summary = run_sessions(
            [spec(trojan_id="T2", trojan_params={"keep_fraction": 0.5})]
        )[0]
        assert summary.trojan_id == "T2"
        assert summary.trojan_category == "PM"
        assert summary.trojan_stats.get("pulses_masked", 0) > 0


class TestBatchRunner:
    def test_serial_batch_preserves_order_and_labels(self, spec):
        specs = [
            spec(noise_seed=21, label="first"),
            spec(noise_seed=22, label="second"),
        ]
        summaries = run_sessions(specs)
        assert [s.label for s in summaries] == ["first", "second"]
        assert all(s.completed for s in summaries)
        assert summaries[0].transactions != summaries[1].transactions

    def test_identical_specs_deduplicated(self, spec):
        cache = GoldenPrintCache()
        specs = [
            spec(label="a", cacheable=True),
            spec(label="b", cacheable=True),
        ]
        summaries = BatchRunner(workers=1, cache=cache).run(specs)
        assert len(cache) == 1  # computed once
        assert summaries[0].transactions == summaries[1].transactions
        assert [s.label for s in summaries] == ["a", "b"]

    def test_cache_hit_across_batches(self, spec):
        cache = GoldenPrintCache()
        one = spec(cacheable=True)
        first = BatchRunner(workers=1, cache=cache).run([one])[0]
        assert cache.hits == 0
        second = BatchRunner(workers=1, cache=cache).run([one])[0]
        assert cache.hits == 1
        assert second.transactions == first.transactions

    def test_cache_participation_is_order_independent(self, spec):
        # Regression: a non-cacheable spec ahead of an identical cacheable
        # one used to suppress both cache lookup and population.
        cache = GoldenPrintCache()
        specs = [
            spec(label="plain", cacheable=False),
            spec(label="golden", cacheable=True),
        ]
        BatchRunner(workers=1, cache=cache).run(specs)
        assert len(cache) == 1  # populated despite the non-cacheable twin
        BatchRunner(workers=1, cache=cache).run(specs)
        assert cache.hits == 1  # and consulted on the next batch

    def test_uncacheable_specs_bypass_cache(self, spec):
        cache = GoldenPrintCache()
        BatchRunner(workers=1, cache=cache).run([spec(cacheable=False)])
        assert len(cache) == 0

    def test_cache_true_resolves_to_shared_cache(self):
        runner = BatchRunner(workers=1, cache=True)
        assert runner.cache is shared_cache()

    def test_parallel_matches_serial_exactly(self, spec):
        specs = [
            spec(noise_seed=31, label="golden"),
            spec(noise_seed=32, label="control"),
        ]
        serial = run_sessions(specs, workers=1)
        parallel = run_sessions(specs, workers=2)
        for s, p in zip(serial, parallel):
            assert s.transactions == p.transactions
            assert s.final_counts == p.final_counts
            assert s.status is p.status
            assert s.duration_s == p.duration_s
            assert s.events_dispatched == p.events_dispatched

    def test_timeout_propagates_through_batch(self, spec):
        summary = run_sessions([spec(timeout_s=1.0)])[0]
        assert summary.status is PrinterStatus.TIMED_OUT
        assert summary.timed_out
        assert not summary.completed

    def test_route_through_fpga_spec(self, spec):
        bypass, mitm = run_sessions(
            [
                spec(noise_sigma=0.0),
                spec(noise_sigma=0.0, route_all_through_fpga=True),
            ]
        )
        assert bypass.completed and mitm.completed
        assert bypass.final_counts == mitm.final_counts


class TestProgressCallback:
    """The per-completed-session hook distribution workers heartbeat from."""

    def test_serial_run_reports_each_session(self, spec):
        seen = []
        summaries = BatchRunner(workers=1).run(
            [spec(noise_seed=41), spec(noise_seed=42)], progress=seen.append
        )
        assert len(seen) == 2
        assert {s.spec_key for s in seen} == {s.spec_key for s in summaries}

    def test_parallel_run_reports_each_session(self, spec):
        seen = []
        summaries = BatchRunner(workers=2).run(
            [spec(noise_seed=43), spec(noise_seed=44)], progress=seen.append
        )
        assert len(seen) == 2
        assert {s.spec_key for s in seen} == {s.spec_key for s in summaries}

    def test_cache_hits_and_dedup_do_not_report(self, spec):
        cache = GoldenPrintCache()
        one = spec(cacheable=True, label="a")
        twin = spec(cacheable=True, label="b")
        runner = BatchRunner(workers=1, cache=cache)
        seen = []
        runner.run([one, twin], progress=seen.append)
        assert len(seen) == 1  # dedup: one execution, one progress tick
        seen.clear()
        runner.run([one], progress=seen.append)
        assert seen == []  # cache hit: nothing executed, nothing reported

    def test_failed_session_still_reports_progress(self, spec):
        seen = []
        BatchRunner(workers=1).run(
            [spec(trojan_id="T999", label="boom")], progress=seen.append
        )
        assert len(seen) == 1
        assert seen[0].failed


class TestFailureIsolation:
    """One raising session must not abandon its batch (or poison the cache)."""

    def test_serial_batch_survives_a_crashing_spec(self, spec):
        cache = GoldenPrintCache()
        specs = [
            spec(label="ok", cacheable=True),
            # An unknown trojan id raises inside execute_spec.
            spec(trojan_id="T999", label="boom", cacheable=True),
            spec(noise_seed=12, label="ok2", cacheable=True),
        ]
        summaries = BatchRunner(workers=1, cache=cache).run(specs)
        assert [s.label for s in summaries] == ["ok", "boom", "ok2"]
        assert summaries[0].completed and summaries[2].completed
        failed = summaries[1]
        assert failed.failed
        assert failed.status is PrinterStatus.FAILED
        assert "T999" in failed.error
        assert failed.transactions == []
        # Survivors are cached; the failure is not.
        assert len(cache) == 2
        assert cache.get(specs[1].content_key()) is None

    def test_parallel_batch_survives_a_crashing_spec(self, spec):
        specs = [
            spec(label="ok", cacheable=True),
            spec(trojan_id="T999", label="boom", cacheable=True),
            spec(noise_seed=12, label="ok2", cacheable=True),
        ]
        parallel = run_sessions(specs, workers=2)
        assert [s.label for s in parallel] == ["ok", "boom", "ok2"]
        assert parallel[1].failed and "T999" in parallel[1].error
        serial = run_sessions(specs, workers=1)
        for s, p in zip(serial, parallel):
            assert s.status is p.status
            assert s.transactions == p.transactions

    def test_failure_is_retried_on_the_next_batch(self, spec):
        cache = GoldenPrintCache()
        bad = spec(trojan_id="T999", cacheable=True)
        runner = BatchRunner(workers=1, cache=cache)
        assert runner.run([bad])[0].failed
        assert runner.run([bad])[0].failed
        assert cache.hits == 0  # a failure is never served from the cache

    def test_strict_mode_raises_after_caching_survivors(self, spec):
        from repro.errors import ReproError

        cache = GoldenPrintCache()
        specs = [
            spec(label="ok", cacheable=True),
            spec(trojan_id="T999", label="boom", cacheable=True),
        ]
        with pytest.raises(ReproError, match="boom.*T999"):
            run_sessions(specs, cache=cache, strict=True)
        # The survivor was still executed and cached before the raise.
        assert len(cache) == 1
        assert cache.get(specs[0].content_key()) is not None

    def test_strict_mode_is_silent_without_failures(self, spec):
        summaries = run_sessions([spec()], strict=True)
        assert summaries[0].completed

    def test_failure_summary_carries_spec_identity(self, spec):
        one = spec(trojan_id="T2", label="who")
        summary = failure_summary(one, ValueError("boom"))
        assert summary.label == "who"
        assert summary.spec_key == one.content_key()
        assert summary.trojan_id == "T2"
        assert summary.error == "ValueError: boom"
        assert not summary.completed and not summary.killed


class TestSummaryPickleBoundary:
    def test_capture_memo_is_not_serialized(self, spec):
        summary = run_sessions([spec()])[0]
        rebuilt = summary.capture  # builds the memo
        assert "_capture" in vars(summary)
        loaded = pickle.loads(pickle.dumps(summary))
        assert "_capture" not in vars(loaded)
        # The capture is rebuilt on demand from the serialized transactions.
        assert loaded.capture.transactions == rebuilt.transactions

    def test_memo_free_pickle_is_smaller(self, spec):
        summary = run_sessions([spec()])[0]
        without_memo = len(pickle.dumps(summary))
        _ = summary.capture
        with_memo_state = dict(vars(summary))  # what the old pickle shipped
        assert len(pickle.dumps(with_memo_state)) > without_memo

    def test_relabeled_copy_rebuilds_capture_independently(self, spec):
        summary = run_sessions([spec()])[0]
        _ = summary.capture
        clone = summary.relabeled("other")
        assert clone.capture.transactions == summary.capture.transactions
