"""Distribution tests: sharding, worker and coordinator loops, requeue, merge parity.

The properties that make ``repro sweep --hosts N [--workers M]`` trustworthy
(the queue backends themselves are pinned by ``test_transport_contract.py``):

* cost-balanced, deterministic sharding — golden-grouped scenario LPT
  with host-filling splits, numbered heaviest-first;
* a *version-skewed* payload fails loud at the coordinator and is skipped
  by workers instead of being executed, merged, or silently re-queued;
* a worker executes claimed shards as one parallel failure-isolated batch,
  beating its heartbeat per completed session, so worker-internal
  parallelism never reads as a wedge — while a genuinely hung worker still
  forfeits its claims;
* worker-side scoring ships verdict rows + digests whose verdicts match
  coordinator-side scoring exactly, at a fraction of the payload bytes;
* the coordinator re-queues a dead worker's shard and the merged batch
  still matches the single-host run bit for bit;
* a warm shared cache makes a repeat distributed run a zero-worker no-op.
"""

import glob
import os
import sys
import tempfile
import textwrap
import threading
import time

import pytest

from repro.detection.protocol import ScoreSpec
from tests.conftest import corrupt_file, corrupt_pickle
from repro.errors import ReproError
from repro.experiments.batch import SessionCache, run_sessions
from repro.experiments.distrib import (
    PAYLOAD_SHRINK_FLOOR,
    Coordinator,
    ScenarioJob,
    SessionDigest,
    WorkShard,
    Worker,
    _group_cost,
    sanitize_worker_id,
    scenario_shards,
)
from repro.experiments.transport import (
    WIRE_FORMAT,
    InMemoryTransport,
    WorkDir,
)
from repro.experiments.transport_http import HttpTransport


@pytest.fixture
def spec(spec_factory):
    """This module's defaults: noise-free, cacheable tiny-coupon specs."""
    return spec_factory(noise_sigma=0.0, cacheable=True)


def _job(index, spec, *, name=None, golden=None, detectors=("golden",), **suspect):
    """A scenario job over ``spec``-made sessions with a golden comparison."""
    name = name or f"sc{index}"
    golden = golden if golden is not None else spec(label=f"{name}/golden")
    suspect.setdefault("noise_sigma", 0.0005)
    suspect.setdefault("noise_seed", 100 + index)
    return ScenarioJob(
        index=index,
        name=name,
        golden=golden,
        suspect=spec(label=f"{name}/suspect", **suspect),
        score=ScoreSpec.for_detectors(detectors),
    )


# Simulation is deterministic, so one in-process cache serves every test's
# local reference runs.
_REFERENCE = SessionCache()


def _assert_rows_match_local(rows, jobs):
    """Distributed rows equal scoring every job's sessions in-process."""
    assert [row.index for row in rows] == [job.index for job in jobs]
    summaries = run_sessions(
        [s for job in jobs for s in (job.golden, job.suspect)], cache=_REFERENCE
    )
    for row, job, golden, suspect in zip(
        rows, jobs, summaries[0::2], summaries[1::2]
    ):
        local = job.score.score_pair(golden, suspect)
        assert {k: v.as_dict() for k, v in row.verdicts.items()} == {
            k: v.as_dict() for k, v in local.items()
        }
        assert row.golden == SessionDigest.from_summary(golden)
        assert row.suspect == SessionDigest.from_summary(suspect)


class TestScenarioSharding:
    def test_jobs_sharing_a_golden_stay_together(self, spec):
        goldens = [spec(label=f"g{i}", grace_s=float(i + 1)) for i in range(12)]
        jobs = [
            _job(index=2 * i + j, spec=spec, golden=golden, name=f"sc{i}-{j}")
            for i, golden in enumerate(goldens)
            for j in range(2)
        ]
        # Twelve golden groups over two hosts' eight shards.
        shards = scenario_shards(jobs, 2)
        assert len(shards) == 8
        assert sorted(job.index for shard in shards for job in shard) == list(
            range(24)
        )
        # No golden key appears in more than one shard.
        placements = {}
        for shard_index, shard in enumerate(shards):
            for job in shard:
                placements.setdefault(job.golden.content_key(), set()).add(
                    shard_index
                )
        assert all(len(where) == 1 for where in placements.values())

    def test_single_golden_group_splits_to_fill_hosts(self, spec):
        golden = spec(label="g")
        jobs = [_job(index=i, spec=spec, golden=golden) for i in range(6)]
        shards = scenario_shards(jobs, 2)
        # One golden group would idle a host; it is split instead —
        # duplicating the golden once is the deliberate trade.
        assert len(shards) == 2
        assert all(shard for shard in shards)
        assert sorted(job.index for shard in shards for job in shard) == list(
            range(6)
        )

    def test_shards_past_the_hosts_never_split_a_golden(self, spec):
        # Stealable shards past one per host are whole golden groups; a
        # golden is split (and simulated twice) only to fill a host.
        golden = spec(label="g")
        alone = [_job(index=i, spec=spec, golden=golden) for i in range(9)]
        assert len(scenario_shards(alone, 2)) == 2
        goldens = [spec(label=f"g{i}", noise_seed=i) for i in range(3)]
        jobs = [_job(index=i, spec=spec, golden=goldens[i % 3]) for i in range(9)]
        shards = scenario_shards(jobs, 2)
        assert len(shards) == 3
        assert sorted(
            {job.golden.content_key() for job in shard}.pop() for shard in shards
        ) == sorted(g.content_key() for g in goldens)

    def test_never_more_shards_than_jobs(self, spec):
        golden = spec(label="g")
        jobs = [_job(index=i, spec=spec, golden=golden) for i in range(2)]
        assert len(scenario_shards(jobs, 8)) == 2
        assert scenario_shards([], 4) == []

    def test_shards_come_out_heaviest_first(self, spec):
        # Distinct UART rates give the suspects distinct costs; shard ids
        # (and so the claim order) must run from the costliest group down.
        goldens = [spec(label=f"g{i}", noise_seed=i) for i in range(3)]
        jobs = [
            _job(i, spec, golden=goldens[i % 3], uart_period_ms=10 * (i + 1))
            for i in range(9)
        ]
        costs = [_group_cost(shard) for shard in scenario_shards(jobs, 4)]
        assert len(set(costs)) == 4
        assert costs == sorted(costs, reverse=True)

    def test_deterministic(self, spec):
        jobs = [_job(index=i, spec=spec) for i in range(5)]
        first = [[j.index for j in shard] for shard in scenario_shards(jobs, 3)]
        second = [[j.index for j in shard] for shard in scenario_shards(jobs, 3)]
        assert first == second


class TestWorkerIds:
    def test_sanitized_for_filenames(self):
        assert sanitize_worker_id("host@!/evil id") == "host---evil-id"
        assert sanitize_worker_id("node.local-42") == "node.local-42"
        assert sanitize_worker_id("") == "worker"


class TestWireFormatSkew:
    """A payload from a different protocol version must fail loud.

    Corruption (torn writes) degrades to a re-queue/re-simulation; a
    *cleanly readable* envelope carrying another version means some host
    runs different code — deserializing its payload would score garbage,
    and silently re-queueing would loop forever.
    """

    @staticmethod
    def _write_envelope(path, fmt, payload=None):
        corrupt_pickle(path, {"format": fmt, "payload": payload})

    def test_collect_done_fails_loud_never_requeues(self, spec, tmp_path):
        work = WorkDir(str(tmp_path))
        shards = {0: WorkShard(0, (_job(0, spec),))}
        self._write_envelope(
            os.path.join(str(tmp_path), "done", "shard-0000.pkl"), WIRE_FORMAT + 1
        )
        coordinator = Coordinator(hosts=1, spawn_local=False)
        with pytest.raises(ReproError, match="incompatible"):
            coordinator._collect_done(work, shards, {}, {})
        # Crucially it did NOT silently re-enqueue the shard: that would
        # collect the same skewed result forever.
        assert work.pending_ids() == []

    def test_corrupt_done_degrades_to_requeue(self, spec, tmp_path):
        work = WorkDir(str(tmp_path))
        shards = {0: WorkShard(0, (_job(0, spec),))}
        corrupt_file(
            os.path.join(str(tmp_path), "done", "shard-0000.pkl"),
            b"torn write garbage",
        )
        done = {}
        Coordinator(hosts=1, spawn_local=False)._collect_done(
            work, shards, done, {}
        )
        assert done == {}
        assert work.pending_ids() == [0]  # re-enqueued

    def test_worker_skips_incompatible_shard_without_executing(self, tmp_path):
        work = WorkDir(str(tmp_path))
        self._write_envelope(
            os.path.join(str(tmp_path), "pending", "shard-0000.pkl"),
            WIRE_FORMAT + 1,
        )
        worker = Worker(work, worker_id="w1", idle_timeout_s=0.0)
        assert worker.run() == 0
        assert work.pending_ids() == [0]
        assert work.done_ids() == []


@pytest.mark.slow
class TestWorker:
    def test_executes_claimed_shard_and_publishes(self, spec, tmp_path):
        work = WorkDir(str(tmp_path / "work"))
        jobs = (_job(0, spec),)
        work.enqueue(WorkShard(0, jobs))
        worker = Worker(work, worker_id="w1", idle_timeout_s=0.0)
        assert worker.run() == 1
        result, _ = work.load_result(0)
        assert result.worker_id == "w1"
        assert result.failures == 0
        assert result.sessions == 2
        assert work.heartbeat_mtime("w1") is not None
        # Parity with an in-process run and scoring of the same jobs.
        _assert_rows_match_local(result.rows, jobs)

    def test_sessions_count_only_what_the_worker_ran(self, spec, tmp_path):
        cache_dir = str(tmp_path / "cache")
        job = _job(0, spec)
        run_sessions([job.golden], cache=SessionCache(cache_dir))
        work = WorkDir(str(tmp_path / "work"))
        work.enqueue(WorkShard(0, (job,)))
        worker = Worker(work, worker_id="w1", cache=cache_dir, idle_timeout_s=0.0)
        assert worker.run() == 1
        result, _ = work.load_result(0)
        assert result.sessions == 1  # the golden came from the cache
        _assert_rows_match_local(result.rows, (job,))

    def test_scenario_shard_ships_verdict_rows_not_summaries(self, spec, tmp_path):
        work = WorkDir(str(tmp_path / "work"))
        job = _job(index=7, spec=spec)
        work.enqueue(WorkShard(0, jobs=(job,)))
        assert Worker(work, worker_id="w1", idle_timeout_s=0.0).run() == 1
        result, _ = work.load_result(0)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.index == 7
        assert row.golden.completed and row.suspect.completed
        assert set(row.verdicts) == {"golden"}
        assert row.verdicts["golden"].report is None
        assert result.sessions == 2
        # The row's verdicts match scoring the same sessions locally.
        golden, suspect = run_sessions([job.golden, job.suspect])
        local = job.score.score_pair(golden, suspect)
        assert {k: v.as_dict() for k, v in row.verdicts.items()} == {
            k: v.as_dict() for k, v in local.items()
        }

    def test_shared_golden_digests_keep_each_jobs_label(self, spec, tmp_path):
        """Two jobs whose goldens share a content key (labels differ) are
        deduplicated by the batch runner — but each row's digest must still
        carry that job's own label, exactly as coordinator-side scoring
        would report it."""
        work = WorkDir(str(tmp_path / "work"))
        jobs = tuple(
            ScenarioJob(
                index=i,
                name=name,
                golden=spec(label=f"{name}/golden"),
                suspect=spec(
                    label=f"{name}/suspect",
                    noise_sigma=0.0005,
                    noise_seed=200 + i,
                ),
                score=ScoreSpec.for_detectors(("golden",)),
            )
            for i, name in enumerate(("a", "b"))
        )
        work.enqueue(WorkShard(0, jobs=jobs))
        assert Worker(work, worker_id="w1", idle_timeout_s=0.0).run() == 1
        result, _ = work.load_result(0)
        assert [row.golden.label for row in result.rows] == [
            "a/golden",
            "b/golden",
        ]
        assert [row.suspect.label for row in result.rows] == [
            "a/suspect",
            "b/suspect",
        ]
        assert result.sessions == 3  # shared golden executed once

    def test_shard_sharing_a_golden_scores_like_serial(self, spec, tmp_path):
        """Both jobs are scored by one fitted detector set per golden; each
        row still equals scoring its job alone, in-process."""
        work = WorkDir(str(tmp_path / "work"))
        golden = spec(label="shared/golden")
        detectors = ("golden", "realtime", "sidechannel", "quality")
        jobs = (
            _job(0, spec, golden=golden, detectors=detectors),
            _job(1, spec, golden=golden, detectors=detectors, trojan_id="T2"),
        )
        work.enqueue(WorkShard(0, jobs=jobs))
        assert Worker(work, worker_id="w1", idle_timeout_s=0.0).run() == 1
        result, _ = work.load_result(0)
        assert result.sessions == 3
        assert [row.verdicts["quality"].trojan_likely for row in result.rows] == [
            False,
            True,
        ]
        _assert_rows_match_local(result.rows, jobs)

    def test_shared_failed_golden_counts_as_one_failure(self, spec, tmp_path):
        work = WorkDir(str(tmp_path / "work"))
        jobs = tuple(
            ScenarioJob(
                index=i,
                name=name,
                golden=spec(label=f"{name}/golden", trojan_id="T999"),
                suspect=spec(
                    label=f"{name}/suspect",
                    noise_sigma=0.0005,
                    noise_seed=210 + i,
                ),
                score=ScoreSpec.for_detectors(("golden",)),
            )
            for i, name in enumerate(("a", "b"))
        )
        work.enqueue(WorkShard(0, jobs=jobs))
        assert Worker(work, worker_id="w1", idle_timeout_s=0.0).run() == 1
        result, _ = work.load_result(0)
        assert all(row.golden.failed for row in result.rows)
        assert result.failures == 1  # one failed session, not one per row
        for row in result.rows:  # every job sharing it still gets its row
            assert row.verdicts["golden"].detail.startswith(
                "not scored: golden session failed"
            )

    def test_crashing_spec_becomes_failed_summary_not_dead_worker(
        self, spec, tmp_path
    ):
        work = WorkDir(str(tmp_path / "work"))
        jobs = (_job(0, spec, golden=spec(trojan_id="T999")),)
        work.enqueue(WorkShard(0, jobs))
        assert Worker(work, worker_id="w1", idle_timeout_s=0.0).run() == 1
        result, _ = work.load_result(0)
        assert result.failures == 1
        row = result.rows[0]
        assert row.golden.failed and "T999" in row.golden.error
        assert all("session failed" in v.detail for v in row.verdicts.values())
        _assert_rows_match_local(result.rows, jobs)

    def test_crashing_scenario_session_becomes_failed_digest(self, spec, tmp_path):
        work = WorkDir(str(tmp_path / "work"))
        job = _job(index=0, spec=spec, trojan_id="T999", noise_sigma=0.0)
        work.enqueue(WorkShard(0, jobs=(job,)))
        assert Worker(work, worker_id="w1", idle_timeout_s=0.0).run() == 1
        result, _ = work.load_result(0)
        assert result.failures == 1
        row = result.rows[0]
        assert row.suspect.failed and "T999" in row.suspect.error
        assert not row.golden.failed
        for verdict in row.verdicts.values():
            assert not verdict.trojan_likely
            assert "session failed" in verdict.detail

    def test_worker_honors_stop(self, tmp_path):
        work = WorkDir(str(tmp_path / "work"))
        work.stop()
        assert Worker(work, worker_id="w1").run() == 0

    def test_stop_beats_leftover_pending_work(self, spec, tmp_path):
        # Shards orphaned by an aborted coordinator are abandoned work:
        # a worker must exit on STOP without executing them.
        work = WorkDir(str(tmp_path / "work"))
        work.enqueue(WorkShard(0, (_job(0, spec, name="orphan"),)))
        work.stop()
        assert Worker(work, worker_id="w1").run() == 0
        assert work.done_ids() == []
        assert work.pending_ids() == [0]


@pytest.mark.slow
class TestHeartbeatUnderParallelism:
    def test_worker_beats_per_completed_session_mid_shard(self, spec, tmp_path):
        """A parallel shard is one BatchRunner call, yet the heartbeat must
        keep ticking mid-shard: the per-session progress callback is what
        keeps a live worker from reading as wedged."""
        work = WorkDir(str(tmp_path / "work"))
        jobs = tuple(_job(i, spec, noise_seed=50 + i) for i in range(2))
        work.enqueue(WorkShard(0, jobs))
        worker = Worker(work, worker_id="w1", idle_timeout_s=0.0, workers=2)
        claim = work.claim(0, "w1")
        beats = []
        original = work.beat
        work.beat = lambda worker_id: (beats.append(worker_id), original(worker_id))
        result = worker.execute(claim)
        # One beat at shard start + one per completed session (the shared
        # golden executes once) + one per scored job.
        assert result.sessions == 1 + len(jobs)
        assert len(beats) == 1 + result.sessions + len(jobs)
        assert set(beats) == {"w1"}
        _assert_rows_match_local(result.rows, jobs)

    def test_advancing_heartbeat_survives_any_shard_length(
        self, tmp_path, monkeypatch
    ):
        """The staleness check, driven deterministically: as long as the
        heartbeat mtime keeps advancing (which per-completion beats
        guarantee mid-shard), a worker is never condemned no matter how
        long its shard runs — while a frozen heartbeat is condemned once
        heartbeat_timeout_s of coordinator time passes."""
        import repro.experiments.distrib as distrib

        work = WorkDir(str(tmp_path))
        heart = os.path.join(str(tmp_path), "hearts", "w1")
        coordinator = Coordinator(
            hosts=1, spawn_local=False, heartbeat_timeout_s=5.0
        )
        clock = [0.0]
        monkeypatch.setattr(distrib.time, "monotonic", lambda: clock[0])
        work.beat("w1")
        hb_seen = {}
        # Hours of coordinator time, but the mtime advances between checks
        # (a completion beat landed): never dead.
        for step in range(1, 10):
            os.utime(heart, (step, step))
            assert not coordinator._worker_dead(work, "w1", {}, set(), hb_seen)
            clock[0] += 3600.0
        # One final beat anchors the staleness timer at the current clock;
        # then the heartbeat freezes (hung worker) and the worker is
        # condemned only after heartbeat_timeout_s of coordinator time.
        os.utime(heart, (100, 100))
        assert not coordinator._worker_dead(work, "w1", {}, set(), hb_seen)
        clock[0] += 4.9
        assert not coordinator._worker_dead(work, "w1", {}, set(), hb_seen)
        clock[0] += 0.2
        assert coordinator._worker_dead(work, "w1", {}, set(), hb_seen)

    def test_hung_worker_still_forfeits_claims(self, spec, sweep_env, tmp_path):
        """Per-completion beats must not shield a *genuinely* wedged worker:
        a process that claims a shard, then stops beating — while staying
        alive — goes heartbeat-stale and forfeits the claim."""
        wedge = tmp_path / "wedge.py"
        wedge.write_text(
            textwrap.dedent(
                """
                import sys, time
                from repro.experiments.transport import WorkDir

                work = WorkDir(sys.argv[1])
                work.beat("wedge")
                while True:
                    for shard_id in work.pending_ids():
                        if work.claim(shard_id, "wedge"):
                            time.sleep(600)  # hang: alive, never beating again
                    time.sleep(0.01)
                """
            )
        )

        class Sabotaged(Coordinator):
            spawned_wedge = False

            def _worker_command(self, work, worker_id):
                if not Sabotaged.spawned_wedge:
                    Sabotaged.spawned_wedge = True
                    return [sys.executable, str(wedge), work.root]
                # Delay every real worker so the wedge deterministically
                # wins a claim before hanging.
                return [
                    sys.executable,
                    "-c",
                    "import subprocess, sys, time; time.sleep(4.0); "
                    "sys.exit(subprocess.call(sys.argv[1:]))",
                    *super()._worker_command(work, worker_id),
                ]

        jobs = [_job(0, spec), _job(1, spec, noise_seed=7)]
        started = time.monotonic()
        coordinator = Sabotaged(
            hosts=2,
            cache=sweep_env.cache(),
            transport=sweep_env.work_dir(),
            heartbeat_timeout_s=2.0,
            timeout_s=240,
        )
        result = coordinator.run(jobs)
        assert time.monotonic() - started < 200  # finished well before timeout
        assert result.requeues >= 1
        _assert_rows_match_local(result.rows, jobs)


class TestTransportFaultInjection:
    """Queue faults beyond one filesystem: kills, races, forfeits, steals.

    The liveness machinery (`_worker_dead`, `_requeue_dead_claims`) takes
    any :class:`~repro.experiments.transport.Transport`; these tests pin
    that a dead claimer's shard re-queues identically on every backend,
    that the HTTP backend's conditional-UPDATE claims stay exclusive under
    a real multi-connection race, and that heartbeat forfeiture works when
    "heartbeat mtime" is a server-side beat counter rather than a file.
    """

    @pytest.fixture(params=["fs", "memory", "http"])
    def any_transport(self, request, tmp_path, shard_server):
        if request.param == "fs":
            backend = WorkDir(str(tmp_path / "work"))
        elif request.param == "memory":
            backend = InMemoryTransport.named(f"faults-{request.node.name}")
        else:
            queue = request.node.name.replace("[", ".").replace("]", "")
            backend = HttpTransport(f"{shard_server}/queues/{queue}")
        backend.reset()
        return backend

    def test_killed_claimer_requeues_identically(self, spec, any_transport):
        """A claim whose worker's process exit was observed is forfeit."""
        work = any_transport
        work.enqueue(WorkShard(0, (_job(0, spec),)))
        work.beat("ghost")
        claim = work.claim(0, "ghost")
        assert claim is not None
        coordinator = Coordinator(hosts=1, spawn_local=False)
        requeued = coordinator._requeue_dead_claims(work, {}, {}, {"ghost"}, {})
        assert requeued == 1
        assert work.pending_ids() == [0]
        assert work.claims() == []
        # The shard round-trips intact: the next claimer gets the same work.
        again = work.claim(0, "w2")
        assert again is not None
        assert again.shard.shard_id == 0
        assert len(again.shard.jobs) == 1

    def test_claimer_that_never_beat_is_forfeited(self, spec, any_transport):
        """External workers beat before their first claim, so a claim with
        no heartbeat at all has outlived its owner — on every backend."""
        work = any_transport
        work.enqueue(WorkShard(1, (_job(1, spec),)))
        assert work.claim(1, "vanished") is not None
        coordinator = Coordinator(hosts=1, spawn_local=False)
        requeued = coordinator._requeue_dead_claims(work, {}, {}, set(), {})
        assert requeued == 1
        assert work.pending_ids() == [1]

    def test_duplicate_claim_race_over_http(self, spec, shard_server):
        """Distinct client connections racing one shard: the SQLite
        conditional UPDATE lets exactly one win, same as a rename."""
        claimers = [
            HttpTransport(f"{shard_server}/queues/dup-race") for _ in range(8)
        ]
        claimers[0].reset()
        claimers[0].enqueue(WorkShard(0, (_job(0, spec),)))
        barrier = threading.Barrier(len(claimers))
        wins, errors = [], []

        def race(index):
            barrier.wait()
            try:
                claim = claimers[index].claim(0, f"host{index}")
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)
                return
            if claim is not None:
                wins.append(index)

        threads = [
            threading.Thread(target=race, args=(index,))
            for index in range(len(claimers))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(wins) == 1
        assert claimers[0].claims() == [(0, f"host{wins[0]}")]

    def test_heartbeat_forfeiture_over_http(
        self, spec, shard_server, monkeypatch
    ):
        """Beat counters advance like mtimes: a beating worker is never
        condemned however long it runs, a frozen one forfeits its claim
        after heartbeat_timeout_s of *coordinator* clock."""
        import repro.experiments.distrib as distrib

        work = HttpTransport(f"{shard_server}/queues/hb-forfeit")
        work.reset()
        work.enqueue(WorkShard(0, (_job(0, spec),)))
        clock = [0.0]
        monkeypatch.setattr(distrib.time, "monotonic", lambda: clock[0])
        coordinator = Coordinator(
            hosts=1, spawn_local=False, heartbeat_timeout_s=5.0
        )
        hb_seen = {}
        work.beat("w1")
        assert work.claim(0, "w1") is not None
        assert not coordinator._worker_dead(work, "w1", {}, set(), hb_seen)
        # Hours of coordinator time, but the counter advances: never dead.
        for _ in range(3):
            clock[0] += 3600.0
            work.beat("w1")
            assert not coordinator._worker_dead(work, "w1", {}, set(), hb_seen)
        # Frozen counter: condemned only once the timeout elapses.
        clock[0] += 4.9
        assert not coordinator._worker_dead(work, "w1", {}, set(), hb_seen)
        clock[0] += 0.2
        assert coordinator._worker_dead(work, "w1", {}, set(), hb_seen)
        assert (
            coordinator._requeue_dead_claims(work, {}, {}, set(), hb_seen) == 1
        )
        assert work.pending_ids() == [0]

    @pytest.mark.slow
    def test_late_joiner_steals_from_straggling_sweep(self, spec, sweep_env):
        """Elastic rebalance, end to end: a straggler works a many-shard
        queue slowly; a worker that joins mid-sweep claims from the same
        queue and demonstrably takes shards off the straggler's plate —
        and the merged result still matches the serial run."""
        goldens = [spec(label=f"shared/golden{g}", noise_seed=g) for g in range(4)]
        jobs = [_job(i, spec, golden=goldens[i % 4]) for i in range(8)]
        queue = InMemoryTransport.named("steal-late-joiner")
        queue.reset()
        cache = sweep_env.cache()

        class Straggler(Worker):
            def _claim_next(self):
                time.sleep(0.4)  # every claim costs: a slow host
                return super()._claim_next()

        executed = {}

        def run_worker(cls, worker_id, delay_s=0.0):
            time.sleep(delay_s)
            worker = cls(queue, worker_id, cache=cache, poll_s=0.05)
            executed[worker_id] = worker.run()

        coordinator = Coordinator(
            hosts=2,
            spawn_local=False,
            transport=queue,
            cache=cache,
            timeout_s=240,
        )
        threads = [
            threading.Thread(target=run_worker, args=(Straggler, "straggler")),
            threading.Thread(target=run_worker, args=(Worker, "late", 1.2)),
        ]
        for thread in threads:
            thread.start()
        result = coordinator.run(jobs)
        for thread in threads:
            thread.join(timeout=120)
        # Four golden groups make four shards: finer than one per host.
        assert result.shards > 2
        assert executed["straggler"] >= 1
        assert executed["late"] >= 1, "the late joiner never stole a shard"
        workers_seen = {h["worker"] for h in result.host_stats}
        assert {"straggler", "late"} <= workers_seen
        _assert_rows_match_local(result.rows, jobs)

    @pytest.mark.slow
    def test_http_sweep_removes_its_worker_log_dir(
        self, spec, sweep_env, shard_server, tmp_path, monkeypatch
    ):
        """Spawned workers of a backend without a work dir log into a temp
        dir the coordinator owns — and removes when the run ends."""
        made = []
        mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        jobs = [_job(0, spec)]
        result = Coordinator(
            hosts=1,
            cache=sweep_env.cache(),
            transport=f"{shard_server}/queues/log-dir",
            timeout_s=240,
        ).run(jobs)
        _assert_rows_match_local(result.rows, jobs)
        logs = [path for path in made if "repro-worker-logs-" in path]
        assert len(logs) == 1 and os.path.dirname(logs[0]) == str(tmp_path)
        assert glob.glob(str(tmp_path / "repro-worker-logs-*")) == []


@pytest.mark.slow
class TestCoordinator:
    def _jobs(self, spec):
        """A clean and a T2 job over one shared golden: three sessions."""
        return [
            _job(0, spec),
            _job(1, spec, trojan_id="T2", trojan_params={"keep_fraction": 0.5}),
        ]

    def test_distributed_matches_serial(self, spec, sweep_env):
        jobs = self._jobs(spec)
        result = Coordinator(
            hosts=2,
            cache=sweep_env.cache(),
            transport=sweep_env.work_dir(),
            timeout_s=240,
        ).run(jobs)
        _assert_rows_match_local(result.rows, jobs)
        assert result.shards == 2
        assert result.sessions_dispatched == 3
        assert result.payload_bytes > 0
        # The golden group is split to fill both hosts, so each half needs
        # the shared golden: both run it, unless one worker's shard starts
        # after the other wrote it to the shared cache dir.
        assert sum(h["sessions"] for h in result.host_stats) in (3, 4)
        assert all(h["failures"] == 0 for h in result.host_stats)

        # Warm repeat over the same cache dir: nothing dispatched, nothing
        # spawned, rows identical.
        warm_cache = sweep_env.cache()
        again = Coordinator(
            hosts=2,
            cache=warm_cache,
            transport=sweep_env.work_dir("work2"),
            timeout_s=60,
        ).run(jobs)
        assert again.sessions_dispatched == 0
        assert again.shards == 0
        assert warm_cache.misses == 0
        assert again.rows == result.rows

    def test_reused_work_dir_is_safe_across_sweeps(self, spec, sweep_env):
        """README documents a fixed shared --transport path; stale state (done
        files, STOP, claims) from sweep N must not corrupt sweep N+1."""
        work_dir = sweep_env.work_dir()
        jobs = self._jobs(spec)
        first = Coordinator(
            hosts=2,
            cache=sweep_env.cache("cache-a"),
            transport=work_dir,
            timeout_s=240,
        ).run(jobs)
        # A fresh cache dir forces full re-execution through the same
        # (now stale: STOP + done files) work dir.
        second = Coordinator(
            hosts=2,
            cache=sweep_env.cache("cache-b"),
            transport=work_dir,
            timeout_s=240,
        ).run(jobs)
        assert second.sessions_dispatched == 3
        assert second.rows == first.rows
        _assert_rows_match_local(second.rows, jobs)

    def test_coordinator_writes_no_cache_entry_during_dispatched_sweep(
        self, spec, sweep_env
    ):
        """The workers own the cache writes; the coordinator only reads."""
        cache = sweep_env.cache()
        writes = []
        original_store = cache._store_to_disk

        def counting_store(key, summary):
            writes.append(key)
            original_store(key, summary)

        cache._store_to_disk = counting_store
        jobs = self._jobs(spec)[:1]
        result = Coordinator(
            hosts=1,
            cache=cache,
            transport=sweep_env.work_dir(),
            timeout_s=240,
        ).run(jobs)
        assert result.sessions_dispatched == 2
        _assert_rows_match_local(result.rows, jobs)
        # The worker subprocess persisted both entries; the coordinator
        # wrote nothing itself.
        assert all(cache.has_on_disk(s.content_key()) for s in (jobs[0].golden, jobs[0].suspect))
        assert writes == []

    def test_duplicate_specs_executed_once_and_relabeled(self, spec, sweep_env):
        jobs = [
            _job(0, spec, name="first", noise_seed=7),
            _job(1, spec, name="second", noise_seed=7),
        ]
        result = Coordinator(
            hosts=2,
            cache=sweep_env.cache(),
            transport=sweep_env.work_dir(),
            timeout_s=240,
        ).run(jobs)
        assert result.sessions_dispatched == 2
        assert [row.suspect.label for row in result.rows] == [
            "first/suspect",
            "second/suspect",
        ]
        _assert_rows_match_local(result.rows, jobs)

    def test_killed_worker_shard_is_requeued(self, spec, sweep_env, tmp_path):
        """A worker that dies holding a claim must not sink the batch."""
        wedge = tmp_path / "wedge.py"
        wedge.write_text(
            textwrap.dedent(
                """
                import os, sys, time
                from repro.experiments.transport import WorkDir

                work = WorkDir(sys.argv[1])
                work.beat("wedge")
                while True:
                    for shard_id in work.pending_ids():
                        if work.claim(shard_id, "wedge"):
                            os._exit(1)  # die holding the claim
                    time.sleep(0.01)
                """
            )
        )

        class Sabotaged(Coordinator):
            spawned_wedge = False

            def _worker_command(self, work, worker_id):
                if not Sabotaged.spawned_wedge:
                    Sabotaged.spawned_wedge = True
                    return [sys.executable, str(wedge), work.root]
                # Delay every real worker so the wedge deterministically
                # wins a claim before dying.
                return [
                    sys.executable,
                    "-c",
                    "import subprocess, sys, time; time.sleep(4.0); "
                    "sys.exit(subprocess.call(sys.argv[1:]))",
                    *super()._worker_command(work, worker_id),
                ]

        jobs = self._jobs(spec)
        coordinator = Sabotaged(
            hosts=2,
            cache=sweep_env.cache(),
            transport=sweep_env.work_dir(),
            heartbeat_timeout_s=2.0,
            timeout_s=240,
        )
        result = coordinator.run(jobs)
        assert result.requeues >= 1
        _assert_rows_match_local(result.rows, jobs)

    def test_lost_pool_drains_inline(self, spec, sweep_env):
        """With no spawnable workers at all, the coordinator finishes alone."""
        coordinator = Coordinator(
            hosts=2,
            cache=sweep_env.cache(),
            transport=sweep_env.work_dir(),
            spawn_local=True,
            max_respawns=0,
            timeout_s=240,
        )
        # Sabotage every spawn into an instant exit.
        def instant_exit(work, worker_id):
            return [sys.executable, "-c", "raise SystemExit(1)"]

        coordinator._worker_command = instant_exit
        jobs = self._jobs(spec)
        result = coordinator.run(jobs)
        _assert_rows_match_local(result.rows, jobs)
        assert any(
            h["worker"] == "coordinator-inline" for h in result.host_stats
        )


@pytest.mark.slow
class TestScoredDistribution:
    """Verdict shipping: worker-side scoring, digests, payload economics."""

    def _jobs(self, spec, detectors=("golden",)):
        golden = spec(label="shared/golden")
        return [
            _job(index=i, spec=spec, golden=golden, detectors=detectors)
            for i in range(3)
        ]

    def test_scored_verdicts_match_local_scoring(self, spec, sweep_env):
        jobs = self._jobs(spec)
        result = Coordinator(
            hosts=2,
            cache=sweep_env.cache(),
            transport=sweep_env.work_dir(),
            timeout_s=240,
        ).run(jobs)
        assert result.payload_bytes > 0
        assert result.sessions_dispatched == 4  # shared golden counted once
        _assert_rows_match_local(result.rows, jobs)
        assert all(row.golden.completed and row.suspect.completed for row in result.rows)

    def test_warm_cache_scores_on_the_coordinator(self, spec, sweep_env):
        jobs = self._jobs(spec)
        first = Coordinator(
            hosts=2,
            cache=sweep_env.cache(),
            transport=sweep_env.work_dir(),
            timeout_s=240,
        ).run(jobs)
        warm_cache = sweep_env.cache()
        again = Coordinator(
            hosts=2,
            cache=warm_cache,
            transport=sweep_env.work_dir("work2"),
            timeout_s=60,
        ).run(jobs)
        # Nothing dispatched, nothing spawned, zero payload — and the
        # coordinator-side scoring of cached pairs yields the same verdicts.
        assert again.sessions_dispatched == 0
        assert again.shards == 0
        assert again.payload_bytes == 0
        assert warm_cache.misses == 0
        for a, b in zip(first.rows, again.rows):
            assert {k: v.as_dict() for k, v in a.verdicts.items()} == {
                k: v.as_dict() for k, v in b.verdicts.items()
            }

    def test_corrupt_cached_entry_dispatches_instead_of_scoring_garbage(
        self, spec, sweep_env
    ):
        """Coordinator.run probes presence without validating contents; a probe
        that lied (torn cache entry) must turn into a dispatch + worker
        re-simulation, never a wrong or missing row."""
        jobs = self._jobs(spec)
        first = Coordinator(
            hosts=2,
            cache=sweep_env.cache(),
            transport=sweep_env.work_dir(),
            timeout_s=240,
        ).run(jobs)
        suspect_key = jobs[1].suspect.content_key()
        path = os.path.join(sweep_env.path("cache"), f"{suspect_key}.summary.pkl")
        assert os.path.exists(path)
        corrupt_file(path, b"torn write garbage")
        again = Coordinator(
            hosts=2,
            cache=sweep_env.cache(),
            transport=sweep_env.work_dir("work2"),
            timeout_s=240,
        ).run(jobs)
        assert again.sessions_dispatched == 1  # exactly the corrupted session
        for a, b in zip(first.rows, again.rows):
            assert {k: v.as_dict() for k, v in a.verdicts.items()} == {
                k: v.as_dict() for k, v in b.verdicts.items()
            }

    def test_verdict_payload_is_many_times_smaller_than_summaries(
        self, spec, sweep_env
    ):
        jobs = self._jobs(spec)
        cache = sweep_env.cache()
        scored = Coordinator(
            hosts=2,
            cache=cache,
            transport=sweep_env.work_dir(),
            timeout_s=240,
        ).run(jobs)
        # What full summaries would have shipped: the files the workers
        # wrote into the sweep's fresh shared cache dir.
        summary_bytes = cache.disk_bytes()
        assert scored.payload_bytes > 0 and summary_bytes > 0
        # The acceptance bar is >= 5x on the full grid; even this 4-session
        # micro-batch clears it by a wide margin.
        assert summary_bytes >= PAYLOAD_SHRINK_FLOOR * scored.payload_bytes


@pytest.mark.slow
class TestDistributedSweep:
    def test_run_sweep_hosts_matches_single_host_verdicts(self, sweep_env):
        from repro.experiments.scenario import grid_scenarios, run_sweep

        scenarios = grid_scenarios("smoke")
        serial = run_sweep(
            scenarios,
            cache=sweep_env.cache("serial-cache"),
            grid="smoke",
        )
        distributed = run_sweep(
            scenarios,
            cache=sweep_env.cache("distrib-cache"),
            grid="smoke",
            hosts=2,
            workers=2,
            transport=sweep_env.work_dir(),
        )
        assert distributed.ok == serial.ok
        assert distributed.sessions_simulated == serial.sessions_simulated
        assert distributed.payload_bytes > 0
        assert len(distributed.host_stats) >= 1
        for a, b in zip(serial.outcomes, distributed.outcomes):
            assert {k: v.as_dict() for k, v in a.verdicts.items()} == {
                k: v.as_dict() for k, v in b.verdicts.items()
            }

        # The acceptance criterion: a repeat over the same cache dir
        # simulates zero sessions and keeps the verdicts.
        repeat = run_sweep(
            scenarios,
            cache=sweep_env.cache("distrib-cache"),
            grid="smoke",
            hosts=2,
            workers=2,
            transport=sweep_env.work_dir("work2"),
        )
        assert repeat.sessions_simulated == 0
        assert repeat.cache_misses == 0
        assert repeat.ok == serial.ok
