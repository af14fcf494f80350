"""Cross-host sweep distribution: shard, execute and score anywhere, merge.

The spec/summary boundary is picklable and the :class:`SessionCache` is
content-keyed on disk, so a sweep no longer has to run on one host: this
module shards a sweep's *pending* scenarios (the ones the cache cannot
serve) across worker hosts by estimated cost (longest-expected-first,
balanced bins, shared goldens grouped), executes and scores each shard
through the existing :class:`~repro.experiments.batch.BatchRunner`, and
merges the returned verdict rows back into one result.

The queue itself — claim/requeue/done/heartbeat/STOP, the wire envelope
and every backend, including the shared-filesystem work dir
(:class:`~repro.experiments.transport.WorkDir`, whose docstring shows the
file layout) — lives in :mod:`repro.experiments.transport`. This module
owns only the protocol's *participants*: the coordinator and worker loops,
both backend-agnostic, so the same loops run unchanged over a shared
directory, an HTTP shard queue, or an in-process registry.

Fault tolerance: the coordinator watches each claimed shard's worker. A
worker whose process has exited (local transport) or whose heartbeat has
gone stale (any transport) forfeits its claim — the shard is re-queued by
returning it to pending and another worker picks it up. If the
local worker pool dies entirely, the coordinator drains the remaining
shards inline, so a sweep completes as long as the coordinator itself
survives.

Shards are scenario-level :class:`ScenarioJob`\\ s carrying a picklable
:class:`~repro.detection.protocol.ScoreSpec`; the worker executes *and
scores* each scenario, and the result payload is verdict rows plus
per-session :class:`SessionDigest` metadata — orders of magnitude smaller
than full summaries for big grids, since transaction streams and fan
profiles never travel. Full summaries land only in the shared
``--cache-dir``, written by the workers themselves.

Each worker runs its whole shard through one *parallel*
:class:`~repro.experiments.batch.BatchRunner` batch (``--hosts N`` and
``--workers M`` compose multiplicatively), ticking its heartbeat from the
batch's per-session completion callback so the coordinator still sees
forward progress mid-shard.

Entry points:

* :class:`Coordinator` — what ``repro sweep --hosts N`` drives;
* :class:`Worker` — the claim/execute/report loop behind the standalone
  ``repro worker <target>`` command, which is how real remote hosts join
  a sweep (point them at a shared work dir — or the coordinator's
  ``http://host:port/queues/...`` shard queue — plus a cache dir).

Sharding has one mode: the coordinator enqueues up to
:data:`STEAL_SHARD_FACTOR` small shards per host, numbered heaviest-first
(see :func:`scenario_shards`: golden groups are split only to give every
host a shard, so a shared golden is simulated at most once per host), and
elastic **work stealing** falls out of the greedy claim loop: whichever
worker is idle — including a host that joined mid-sweep — claims the
heaviest pending shard, so stragglers shed load instead of stranding it.
Merged results are keyed by job index, so verdict CSVs are byte-identical
across every topology × backend combination.
"""

from __future__ import annotations

import os
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.detection.protocol import FittedDetectors, ScoreSpec, Verdict
from repro.errors import ReproError
from repro.experiments.batch import (
    BatchRunner,
    CacheOption,
    SessionSpec,
    SessionSummary,
    resolve_cache,
)
from repro.experiments.transport import (
    Claim,
    Transport,
    WireFormatError,
    WorkDir,
    create_transport,
)
from repro.firmware.marlin import PrinterStatus

PAYLOAD_SHRINK_FLOOR = 5.0
"""Verdict rows must undercut the summaries they stand in for by this factor.

A distributed sweep's ``payload_bytes`` (the verdict rows that travelled
back) is compared against the size of the summary files its workers wrote
into the sweep's fresh shared cache dir — the bytes that would have
travelled had the workers shipped full summaries. The policy number the CI
parity script, the distribution benchmark and the payload test all enforce;
it lives here so retuning it (e.g. after a summary-schema change) cannot
desynchronize the checks.
"""

STEAL_SHARD_FACTOR = 4
"""Most shards the :class:`Coordinator` carves per host.

Small enough that per-shard protocol overhead (claims, done payloads)
stays negligible, large enough that a straggling host strands at most
~1/4 of its fair share before an idle worker steals the rest.
"""

@dataclass(frozen=True)
class SessionDigest:
    """The wire-sized reduction of a :class:`SessionSummary`.

    Everything the sweep/report layer reads off a scored scenario's
    sessions — status, duration, failure text — without the transaction
    stream, deposition trace, or fan profile that make full summaries
    heavy. This is the per-session metadata that travels back from a
    worker.
    """

    label: str
    spec_key: str
    status: PrinterStatus
    kill_reason: Optional[str]
    timed_out: bool
    duration_s: float
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status is PrinterStatus.DONE

    @property
    def failed(self) -> bool:
        return self.status is PrinterStatus.FAILED

    @classmethod
    def from_summary(
        cls, summary: SessionSummary, label: Optional[str] = None
    ) -> "SessionDigest":
        return cls(
            label=summary.label if label is None else label,
            spec_key=summary.spec_key,
            status=summary.status,
            kill_reason=summary.kill_reason,
            timed_out=summary.timed_out,
            duration_s=summary.duration_s,
            error=summary.error,
        )


@dataclass(frozen=True)
class ScenarioJob:
    """One scenario as worker-executable work: sessions + scoring recipe.

    Ships the *compiled* golden/suspect :class:`SessionSpec`\\ s rather
    than the scenario name, so the worker never needs the coordinator's
    part/attack registries (ad-hoc parts and runtime-registered variant
    attacks included); the :class:`ScoreSpec` likewise carries detector
    names + parameters, never live detectors.
    """

    index: int
    name: str
    golden: SessionSpec
    suspect: SessionSpec
    score: ScoreSpec

    def estimated_cost(self) -> float:
        return self.golden.estimated_cost() + self.suspect.estimated_cost()


@dataclass
class ScenarioVerdicts:
    """One scored scenario as it travels back from a worker."""

    index: int
    verdicts: Dict[str, Verdict]
    golden: SessionDigest
    suspect: SessionDigest


def _score_job(
    job: ScenarioJob,
    golden: SessionSummary,
    suspect: SessionSummary,
    fitted: FittedDetectors,
) -> ScenarioVerdicts:
    """Score one job's sessions into the wire row shape.

    The same call runs worker-side (fresh summaries) and coordinator-side
    (cache-served summaries), so where a scenario happens to be scored can
    never change its verdicts. ``fitted`` is the calling pass's table (one
    shard, or one coordinator's local scoring), so jobs sharing a golden
    share its fitted detectors. Reports are stripped eagerly: rows must
    carry exactly what the wire carries.
    """
    verdicts = {
        name: verdict.without_report()
        for name, verdict in job.score.score_pair(golden, suspect, fitted).items()
    }
    return ScenarioVerdicts(
        index=job.index,
        verdicts=verdicts,
        golden=SessionDigest.from_summary(golden, label=job.golden.label),
        suspect=SessionDigest.from_summary(suspect, label=job.suspect.label),
    )


@dataclass(frozen=True)
class WorkShard:
    """One worker-sized slice of a sweep: the scenario jobs to run and score."""

    shard_id: int
    jobs: Tuple[ScenarioJob, ...] = ()


@dataclass
class ShardResult:
    """What a worker ships back for one executed shard.

    ``rows`` holds one :class:`ScenarioVerdicts` per job; ``sessions`` is
    the number of sessions the worker ran for this shard, sessions served
    from its cache excluded (for per-host economics).
    """

    shard_id: int
    worker_id: str
    wall_clock_s: float
    rows: List[ScenarioVerdicts] = field(default_factory=list)
    sessions: int = 0

    @property
    def failures(self) -> int:
        """Unique failed sessions in this shard.

        Keyed by spec key so a failed golden shared by several scenario
        rows counts once.
        """
        return len(
            {
                digest.spec_key
                for row in self.rows
                for digest in (row.golden, row.suspect)
                if digest.failed
            }
        )


def _lpt_bins(items: Sequence[Any], bins: int, cost) -> List[List[Any]]:
    """Greedy LPT: descending-cost items onto the currently-lightest bin.

    Deterministic (stable sort, lowest-index tie-break), so the same batch
    shards the same way on every run.
    """
    bins = max(1, min(bins, len(items)))
    loads = [0.0] * bins
    out: List[List[Any]] = [[] for _ in range(bins)]
    ordered = sorted(range(len(items)), key=lambda i: cost(items[i]), reverse=True)
    for index in ordered:
        lightest = min(range(bins), key=lambda b: (loads[b], b))
        out[lightest].append(items[index])
        loads[lightest] += cost(items[index])
    return [group for group in out if group]


def _group_cost(jobs: Sequence[ScenarioJob]) -> float:
    """A job group's cost with shared goldens counted once, not per job."""
    total = 0.0
    seen: Set[str] = set()
    for job in jobs:
        total += job.suspect.estimated_cost()
        key = job.golden.content_key()
        if key not in seen:
            seen.add(key)
            total += job.golden.estimated_cost()
    return total


def scenario_shards(
    jobs: Sequence[ScenarioJob], hosts: int
) -> List[List[ScenarioJob]]:
    """Split scenario jobs into cost-balanced groups, heaviest first.

    Jobs sharing a golden print stay together: whole golden groups are
    LPT-binned into at most ``hosts ×`` :data:`STEAL_SHARD_FACTOR` shards,
    so each shard's :class:`BatchRunner` simulates its golden once. Only
    while there are fewer shards than ``hosts`` is the heaviest one split,
    duplicating one golden per split — a deliberate trade of one redundant
    simulation for a host that would otherwise idle. The shards past
    ``hosts`` are there to be stolen and never cost a duplicate golden.

    The groups come out in non-increasing :func:`_group_cost`, so the
    coordinator's shard ids — and with them the order workers claim in —
    start at the most expensive shard.
    """
    if not jobs:
        return []
    groups: Dict[str, List[ScenarioJob]] = {}
    for job in jobs:
        groups.setdefault(job.golden.content_key(), []).append(job)
    binned = _lpt_bins(
        list(groups.values()), hosts * STEAL_SHARD_FACTOR, _group_cost
    )
    shards = [[job for group in shard for job in group] for shard in binned]
    while len(shards) < min(hosts, len(jobs)):
        splittable = [i for i, shard in enumerate(shards) if len(shard) > 1]
        heaviest = max(splittable, key=lambda i: (_group_cost(shards[i]), -i))
        halves = _lpt_bins(shards[heaviest], 2, lambda j: j.estimated_cost())
        shards[heaviest : heaviest + 1] = halves
    return sorted(shards, key=_group_cost, reverse=True)


def sanitize_worker_id(worker_id: str) -> str:
    """Worker ids become file-name components; keep them unambiguous."""
    return re.sub(r"[^A-Za-z0-9_.-]", "-", worker_id) or "worker"


def default_worker_id() -> str:
    return sanitize_worker_id(f"{socket.gethostname()}-{os.getpid()}")


class Worker:
    """The claim → execute → report loop one host runs.

    Executes each claimed shard as **one** :class:`BatchRunner` batch —
    parallel across ``workers`` processes when asked, deduplicated and
    cost-scheduled within the shard, failure-isolated (a raising session
    becomes a FAILED summary, never a dead worker) — ticking its heartbeat
    from the batch's per-session completion callback, so the coordinator
    sees forward progress even while the whole shard is in flight. Each
    scenario is then *scored* here: detectors are built from the shipped
    :class:`~repro.detection.protocol.ScoreSpec` and only verdict rows +
    session digests travel back. Exits when the coordinator writes
    ``STOP``, or — with ``idle_timeout_s`` — after the queue has stayed
    empty that long.
    """

    def __init__(
        self,
        transport: Union[str, Transport],
        worker_id: Optional[str] = None,
        cache: CacheOption = None,
        poll_s: float = 0.2,
        idle_timeout_s: Optional[float] = None,
        workers: Optional[int] = 1,
    ) -> None:
        # A Transport instance joins as-is; a string resolves by scheme —
        # a filesystem path, http://host/queues/..., or memory://name —
        # which is also how `repro worker <target>` accepts any backend.
        self.work = create_transport(transport)
        self.worker_id = sanitize_worker_id(worker_id or default_worker_id())
        self.poll_s = poll_s
        self.idle_timeout_s = idle_timeout_s
        self.runner = BatchRunner(workers=workers, cache=cache)
        # Pending shards whose wire format this worker cannot speak: left in
        # the queue for a compatible worker, never re-claimed, never executed.
        self._incompatible: Set[int] = set()
        self._completed = 0  # sessions run for the shard in flight

    def run(self) -> int:
        """Serve the queue until STOP (or idle timeout); returns shards done."""
        executed = 0
        idle_since = time.monotonic()
        while True:
            self.work.beat(self.worker_id)
            if self.work.stop_requested():
                # STOP beats a non-empty queue: shards left pending after a
                # coordinator abort are abandoned work — nobody will ever
                # collect their results.
                break
            claim = self._claim_next()
            if claim is None:
                if (
                    self.idle_timeout_s is not None
                    and time.monotonic() - idle_since >= self.idle_timeout_s
                ):
                    break
                time.sleep(self.poll_s)
                continue
            self.execute(claim)
            executed += 1
            idle_since = time.monotonic()
        return executed

    def _claim_next(self) -> Optional[Claim]:
        for shard_id in self.work.pending_ids():
            if shard_id in self._incompatible:
                continue
            try:
                claim = self.work.claim(shard_id, self.worker_id)
            except WireFormatError as exc:
                # The shard went back to pending; remember it so this loop
                # doesn't spin on it, and say so in the worker log.
                self._incompatible.add(shard_id)
                print(
                    f"worker {self.worker_id}: skipping shard {shard_id}: {exc}",
                    flush=True,
                )
                continue
            if claim is None:
                continue
            if isinstance(claim.shard, WorkShard):
                return claim
            # A well-formed envelope around something that is not a shard
            # (the HTTP queue accepts any PUT body): never execute it.
            self.work.abandon(shard_id, self.worker_id)
        return None

    def _beat(self, _summary: SessionSummary) -> None:
        """Per-ran-session progress hook (cache hits skip it): count, beat."""
        self._completed += 1
        self.work.beat(self.worker_id)

    def execute(self, claim: Claim) -> ShardResult:
        """Run and score one claimed shard."""
        # repro: lint-ignore[DET003] shard wall-clock economics (host_stats reporting), never verdict content
        started = time.perf_counter()
        self.work.beat(self.worker_id)
        self._completed = 0
        jobs = claim.shard.jobs
        specs = [spec for job in jobs for spec in (job.golden, job.suspect)]
        executed = self.runner.run(specs, progress=self._beat)
        rows: List[ScenarioVerdicts] = []
        fitted: FittedDetectors = {}
        for job, golden, suspect in zip(jobs, executed[0::2], executed[1::2]):
            # Scoring a big shard takes real wall clock after the last
            # session completes; keep beating so the coordinator's
            # staleness window stays bounded by one scenario, not one
            # shard.
            self.work.beat(self.worker_id)
            rows.append(_score_job(job, golden, suspect, fitted))
        result = ShardResult(
            shard_id=claim.shard.shard_id,
            worker_id=self.worker_id,
            wall_clock_s=time.perf_counter() - started,  # repro: lint-ignore[DET003] economics
            rows=rows,
            sessions=self._completed,
        )
        self.work.complete(claim, result)
        return result


@dataclass
class ScoredResult:
    """Merged outcome of one distributed sweep.

    ``rows`` is ordered by job index — one entry per input scenario job,
    whether it was scored worker-side or (cache-served pairs) by the
    coordinator itself. ``payload_bytes`` is the total size of the result
    payloads collected, i.e. what actually travelled back.
    """

    rows: List[ScenarioVerdicts]
    host_stats: List[Dict[str, Any]] = field(default_factory=list)
    requeues: int = 0
    shards: int = 0
    sessions_dispatched: int = 0
    payload_bytes: int = 0


class Coordinator:
    """Shard a sweep's scenario jobs across worker hosts; merge their verdicts.

    ``transport`` is the shard queue: a :class:`Transport`, a target
    string (a work-dir path, ``http://...`` or ``memory://...``), or
    ``None`` for a throwaway temp work dir per run. With
    ``spawn_local=True`` (the default) the coordinator spawns ``hosts``
    local worker subprocesses (``repro worker <target>``). External workers
    started by hand against the same queue join it; ``spawn_local=False``
    relies on them entirely.

    Failure handling, in escalating order:

    * a worker whose *process* exited (local transport) or whose
      *heartbeat* went stale forfeits its claims — each is re-queued and
      another worker picks it up;
    * a dead local worker is replaced while the respawn budget
      (``max_respawns``, default ``hosts``) lasts;
    * if every local worker is gone and the budget is spent, the
      coordinator drains the remaining queue inline — a sweep fails only
      if the coordinator itself dies.

    ``heartbeat_timeout_s`` must exceed the wall clock of the longest
    *single* session (workers beat per completed session, not during one):
    a live worker mid-session beats nothing, and declaring it dead leads
    to harmless but wasteful double execution of its shard. The 300 s
    default clears every session in the registered grids by a wide margin.

    ``workers`` is the per-host :class:`BatchRunner` process count — the
    ``--hosts N --workers M`` composition: total parallelism is N×M, and a
    worker mid-parallel-shard still beats on every session completion, so
    internal parallelism cannot get a live worker condemned as wedged.
    """

    def __init__(
        self,
        hosts: int = 2,
        cache: CacheOption = None,
        heartbeat_timeout_s: float = 300.0,
        poll_s: float = 0.1,
        spawn_local: bool = True,
        max_respawns: Optional[int] = None,
        timeout_s: Optional[float] = None,
        workers: Optional[int] = 1,
        transport: Optional[Union[str, Transport]] = None,
    ) -> None:
        self.hosts = max(1, hosts)
        self.cache = resolve_cache(cache)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.poll_s = poll_s
        self.spawn_local = spawn_local
        self.max_respawns = self.hosts if max_respawns is None else max_respawns
        self.timeout_s = timeout_s
        self.workers = workers
        self.transport = transport

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[ScenarioJob]) -> ScoredResult:
        """Execute and *score* scenario jobs; only verdict rows travel back.

        The cache is *probed* (presence only, nothing deserialized) once
        per unique session key; full summaries are loaded only for jobs
        whose golden **and** suspect are both present — those are scored
        right here, so a warm repeat dispatches nothing and spawns nobody.
        Every other job ships to a worker untouched: when the cache has a
        shared directory, a partial hit's cached half is served to the
        worker from disk, never loaded into (and pinned in) coordinator
        memory (with a memory-only cache the worker simply re-simulates
        it, and the dispatch count says so). Dispatched
        workers execute their sessions through a parallel
        :class:`BatchRunner`, score them via the job's
        :class:`~repro.detection.protocol.ScoreSpec`, and publish
        :class:`ScenarioVerdicts` rows (digests + report-free verdicts) —
        never full summaries. Full summaries persist only where they
        belong: in the workers' shared ``--cache-dir``, when one is set.
        ``sessions_dispatched`` on the result is the number of unique
        sessions the cache could not serve — what a sweep reports as
        "sessions simulated".
        """
        probed: Dict[str, bool] = {}
        loaded: Dict[str, Optional[SessionSummary]] = {}

        def available(spec: SessionSpec) -> bool:
            if self.cache is None or not spec.cacheable:
                return False
            key = spec.content_key()
            if key not in probed:
                probed[key] = self.cache.probe(key)
            return probed[key]

        def load(spec: SessionSpec) -> Optional[SessionSummary]:
            key = spec.content_key()
            if key not in loaded:
                loaded[key] = self.cache.get(key)
                if loaded[key] is None:
                    # The probe saw a file get() rejected (torn/corrupt/
                    # stale): treat the key as absent so its jobs dispatch
                    # and the workers re-simulate it.
                    probed[key] = False
            return loaded[key]

        rows: Dict[int, ScenarioVerdicts] = {}
        remote: List[ScenarioJob] = []
        fitted: FittedDetectors = {}
        for job in jobs:
            if available(job.golden) and available(job.suspect):
                golden, suspect = load(job.golden), load(job.suspect)
                if golden is not None and suspect is not None:
                    rows[job.index] = _score_job(job, golden, suspect, fitted)
                    continue
            remote.append(job)
        # The scored summaries have served their purpose; release this
        # frame's references (the cache keeps its own memo per its policy),
        # the fitted detectors' goldens included.
        loaded.clear()
        fitted.clear()

        host_stats: List[Dict[str, Any]] = []
        requeues = 0
        shard_count = 0
        payload_bytes = 0
        dispatched_sessions = 0
        if remote:
            # The dispatch count is what the sweep reports as "sessions
            # simulated", so count every key the workers cannot actually
            # be served: absent keys, keys whose probe a load() exposed as
            # corrupt (probed flipped to False), and keys present only in
            # *this process's memory* — an in-memory entry serves nobody
            # else, only the shared disk does.
            def served(key: str) -> bool:
                return (
                    self.cache is not None
                    and probed.get(key, False)
                    and self.cache.has_on_disk(key)
                )

            dispatched_sessions = len(
                {
                    spec.content_key()
                    for job in remote
                    for spec in (job.golden, job.suspect)
                    if not served(spec.content_key())
                }
            )
            shards = {
                index: WorkShard(shard_id=index, jobs=tuple(group))
                for index, group in enumerate(
                    scenario_shards(remote, self.hosts)
                )
            }
            shard_count = len(shards)
            done, host_stats, requeues, payload_bytes = self._drive(shards)
            for result in done.values():
                for row in result.rows:
                    rows[row.index] = row
            missing = [job for job in remote if job.index not in rows]
            if missing:
                # Shouldn't happen (every shard is accounted for), but a
                # protocol bug must degrade to local scoring, not a KeyError.
                runner = BatchRunner(workers=self.workers, cache=self.cache)
                for job in missing:
                    golden, suspect = runner.run([job.golden, job.suspect])
                    rows[job.index] = _score_job(job, golden, suspect, fitted)
        return ScoredResult(
            rows=[rows[job.index] for job in jobs],
            host_stats=host_stats,
            requeues=requeues,
            shards=shard_count,
            sessions_dispatched=dispatched_sessions,
            payload_bytes=payload_bytes,
        )

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _worker_command(self, work: Transport, worker_id: str) -> List[str]:
        """The subprocess command line for one spawned local worker."""
        command = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            work.worker_target(),
            "--id",
            worker_id,
            "--poll-s",
            str(self.poll_s),
            # Belt and braces: exit if the coordinator vanishes without
            # managing to write STOP.
            "--idle-timeout-s",
            "300",
        ]
        if self.workers is None or self.workers != 1:
            command += ["--workers", str(self.workers if self.workers else 0)]
        if self.cache is not None and self.cache.directory:
            command += ["--cache-dir", self.cache.directory]
        return command

    def _spawn(
        self, work: Transport, worker_id: str, log_dir: str
    ) -> subprocess.Popen:
        env = dict(os.environ)
        # The spawned interpreter must resolve this very repro package no
        # matter what the caller's cwd-relative PYTHONPATH said.
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        with open(os.path.join(log_dir, f"{worker_id}.log"), "ab") as log:
            return subprocess.Popen(
                self._worker_command(work, worker_id),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )

    # ------------------------------------------------------------------
    # The distribution loop
    # ------------------------------------------------------------------
    def _drive(
        self, shards: Dict[int, WorkShard]
    ) -> Tuple[Dict[int, ShardResult], List[Dict[str, Any]], int, int]:
        """The transport-agnostic loop: enqueue, tend workers, collect done.

        Returns the collected shard results plus per-host economics, the
        dead-worker re-queue count, and the total ``done/`` payload bytes
        that travelled back.
        """
        # Temp dirs this run creates and removes, success or failure: a
        # throwaway work dir (pickled specs include whole G-code programs)
        # and the worker-log dir of a backend without one of its own.
        owned: List[str] = []
        if self.transport is None:
            owned.append(tempfile.mkdtemp(prefix="repro-distrib-"))
            work = WorkDir(owned[-1])
        else:
            work = create_transport(self.transport)
        if self.spawn_local and work.scheme == "memory":
            # A spawned `repro worker memory://...` would resolve a fresh,
            # empty registry in its own process and idle forever while the
            # coordinator waits — fail loud instead of deadlocking.
            raise ReproError(
                "the memory:// transport is in-process only; drive it with "
                "spawn_local=False and in-process workers, or use a "
                "filesystem/HTTP transport for subprocess workers"
            )
        log_dir = work.log_dir
        if self.spawn_local and log_dir is None:
            owned.append(tempfile.mkdtemp(prefix="repro-worker-logs-"))
            log_dir = owned[-1]
        work.reset()
        for shard in shards.values():
            work.enqueue(shard)

        procs: Dict[str, subprocess.Popen] = {}
        if self.spawn_local:
            for index in range(min(self.hosts, len(shards))):
                worker_id = f"local-{index}"
                procs[worker_id] = self._spawn(work, worker_id, log_dir)

        done: Dict[int, ShardResult] = {}
        payload_sizes: Dict[int, int] = {}
        requeues = 0
        respawns = 0
        # Local workers whose process has exited; their claims are always
        # forfeit, even if _tend_pool already discarded the Popen handle.
        dead_workers: set = set()
        # worker_id -> (last observed heartbeat mtime, local monotonic time
        # it was first seen at that value). Staleness is "the mtime hasn't
        # advanced for heartbeat_timeout_s of *coordinator* time", which is
        # immune to cross-host clock skew on shared filesystems.
        hb_seen: Dict[str, Tuple[float, float]] = {}
        deadline = (
            time.monotonic() + self.timeout_s if self.timeout_s is not None else None
        )
        try:
            while len(done) < len(shards):
                self._collect_done(work, shards, done, payload_sizes)
                if len(done) >= len(shards):
                    break
                requeues += self._requeue_dead_claims(
                    work, done, procs, dead_workers, hb_seen
                )
                self._reenqueue_lost(work, shards, done)
                if self.spawn_local:
                    respawns = self._tend_pool(
                        work, shards, done, procs, dead_workers, respawns,
                        log_dir,
                    )
                if deadline is not None and time.monotonic() > deadline:
                    raise ReproError(
                        f"distributed batch timed out after {self.timeout_s:.0f}s: "
                        f"{len(done)}/{len(shards)} shards done, "
                        f"{len(work.pending_ids())} pending, "
                        f"{len(work.claims())} claimed"
                    )
                time.sleep(self.poll_s)
        finally:
            work.stop()
            self._shutdown(procs)
            for path in owned:
                shutil.rmtree(path, ignore_errors=True)

        per_host: Dict[str, Dict[str, Any]] = {}
        for result in done.values():
            stats = per_host.setdefault(
                result.worker_id,
                {"worker": result.worker_id, "shards": 0, "sessions": 0,
                 "failures": 0, "wall_clock_s": 0.0},
            )
            stats["shards"] += 1
            stats["sessions"] += result.sessions
            stats["failures"] += result.failures
            stats["wall_clock_s"] = round(
                stats["wall_clock_s"] + result.wall_clock_s, 3
            )
        host_stats = sorted(per_host.values(), key=lambda s: s["worker"])
        return done, host_stats, requeues, sum(payload_sizes.values())

    def _collect_done(
        self,
        work: Transport,
        shards: Dict[int, WorkShard],
        done: Dict[int, ShardResult],
        payload_sizes: Dict[int, int],
    ) -> None:
        for shard_id in work.done_ids():
            if shard_id in done or shard_id not in shards:
                continue
            try:
                result, size = work.load_result(shard_id)
            except WireFormatError as exc:
                # A worker running different code "completed" this shard.
                # Its payload cannot be trusted or even deserialized — and
                # re-queueing would just collect the same skewed result
                # forever. Fail the sweep loudly instead.
                raise ReproError(
                    f"shard {shard_id} was completed by an incompatible "
                    f"worker: {exc}"
                ) from exc
            if not isinstance(result, ShardResult):
                # Torn/stale done payload: burn it and re-enqueue from memory.
                work.discard_done(shard_id)
                work.enqueue(shards[shard_id])
                continue
            done[shard_id] = result
            payload_sizes[shard_id] = size

    def _worker_dead(
        self,
        work: Transport,
        worker_id: str,
        procs: Dict[str, subprocess.Popen],
        dead_workers: set,
        hb_seen: Dict[str, Tuple[float, float]],
    ) -> bool:
        if worker_id in dead_workers:
            return True  # its process already exited; claims stay forfeit
        proc = procs.get(worker_id)
        if proc is not None and proc.poll() is not None:
            return True  # local transport: process exit is definitive
        mtime = work.heartbeat_mtime(worker_id)
        if mtime is None:
            # No heartbeat at all: for an unknown (external) worker the
            # claim has outlived its owner — workers beat before their
            # first claim. A still-running local proc just hasn't started.
            return proc is None
        now = time.monotonic()
        last = hb_seen.get(worker_id)
        if last is None or mtime != last[0]:
            hb_seen[worker_id] = (mtime, now)
            return False
        # The mtime has not advanced since we first saw it: measure the
        # wait on *our* clock, so worker-host clock skew cannot condemn a
        # live worker. A live-but-wedged process stops beating too, so
        # staleness covers the wedge case the process check cannot.
        return now - last[1] > self.heartbeat_timeout_s

    def _requeue_dead_claims(
        self,
        work: Transport,
        done: Dict[int, ShardResult],
        procs: Dict[str, subprocess.Popen],
        dead_workers: set,
        hb_seen: Dict[str, Tuple[float, float]],
    ) -> int:
        requeued = 0
        for shard_id, worker_id in work.claims():
            if shard_id in done:
                continue
            if self._worker_dead(
                work, worker_id, procs, dead_workers, hb_seen
            ) and work.requeue(shard_id, worker_id):
                requeued += 1
        return requeued

    def _reenqueue_lost(
        self,
        work: Transport,
        shards: Dict[int, WorkShard],
        done: Dict[int, ShardResult],
    ) -> None:
        """Restore shards that fell out of the protocol entirely.

        A shard is *lost* when it is neither pending, claimed, nor done —
        e.g. its claim was dropped as corrupt. The coordinator's
        in-memory copy is authoritative, so it simply enqueues again.
        """
        visible = set(work.pending_ids())
        visible.update(shard_id for shard_id, _ in work.claims())
        # The on-disk done listing, not just the collected dict: a shard
        # completed since the last _collect_done is *not* lost.
        visible.update(work.done_ids())
        visible.update(done)
        for shard_id, shard in shards.items():
            if shard_id not in visible:
                work.enqueue(shard)

    def _tend_pool(
        self,
        work: Transport,
        shards: Dict[int, WorkShard],
        done: Dict[int, ShardResult],
        procs: Dict[str, subprocess.Popen],
        dead_workers: set,
        respawns: int,
        log_dir: str,
    ) -> int:
        """Keep the local pool at strength; drain inline as a last resort."""
        outstanding = len(shards) - len(done)
        for worker_id, proc in list(procs.items()):
            if proc.poll() is None:
                continue
            procs.pop(worker_id)
            # Remember the death: a claim from this worker that comes into
            # view *after* this pass must still be requeued promptly, not
            # after a full heartbeat staleness wait.
            dead_workers.add(worker_id)
            if outstanding > 0 and respawns < self.max_respawns:
                respawns += 1
                replacement = f"local-r{respawns}"
                procs[replacement] = self._spawn(work, replacement, log_dir)
        if not procs and outstanding > 0 and work.pending_ids():
            # The whole pool is gone and the budget is spent: finish the
            # queue ourselves rather than failing the sweep. A *separate*
            # cache instance over the same directory keeps the coordinator's
            # own hit/miss accounting (one lookup per unique key) honest.
            inline_cache = None
            if self.cache is not None and self.cache.directory:
                from repro.experiments.batch import SessionCache

                inline_cache = SessionCache(directory=self.cache.directory)
            inline = Worker(
                work,
                worker_id="coordinator-inline",
                cache=inline_cache,
                poll_s=self.poll_s,
                idle_timeout_s=0.0,
                workers=self.workers,
            )
            inline.run()
        return respawns

    def _shutdown(self, procs: Dict[str, subprocess.Popen]) -> None:
        deadline = time.monotonic() + 5.0
        for proc in procs.values():
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            if proc.poll() is None:
                proc.terminate()
        for proc in procs.values():
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

