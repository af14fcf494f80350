"""The service business layer: submissions → jobs → stored verdict rows.

:class:`JobManager` is the one code path the WSGI app, the tests and
the smoke script drive. It owns

* **the dedup contract** — a submission compiles once, to one
  :class:`~repro.experiments.scenario.SweepPlan`, and is content-keyed
  from it (:func:`submission_key` folds every compiled session's content
  key with the scenario names and scoring recipe); a key the store has already
  completed is answered *from the store*: the new job is born ``done``
  with 0 sessions simulated and its verdict rows are the original's. This
  is the across-users analogue of the session cache — identical work is
  never re-simulated, whoever submits it;
* **execution** — jobs run through the very same
  :func:`repro.experiments.scenario.run_sweep` the CLI calls (no parallel
  service-only path to drift), fed the plan the key came from, on a
  single background executor thread
  (FIFO, like the distribution coordinator's queue discipline), with the
  batch runner's per-completed-session ``progress`` callback ticking the
  store's ``sessions_done`` counter so polling clients see live progress;
* **result shaping** — verdict rows and summary stats land in the
  :class:`~repro.service.store.JobStore` via
  :func:`~repro.experiments.report.sweep_rows` /
  :func:`~repro.experiments.report.summary_stats`, the exact shapes the
  CSV/HTML renderers consume, so an API-fetched report is byte-identical
  to the CLI's.

A raising sweep fails *its job* (state ``failed``, error text stored),
never the service. ``background=False`` runs jobs synchronously inside
:meth:`JobManager.submit` — the deterministic mode tests use.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import ReproError
from repro.experiments.batch import CacheOption, resolve_cache
from repro.experiments.report import summary_stats, sweep_rows
from repro.experiments.scenario import SweepPlan, compile_sweep, run_sweep
from repro.service.schemas import Submission, job_json, parse_submission
from repro.service.store import DONE, FAILED, JobStore


def submission_key(plan: SweepPlan) -> str:
    """Content digest of everything that determines a submission's rows.

    Folds, per scenario of the compiled plan: its name (a CSV column), both
    sessions' content keys (program, attack config, seeds, firmware, sim
    parameters — :meth:`SessionSpec.content_key` is the established physics
    digest), and the scoring recipe (detector set + margin). Two
    submissions with equal keys therefore produce byte-identical verdict
    CSVs, which is what licenses answering the second one from the store.
    """
    digest = hashlib.sha256()
    for scenario, golden_key, suspect_key in zip(
        plan.scenarios, plan.keys[0::2], plan.keys[1::2]
    ):
        digest.update(
            repr(
                (
                    scenario.name,
                    golden_key,
                    suspect_key,
                    scenario.detectors,
                    scenario.margin,
                )
            ).encode()
        )
    return digest.hexdigest()


class JobManager:
    """Thin orchestration over :mod:`repro.experiments` + the job store."""

    def __init__(
        self,
        store: JobStore,
        cache: CacheOption = True,
        workers: Optional[int] = None,
        background: bool = True,
    ) -> None:
        self.store = store
        self.cache = resolve_cache(cache)
        self.workers = workers
        self.background = background
        interrupted = store.fail_inflight("interrupted: service restarted")
        if interrupted:
            # Surfaced (not hidden) so operators learn a previous process
            # died mid-job; the jobs stay queryable with their error text.
            self.restart_failures = interrupted
        else:
            self.restart_failures = 0
        self._queue: "queue.Queue[Optional[Tuple[int, Submission, SweepPlan]]]" = (
            queue.Queue()
        )
        self._executor: Optional[threading.Thread] = None
        if background:
            self._executor = threading.Thread(
                target=self._run_queue, name="repro-service-executor", daemon=True
            )
            self._executor.start()

    # -- submission -----------------------------------------------------

    def submit(self, payload: Any) -> Tuple[Dict[str, Any], bool]:
        """Validate + enqueue (or dedup) a submission.

        Returns ``(job_json, created)``: ``created`` is False when the
        submission was answered from the store without running anything —
        the app maps that to 200 vs 201.
        """
        submission = parse_submission(payload)
        plan = compile_sweep(submission.scenarios, fast_path=submission.fast_path)
        key = submission_key(plan)
        source = self.store.find_done(key)
        if source is not None:
            job_id = self.store.create_deduped_job(
                key,
                source,
                grid=submission.grid,
                label=submission.label,
                scenarios=len(submission.scenarios),
            )
            return job_json(self.store.job(job_id)), False
        job_id = self.store.create_job(
            key,
            grid=submission.grid,
            label=submission.label,
            scenarios=len(submission.scenarios),
        )
        if self.background:
            self._queue.put((job_id, submission, plan))
        else:
            self._execute(job_id, submission, plan)
        return job_json(self.store.job(job_id)), True

    # -- execution ------------------------------------------------------

    def _run_queue(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            self._execute(*item)

    def _execute(self, job_id: int, submission: Submission, plan: SweepPlan) -> None:
        try:
            self.store.mark_running(job_id, plan.sessions_total)
            effective_workers = (
                submission.workers if self.workers is None else self.workers
            )
            result = run_sweep(
                plan,
                workers=effective_workers,
                cache=self.cache,
                grid=submission.grid,
                fast_path=submission.fast_path,
                progress=lambda _summary: self.store.bump_progress(job_id),
            )
            self.store.finish_job(
                job_id,
                rows=sweep_rows(result),
                stats=summary_stats(result),
                ok=result.ok,
            )
        except Exception as exc:
            # Job isolation: one bad submission becomes one failed job row.
            self.store.fail_job(job_id, f"{type(exc).__name__}: {exc}")

    # -- queries --------------------------------------------------------

    def job(self, job_id: int) -> Optional[Dict[str, Any]]:
        job = self.store.job(job_id)
        return job_json(job) if job is not None else None

    def jobs(self, limit: int = 50) -> list:
        return [job_json(job) for job in self.store.jobs(limit=limit)]

    def rows(self, job_id: int) -> list:
        return self.store.rows(job_id)

    def require_done(self, job_id: int) -> Dict[str, Any]:
        """The job, or a :class:`ReproError` explaining why rows aren't ready."""
        job = self.job(job_id)
        if job is None:
            raise KeyError(job_id)
        if job["state"] != DONE:
            raise ReproError(
                f"job {job_id} is {job['state']}"
                + (f": {job['error']}" if job["state"] == FAILED else "")
            )
        return job

    # -- waiting / streaming --------------------------------------------

    def wait(self, job_id: int, timeout_s: float = 600.0) -> Dict[str, Any]:
        """Block until the job reaches a terminal state (poll the store)."""
        deadline = time.monotonic() + timeout_s
        while True:
            job = self.job(job_id)
            if job is None:
                raise KeyError(job_id)
            if job["state"] in (DONE, FAILED):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout_s:.0f}s"
                )
            time.sleep(0.05)

    def event_stream(
        self, job_id: int, poll_s: float = 0.2, timeout_s: float = 3600.0
    ) -> Iterator[str]:
        """Server-sent events: one ``data:`` line per observed change.

        Emits the job JSON whenever state or progress moves, and closes
        after the terminal event — the streaming face of the same store
        the polling endpoint reads.
        """
        deadline = time.monotonic() + timeout_s
        last = None
        while True:
            job = self.job(job_id)
            if job is None:
                yield 'event: gone\ndata: {"error": "job deleted"}\n\n'
                return
            snapshot = (job["state"], job["sessions_done"], job["sessions_total"])
            if snapshot != last:
                last = snapshot
                yield f"data: {json.dumps(job)}\n\n"
            if job["state"] in (DONE, FAILED):
                return
            if time.monotonic() >= deadline:
                yield 'event: timeout\ndata: {"error": "stream timeout"}\n\n'
                return
            time.sleep(poll_s)

    # -- shutdown -------------------------------------------------------

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop the executor thread (queued jobs stay queued in the store)."""
        if self._executor is not None and self._executor.is_alive():
            self._queue.put(None)
            self._executor.join(timeout=timeout_s)
        self.store.close()
