"""The persistent job store: sweeps, verdict rows, and shard queues in SQLite.

One SQLite file holds four tables:

* ``jobs`` — one row per submission: its content-derived
  ``submission_key``, lifecycle state (``queued → running → done`` or
  ``failed``), progress counters (``sessions_done`` / ``sessions_total``,
  ticked by the batch runner's per-completed-session callback), the
  sweep's summary stats as JSON, and — for submissions served entirely
  from the store — the id of the job that actually computed the verdicts
  (``deduped_from``);
* ``verdict_rows`` — one row per scenario × detector, exactly the
  :data:`repro.experiments.report.CSV_COLUMNS` schema, so a report fetched
  from the store renders byte-identical to the CSV the CLI writes;
* ``shards`` + ``shard_workers`` — the HTTP shard-queue backend of the
  distributed sweep transport (:mod:`repro.experiments.transport_http`):
  one row per shard carrying its wire payload through
  ``pending → claimed → done``, plus per-worker heartbeat counters and a
  per-queue STOP flag. Claims are **conditional UPDATEs** (``WHERE state =
  'pending'``) so exactly one of any number of concurrent claimers wins —
  the SQL twin of the filesystem backend's atomic rename, with no
  check-then-act window.

Durability discipline mirrors the session cache's: the worst failure mode
must be recomputation, never a wrong answer.

* The schema carries a version (SQLite ``PRAGMA user_version``); opening a
  store written under a *different* version drops it and starts fresh —
  stale rows can never be served under new semantics.
* A corrupt/unreadable database file is quarantined (renamed to
  ``<path>.corrupt``) and replaced by a fresh store, with a warning.
* Jobs left ``queued``/``running`` by a crashed service process are marked
  ``failed`` on the next open (:meth:`JobStore.fail_inflight`) instead of
  being reported as forever-running.

All methods are thread-safe (one connection guarded by a lock —
submissions arrive on request threads while the executor thread writes
progress), and everything in the job tables is plain JSON/SQL scalars.
Shard payloads are the one exception: they are opaque BLOBs carrying the
transport's versioned wire envelope, and the store never deserializes
them — version skew and corruption are the *transport's* contract
(:func:`repro.experiments.transport.decode_wire`), enforced at the edges.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import warnings
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments.report import CSV_COLUMNS

SERVICE_SCHEMA_VERSION = 2
"""Bump when any stored schema (or its semantics) changes.

2: shard-queue tables (``shards``, ``shard_workers``) — the HTTP transport
for distributed sweeps rides the job store.

A mismatched on-disk version invalidates the whole store: cheap (verdicts
recompute from the session cache, which has its own versioning) and safe
(old rows are never reinterpreted under new column meanings).
"""

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_TERMINAL = (DONE, FAILED)

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    submission_key TEXT NOT NULL,
    grid TEXT NOT NULL DEFAULT '',
    label TEXT NOT NULL DEFAULT '',
    state TEXT NOT NULL DEFAULT '{QUEUED}',
    scenarios INTEGER NOT NULL DEFAULT 0,
    sessions_total INTEGER NOT NULL DEFAULT 0,
    sessions_done INTEGER NOT NULL DEFAULT 0,
    ok INTEGER,
    error TEXT,
    stats_json TEXT,
    deduped_from INTEGER,
    created_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL
);
CREATE INDEX IF NOT EXISTS idx_jobs_key_state ON jobs (submission_key, state);
CREATE TABLE IF NOT EXISTS verdict_rows (
    job_id INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    scenario TEXT NOT NULL,
    part TEXT NOT NULL,
    attack TEXT NOT NULL,
    kind TEXT NOT NULL,
    detector TEXT NOT NULL,
    verdict TEXT NOT NULL,
    score REAL NOT NULL,
    detail TEXT NOT NULL,
    outcome TEXT NOT NULL,
    suspect_status TEXT NOT NULL,
    duration_s REAL NOT NULL,
    PRIMARY KEY (job_id, seq)
);
CREATE TABLE IF NOT EXISTS shard_queues (
    queue TEXT PRIMARY KEY,
    stop INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS shards (
    queue TEXT NOT NULL,
    shard_id INTEGER NOT NULL,
    state TEXT NOT NULL,
    worker TEXT NOT NULL DEFAULT '',
    payload BLOB NOT NULL,
    result BLOB,
    PRIMARY KEY (queue, shard_id)
);
CREATE INDEX IF NOT EXISTS idx_shards_queue_state ON shards (queue, state);
CREATE TABLE IF NOT EXISTS shard_workers (
    queue TEXT NOT NULL,
    worker TEXT NOT NULL,
    beats INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (queue, worker)
);
"""

PENDING = "pending"
CLAIMED = "claimed"
SHARD_DONE = "done"


def _now() -> float:
    """Wall-clock job bookkeeping (created/started/finished columns).

    Job timestamps are operator-facing metadata; they never reach verdict
    content, which stays on the simulated clock.
    """
    return time.time()  # repro: lint-ignore[DET003] job-store bookkeeping timestamps only


class JobStore:
    """SQLite-backed store of sweep jobs and their verdict rows."""

    def __init__(
        self, path: str, schema_version: Optional[int] = None
    ) -> None:
        self.path = path
        self.schema_version = (
            SERVICE_SCHEMA_VERSION if schema_version is None else schema_version
        )
        self._lock = threading.RLock()
        parent = os.path.dirname(os.path.abspath(path))
        if path != ":memory:" and parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = self._open()

    # -- lifecycle ------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        conn.row_factory = sqlite3.Row
        return conn

    def _open(self) -> sqlite3.Connection:
        conn = self._connect()
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            has_tables = conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' AND name='jobs'"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            # Not a SQLite file (torn write, garbage, another format):
            # quarantine it and start fresh — degraded, never wrong.
            conn.close()
            quarantine = f"{self.path}.corrupt"
            os.replace(self.path, quarantine)
            warnings.warn(
                f"job store {self.path} is unreadable ({exc}); "
                f"quarantined to {quarantine} and starting a fresh store",
                RuntimeWarning,
                stacklevel=3,
            )
            conn = self._connect()
            version, has_tables = 0, None
        if has_tables and version != self.schema_version:
            # Schema bump: old rows must never be served under new
            # semantics. Verdicts recompute from the session cache.
            conn.executescript(
                "DROP TABLE IF EXISTS jobs; DROP TABLE IF EXISTS verdict_rows;"
                " DROP TABLE IF EXISTS shard_queues; DROP TABLE IF EXISTS shards;"
                " DROP TABLE IF EXISTS shard_workers;"
            )
        conn.executescript(_SCHEMA)
        conn.execute(f"PRAGMA user_version = {int(self.schema_version)}")
        return conn

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- writes ---------------------------------------------------------

    def create_job(
        self,
        submission_key: str,
        grid: str = "",
        label: str = "",
        scenarios: int = 0,
    ) -> int:
        """Insert a new ``queued`` job; returns its id."""
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO jobs (submission_key, grid, label, scenarios, created_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (submission_key, grid, label, scenarios, _now()),
            )
            return int(cursor.lastrowid)

    def create_deduped_job(
        self,
        submission_key: str,
        source: Mapping[str, Any],
        grid: str = "",
        label: str = "",
        scenarios: int = 0,
    ) -> int:
        """Insert a job served entirely from ``source``'s stored verdicts.

        The new job is born ``done`` with **0 sessions simulated** — the
        across-users dedup the store exists for. Its stats record the
        source job id; its verdict rows are ``source``'s, by reference.
        """
        stats = dict(source.get("stats") or {})
        stats.update(
            sessions_simulated=0,
            cache_hits=0,
            cache_misses=0,
            cache_disk_hits=0,
            wall_clock_s=0.0,
            deduped_from=source["id"],
        )
        now = _now()
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO jobs (submission_key, grid, label, state, scenarios,"
                " sessions_total, sessions_done, ok, stats_json, deduped_from,"
                " created_at, started_at, finished_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    submission_key,
                    grid,
                    label,
                    DONE,
                    scenarios,
                    int(source.get("sessions_total") or 0),
                    0,
                    source.get("ok"),
                    json.dumps(stats),
                    source["id"],
                    now,
                    now,
                    now,
                ),
            )
            return int(cursor.lastrowid)

    def mark_running(self, job_id: int, sessions_total: int) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, sessions_total = ?, started_at = ?"
                " WHERE id = ?",
                (RUNNING, sessions_total, _now(), job_id),
            )

    def bump_progress(self, job_id: int) -> None:
        """One completed session (the batch runner's progress callback)."""
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET sessions_done = sessions_done + 1 WHERE id = ?",
                (job_id,),
            )

    def finish_job(
        self,
        job_id: int,
        rows: Sequence[Mapping[str, Any]],
        stats: Mapping[str, Any],
        ok: bool,
    ) -> None:
        """Store the sweep's verdict rows + stats and mark the job done."""
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                self._conn.executemany(
                    "INSERT INTO verdict_rows (job_id, seq, "
                    + ", ".join(CSV_COLUMNS)
                    + ") VALUES (?, ?, "
                    + ", ".join("?" for _ in CSV_COLUMNS)
                    + ")",
                    [
                        (job_id, seq) + tuple(row[col] for col in CSV_COLUMNS)
                        for seq, row in enumerate(rows)
                    ],
                )
                self._conn.execute(
                    "UPDATE jobs SET state = ?, ok = ?, stats_json = ?,"
                    " finished_at = ? WHERE id = ?",
                    (DONE, int(bool(ok)), json.dumps(dict(stats)), _now(), job_id),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def fail_job(self, job_id: int, error: str) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, ok = 0, error = ?, finished_at = ?"
                " WHERE id = ?",
                (FAILED, error, _now(), job_id),
            )

    def fail_inflight(self, reason: str) -> int:
        """Fail every queued/running job (crash recovery on service start)."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, ok = 0, error = ?, finished_at = ?"
                " WHERE state IN (?, ?)",
                (FAILED, reason, _now(), QUEUED, RUNNING),
            )
            return cursor.rowcount

    # -- reads ----------------------------------------------------------

    @staticmethod
    def _job_dict(row: sqlite3.Row) -> Dict[str, Any]:
        job = {key: row[key] for key in row.keys()}
        stats_json = job.pop("stats_json", None)
        job["stats"] = json.loads(stats_json) if stats_json else None
        job["ok"] = None if job["ok"] is None else bool(job["ok"])
        return job

    def job(self, job_id: int) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return self._job_dict(row) if row is not None else None

    def jobs(self, limit: int = 50) -> List[Dict[str, Any]]:
        """The most recent jobs, newest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY id DESC LIMIT ?", (int(limit),)
            ).fetchall()
        return [self._job_dict(row) for row in rows]

    def find_done(self, submission_key: str) -> Optional[Dict[str, Any]]:
        """The newest *computed* done job for this key (dedup source).

        Jobs that were themselves deduped are skipped so the verdict rows
        are always fetched one hop away, and failed jobs never satisfy a
        dedup probe — a resubmission after a failure recomputes.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE submission_key = ? AND state = ?"
                " AND deduped_from IS NULL ORDER BY id DESC LIMIT 1",
                (submission_key, DONE),
            ).fetchone()
        return self._job_dict(row) if row is not None else None

    def rows(self, job_id: int) -> List[Dict[str, Any]]:
        """The job's verdict rows (following a dedup reference one hop)."""
        job = self.job(job_id)
        if job is None:
            return []
        source = job["deduped_from"] if job["deduped_from"] is not None else job_id
        with self._lock:
            rows = self._conn.execute(
                "SELECT "
                + ", ".join(CSV_COLUMNS)
                + " FROM verdict_rows WHERE job_id = ? ORDER BY seq",
                (source,),
            ).fetchall()
        return [{key: row[key] for key in row.keys()} for row in rows]

    def count(self) -> int:
        with self._lock:
            return int(self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0])

    # -- shard queues (the HTTP sweep transport) ------------------------

    def queue_reset(self, queue: str) -> None:
        """Clear a previous sweep's shards/heartbeats/STOP from a queue."""
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                self._conn.execute("DELETE FROM shards WHERE queue = ?", (queue,))
                self._conn.execute(
                    "DELETE FROM shard_workers WHERE queue = ?", (queue,)
                )
                self._conn.execute(
                    "INSERT INTO shard_queues (queue, stop) VALUES (?, 0)"
                    " ON CONFLICT (queue) DO UPDATE SET stop = 0",
                    (queue,),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def queue_put_pending(self, queue: str, shard_id: int, payload: bytes) -> None:
        """Enqueue (or re-enqueue) one shard's wire payload as pending."""
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO shard_queues (queue) VALUES (?)", (queue,)
            )
            self._conn.execute(
                "INSERT INTO shards (queue, shard_id, state, worker, payload)"
                f" VALUES (?, ?, '{PENDING}', '', ?)"
                " ON CONFLICT (queue, shard_id) DO UPDATE SET"
                f" state = '{PENDING}', worker = '', payload = excluded.payload,"
                " result = NULL",
                (queue, shard_id, sqlite3.Binary(payload)),
            )

    def queue_claim(self, queue: str, shard_id: int, worker: str) -> Optional[bytes]:
        """Atomically claim a pending shard; its payload, or ``None`` if lost.

        The conditional UPDATE (``WHERE state = 'pending'``) is the whole
        claim protocol: of N concurrent claimers exactly one flips the row
        to ``claimed`` (rowcount 1) and reads the payload; the rest see
        rowcount 0. No separate existence check precedes the write.
        """
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE shards SET state = ?, worker = ?"
                " WHERE queue = ? AND shard_id = ? AND state = ?",
                (CLAIMED, worker, queue, shard_id, PENDING),
            )
            if cursor.rowcount != 1:
                return None
            row = self._conn.execute(
                "SELECT payload FROM shards WHERE queue = ? AND shard_id = ?",
                (queue, shard_id),
            ).fetchone()
        return bytes(row[0]) if row is not None else None

    def queue_requeue(self, queue: str, shard_id: int, worker: str) -> bool:
        """Return a claimed shard to pending — only while ``worker`` holds it.

        The worker condition makes forfeiture race-safe: a worker that
        completed (or lost the claim to an earlier forfeit) no-ops here,
        so a finished shard is never double-queued.
        """
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE shards SET state = ?, worker = ''"
                " WHERE queue = ? AND shard_id = ? AND state = ? AND worker = ?",
                (PENDING, queue, shard_id, CLAIMED, worker),
            )
            return cursor.rowcount == 1

    def queue_abandon(self, queue: str, shard_id: int, worker: str) -> bool:
        """Drop a claimed shard entirely (corrupt payload: force re-enqueue)."""
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM shards"
                " WHERE queue = ? AND shard_id = ? AND state = ? AND worker = ?",
                (queue, shard_id, CLAIMED, worker),
            )
            return cursor.rowcount == 1

    def queue_put_result(self, queue: str, shard_id: int, result: bytes) -> None:
        """Publish a shard's result — done unconditionally wins.

        Mirrors the filesystem backend: a worker declared dead that
        finishes anyway still lands its result, and the coordinator
        prefers it over re-running the shard.
        """
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO shard_queues (queue) VALUES (?)", (queue,)
            )
            self._conn.execute(
                "INSERT INTO shards (queue, shard_id, state, worker, payload, result)"
                f" VALUES (?, ?, '{SHARD_DONE}', '', X'', ?)"
                " ON CONFLICT (queue, shard_id) DO UPDATE SET"
                f" state = '{SHARD_DONE}', worker = '', result = excluded.result",
                (queue, shard_id, sqlite3.Binary(result)),
            )

    def queue_result(self, queue: str, shard_id: int) -> Optional[bytes]:
        with self._lock:
            row = self._conn.execute(
                "SELECT result FROM shards"
                " WHERE queue = ? AND shard_id = ? AND state = ?",
                (queue, shard_id, SHARD_DONE),
            ).fetchone()
        return bytes(row[0]) if row is not None and row[0] is not None else None

    def queue_discard_done(self, queue: str, shard_id: int) -> None:
        with self._lock:
            self._conn.execute(
                "DELETE FROM shards WHERE queue = ? AND shard_id = ? AND state = ?",
                (queue, shard_id, SHARD_DONE),
            )

    def queue_stop(self, queue: str) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT INTO shard_queues (queue, stop) VALUES (?, 1)"
                " ON CONFLICT (queue) DO UPDATE SET stop = 1",
                (queue,),
            )

    def queue_beat(self, queue: str, worker: str) -> int:
        """Advance a worker's heartbeat counter; the new count.

        A monotonic counter, never a wall-clock timestamp: the coordinator
        only watches the value *advance* against its own clock, so hosts
        with skewed clocks still heartbeat correctly.
        """
        with self._lock:
            self._conn.execute(
                "INSERT INTO shard_workers (queue, worker, beats) VALUES (?, ?, 1)"
                " ON CONFLICT (queue, worker) DO UPDATE SET beats = beats + 1",
                (queue, worker),
            )
            row = self._conn.execute(
                "SELECT beats FROM shard_workers WHERE queue = ? AND worker = ?",
                (queue, worker),
            ).fetchone()
        return int(row[0])

    def queue_beats(self, queue: str, worker: str) -> Optional[int]:
        with self._lock:
            row = self._conn.execute(
                "SELECT beats FROM shard_workers WHERE queue = ? AND worker = ?",
                (queue, worker),
            ).fetchone()
        return int(row[0]) if row is not None else None

    def queue_status(self, queue: str) -> Dict[str, Any]:
        """One snapshot of a queue's protocol state (the status endpoint)."""
        with self._lock:
            stop = self._conn.execute(
                "SELECT stop FROM shard_queues WHERE queue = ?", (queue,)
            ).fetchone()
            shards = self._conn.execute(
                "SELECT shard_id, state, worker FROM shards WHERE queue = ?"
                " ORDER BY shard_id",
                (queue,),
            ).fetchall()
        pending = [int(r[0]) for r in shards if r[1] == PENDING]
        claims = [[int(r[0]), str(r[2])] for r in shards if r[1] == CLAIMED]
        done = [int(r[0]) for r in shards if r[1] == SHARD_DONE]
        return {
            "queue": queue,
            "stop": bool(stop[0]) if stop is not None else False,
            "pending": pending,
            "claims": claims,
            "done": done,
        }
