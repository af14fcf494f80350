"""Sweep-as-a-service: the WSGI frontend.

The HTTP surface:

=======  ==============================  =====================================
method   path                            meaning
=======  ==============================  =====================================
GET      ``/healthz``                    liveness + store size
GET      ``/grids``                      registered grids (name, description)
POST     ``/jobs``                       submit a grid or ad-hoc scenarios;
                                         201 + job JSON (200 when answered
                                         from the store without simulating)
GET      ``/jobs``                       recent jobs (``?limit=N``)
GET      ``/jobs/{id}``                  poll one job (state + progress)
GET      ``/jobs/{id}/events``           server-sent-events progress stream
GET      ``/jobs/{id}/verdicts``         verdict rows as JSON (done jobs)
GET      ``/jobs/{id}/report.csv``       verdict rows as CSV — byte-identical
                                         to ``repro sweep --csv`` for the
                                         same submission
GET      ``/jobs/{id}/report.html``      self-contained HTML report
=======  ==============================  =====================================

plus the **shard-queue surface** — the HTTP backend of the distributed
sweep transport (:mod:`repro.experiments.transport_http`), one endpoint
per :class:`~repro.experiments.transport.Transport` operation. Shard
bodies are opaque wire-envelope bytes (``application/octet-stream``); the
service stores and serves them without deserializing:

=======  ========================================  =========================
method   path                                      meaning
=======  ========================================  =========================
GET      ``/queues/{q}``                           queue status snapshot
POST     ``/queues/{q}/reset``                     clear shards/beats/STOP
POST     ``/queues/{q}/stop``                      raise the STOP flag
PUT      ``/queues/{q}/shards/{id}``               enqueue payload bytes
POST     ``/queues/{q}/shards/{id}/claim``         claim (``?worker=``);
                                                   200 payload | 409 lost
POST     ``/queues/{q}/shards/{id}/requeue``       forfeit back to pending
POST     ``/queues/{q}/shards/{id}/abandon``       drop a corrupt claim
PUT      ``/queues/{q}/shards/{id}/result``        publish result bytes
GET      ``/queues/{q}/shards/{id}/result``        fetch result | 404
DELETE   ``/queues/{q}/shards/{id}/result``        discard a done result
POST     ``/queues/{q}/workers/{w}/beat``          advance heartbeat counter
GET      ``/queues/{q}/workers/{w}``               read heartbeat counter
=======  ========================================  =========================

Routes are deliberately *thin*: every one of them is a line or two over
:class:`~repro.service.jobs.JobManager`, which in turn drives the same
:func:`~repro.experiments.scenario.run_sweep` the CLI uses — the service
adds storage and transport, never a second sweep semantics.

Implemented as a plain WSGI callable on the stdlib ``wsgiref`` server.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.errors import ReproError
from repro.experiments.report import render_csv_rows, render_html_rows
from repro.service.jobs import JobManager
from repro.service.schemas import SchemaError, grid_listing, queue_status_json
from repro.service.store import JobStore

_STATUS_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}

MAX_BODY_BYTES = 8 * 1024 * 1024
"""Submission bodies larger than this are rejected (400)."""


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Response:
    """One materialized WSGI response (status, headers, body chunks)."""

    def __init__(
        self,
        status: int,
        body: Iterable[bytes],
        content_type: str,
        extra_headers: Optional[List[Tuple[str, str]]] = None,
        content_length: Optional[int] = None,
    ) -> None:
        self.status = status
        self.body = body
        self.headers = [("Content-Type", content_type)]
        if content_length is not None:
            self.headers.append(("Content-Length", str(content_length)))
        self.headers.extend(extra_headers or [])


def _json_response(status: int, payload: Any) -> Response:
    body = json.dumps(payload).encode("utf-8")
    return Response(
        status, [body], "application/json; charset=utf-8", content_length=len(body)
    )


def _text_response(status: int, text: str, content_type: str) -> Response:
    body = text.encode("utf-8")
    return Response(status, [body], content_type, content_length=len(body))


class ServiceApp:
    """The WSGI callable: thin routing over a :class:`JobManager`."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager
        self._routes: List[Tuple[str, re.Pattern, Callable]] = [
            ("GET", re.compile(r"^/healthz$"), self._healthz),
            ("GET", re.compile(r"^/grids$"), self._grids),
            ("POST", re.compile(r"^/jobs$"), self._submit),
            ("GET", re.compile(r"^/jobs$"), self._list_jobs),
            ("GET", re.compile(r"^/jobs/(\d+)$"), self._job),
            ("GET", re.compile(r"^/jobs/(\d+)/events$"), self._events),
            ("GET", re.compile(r"^/jobs/(\d+)/verdicts$"), self._verdicts),
            ("GET", re.compile(r"^/jobs/(\d+)/report\.csv$"), self._report_csv),
            ("GET", re.compile(r"^/jobs/(\d+)/report\.html$"), self._report_html),
        ]
        # Shard-queue routes: queue and worker names are validated by the
        # route pattern itself (the same [A-Za-z0-9_.-] alphabet worker-id
        # sanitization guarantees), so nothing path-unsafe reaches the store.
        name = r"([A-Za-z0-9_.-]+)"
        self._routes.extend(
            [
                ("GET", re.compile(rf"^/queues/{name}$"), self._queue_status),
                ("POST", re.compile(rf"^/queues/{name}/reset$"), self._queue_reset),
                ("POST", re.compile(rf"^/queues/{name}/stop$"), self._queue_stop),
                (
                    "PUT",
                    re.compile(rf"^/queues/{name}/shards/(\d+)$"),
                    self._queue_put_shard,
                ),
                (
                    "POST",
                    re.compile(rf"^/queues/{name}/shards/(\d+)/claim$"),
                    self._queue_claim,
                ),
                (
                    "POST",
                    re.compile(rf"^/queues/{name}/shards/(\d+)/requeue$"),
                    self._queue_requeue,
                ),
                (
                    "POST",
                    re.compile(rf"^/queues/{name}/shards/(\d+)/abandon$"),
                    self._queue_abandon,
                ),
                (
                    "PUT",
                    re.compile(rf"^/queues/{name}/shards/(\d+)/result$"),
                    self._queue_put_result,
                ),
                (
                    "GET",
                    re.compile(rf"^/queues/{name}/shards/(\d+)/result$"),
                    self._queue_get_result,
                ),
                (
                    "DELETE",
                    re.compile(rf"^/queues/{name}/shards/(\d+)/result$"),
                    self._queue_delete_result,
                ),
                (
                    "POST",
                    re.compile(rf"^/queues/{name}/workers/{name}/beat$"),
                    self._queue_beat,
                ),
                (
                    "GET",
                    re.compile(rf"^/queues/{name}/workers/{name}$"),
                    self._queue_worker,
                ),
            ]
        )

    # -- WSGI entry -----------------------------------------------------

    def __call__(self, environ, start_response):
        try:
            response = self._dispatch(environ)
        except _HttpError as exc:
            response = _json_response(exc.status, {"error": exc.message})
        except (SchemaError, ReproError) as exc:
            response = _json_response(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - last-resort guard
            response = _json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        reason = _STATUS_REASONS.get(response.status, "Unknown")
        start_response(f"{response.status} {reason}", response.headers)
        return response.body

    def _dispatch(self, environ) -> Response:
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/")
        matched_path = False
        for route_method, pattern, handler in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            matched_path = True
            if route_method != method:
                continue
            return handler(environ, *match.groups())
        if matched_path:
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route for {path}")

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _query(environ) -> dict:
        return parse_qs(environ.get("QUERY_STRING", ""))

    @staticmethod
    def _read_json(environ) -> Any:
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            raise _HttpError(400, "invalid Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(400, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = environ["wsgi.input"].read(length) if length else b""
        if not raw:
            raise _HttpError(400, "empty request body (expected JSON)")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None

    @staticmethod
    def _read_bytes(environ) -> bytes:
        """A raw request body (shard payloads), size-capped like JSON ones."""
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            raise _HttpError(400, "invalid Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(400, f"request body exceeds {MAX_BODY_BYTES} bytes")
        return environ["wsgi.input"].read(length) if length else b""

    def _worker_param(self, environ) -> str:
        values = self._query(environ).get("worker", [])
        if len(values) != 1 or not re.fullmatch(r"[A-Za-z0-9_.-]+", values[0]):
            raise _HttpError(
                400, "claim operations need exactly one well-formed ?worker="
            )
        return values[0]

    def _require_job(self, job_id: str) -> dict:
        job = self.manager.job(int(job_id))
        if job is None:
            raise _HttpError(404, f"no job {job_id}")
        return job

    def _require_rows(self, job_id: str) -> Tuple[dict, list]:
        job = self._require_job(job_id)
        try:
            self.manager.require_done(int(job_id))
        except ReproError as exc:
            raise _HttpError(409, str(exc)) from None
        return job, self.manager.rows(int(job_id))

    # -- handlers -------------------------------------------------------

    def _healthz(self, environ) -> Response:
        return _json_response(
            200, {"status": "ok", "jobs": self.manager.store.count()}
        )

    def _grids(self, environ) -> Response:
        return _json_response(200, {"grids": grid_listing()})

    def _submit(self, environ) -> Response:
        payload = self._read_json(environ)
        job, created = self.manager.submit(payload)
        return _json_response(201 if created else 200, job)

    def _list_jobs(self, environ) -> Response:
        query = self._query(environ)
        try:
            limit = int(query.get("limit", ["50"])[0])
        except ValueError:
            raise _HttpError(400, "limit must be an integer") from None
        return _json_response(200, {"jobs": self.manager.jobs(limit=limit)})

    def _job(self, environ, job_id: str) -> Response:
        return _json_response(200, self._require_job(job_id))

    def _events(self, environ, job_id: str) -> Response:
        self._require_job(job_id)
        query = self._query(environ)
        try:
            timeout_s = float(query.get("timeout_s", ["3600"])[0])
        except ValueError:
            raise _HttpError(400, "timeout_s must be a number") from None
        stream = self.manager.event_stream(int(job_id), timeout_s=timeout_s)
        return Response(
            200,
            (chunk.encode("utf-8") for chunk in stream),
            "text/event-stream; charset=utf-8",
            extra_headers=[("Cache-Control", "no-cache")],
        )

    def _verdicts(self, environ, job_id: str) -> Response:
        job, rows = self._require_rows(job_id)
        return _json_response(
            200, {"job": job["id"], "stats": job["stats"], "rows": rows}
        )

    def _report_csv(self, environ, job_id: str) -> Response:
        _job, rows = self._require_rows(job_id)
        return _text_response(
            200, render_csv_rows(rows), "text/csv; charset=utf-8"
        )

    def _report_html(self, environ, job_id: str) -> Response:
        job, rows = self._require_rows(job_id)
        title = f"repro serve — job {job['id']}" + (
            f" (grid {job['grid']!r})" if job["grid"] else ""
        )
        return _text_response(
            200,
            render_html_rows(rows, job["stats"] or {}, title=title),
            "text/html; charset=utf-8",
        )

    # -- shard-queue handlers (the HTTP sweep transport) ----------------

    def _queue_status(self, environ, queue: str) -> Response:
        return _json_response(
            200, queue_status_json(self.manager.store.queue_status(queue))
        )

    def _queue_reset(self, environ, queue: str) -> Response:
        self.manager.store.queue_reset(queue)
        return _json_response(200, {"queue": queue, "reset": True})

    def _queue_stop(self, environ, queue: str) -> Response:
        self.manager.store.queue_stop(queue)
        return _json_response(200, {"queue": queue, "stop": True})

    def _queue_put_shard(self, environ, queue: str, shard_id: str) -> Response:
        data = self._read_bytes(environ)
        if not data:
            raise _HttpError(400, "empty shard payload")
        self.manager.store.queue_put_pending(queue, int(shard_id), data)
        return _json_response(200, {"queue": queue, "shard": int(shard_id)})

    def _queue_claim(self, environ, queue: str, shard_id: str) -> Response:
        worker = self._worker_param(environ)
        payload = self.manager.store.queue_claim(queue, int(shard_id), worker)
        if payload is None:
            raise _HttpError(409, f"shard {shard_id} is not pending")
        return Response(
            200, [payload], "application/octet-stream", content_length=len(payload)
        )

    def _queue_requeue(self, environ, queue: str, shard_id: str) -> Response:
        worker = self._worker_param(environ)
        if not self.manager.store.queue_requeue(queue, int(shard_id), worker):
            raise _HttpError(409, f"shard {shard_id} is not claimed by {worker}")
        return _json_response(200, {"queue": queue, "requeued": int(shard_id)})

    def _queue_abandon(self, environ, queue: str, shard_id: str) -> Response:
        worker = self._worker_param(environ)
        if not self.manager.store.queue_abandon(queue, int(shard_id), worker):
            raise _HttpError(409, f"shard {shard_id} is not claimed by {worker}")
        return _json_response(200, {"queue": queue, "abandoned": int(shard_id)})

    def _queue_put_result(self, environ, queue: str, shard_id: str) -> Response:
        data = self._read_bytes(environ)
        if not data:
            raise _HttpError(400, "empty result payload")
        self.manager.store.queue_put_result(queue, int(shard_id), data)
        return _json_response(200, {"queue": queue, "done": int(shard_id)})

    def _queue_get_result(self, environ, queue: str, shard_id: str) -> Response:
        data = self.manager.store.queue_result(queue, int(shard_id))
        if data is None:
            raise _HttpError(404, f"no result for shard {shard_id}")
        return Response(
            200, [data], "application/octet-stream", content_length=len(data)
        )

    def _queue_delete_result(self, environ, queue: str, shard_id: str) -> Response:
        self.manager.store.queue_discard_done(queue, int(shard_id))
        return _json_response(200, {"queue": queue, "discarded": int(shard_id)})

    def _queue_beat(self, environ, queue: str, worker: str) -> Response:
        beats = self.manager.store.queue_beat(queue, worker)
        return _json_response(200, {"queue": queue, "worker": worker, "beats": beats})

    def _queue_worker(self, environ, queue: str, worker: str) -> Response:
        beats = self.manager.store.queue_beats(queue, worker)
        if beats is None:
            raise _HttpError(404, f"no heartbeats from {worker}")
        return _json_response(200, {"queue": queue, "worker": worker, "beats": beats})


def create_app(
    db: str = ":memory:",
    cache: Any = True,
    workers: Optional[int] = None,
    background: bool = True,
) -> ServiceApp:
    """Build the WSGI app over a fresh store/manager.

    ``db`` is the SQLite job-store path (``":memory:"`` for ephemeral),
    ``cache`` any :data:`~repro.experiments.batch.CacheOption` — pass a
    directory to share the session cache with CLI sweeps and other
    service instances. ``workers=None`` honors each submission's own
    ``workers`` field; an integer pins every job to that parallelism.
    """
    manager = JobManager(
        JobStore(db), cache=cache, workers=workers, background=background
    )
    return ServiceApp(manager)


def run_wsgi_server(app: ServiceApp, host: str, port: int) -> None:
    """Serve with the stdlib WSGI server (threaded: jobs run while polls answer)."""
    import socketserver
    from wsgiref.simple_server import WSGIServer, make_server

    class ThreadingWSGIServer(socketserver.ThreadingMixIn, WSGIServer):
        daemon_threads = True

    with make_server(host, port, app, server_class=ThreadingWSGIServer) as server:
        print(f"repro serve: http://{host}:{port} (Ctrl-C to stop)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            app.manager.close()
