"""Sweep-as-a-service: HTTP API + persistent job store over the sweep engine.

Layering (thin on top, shared below)::

    frontend      app.ServiceApp (stdlib WSGI)
                                |
    business           jobs.JobManager  +  schemas.parse_submission
                                |
    storage               store.JobStore (SQLite: jobs + verdict_rows)
                                |
    engine        repro.experiments  (run_sweep / sweep_rows / renderers)

The service uses only the stdlib (sqlite3 and WSGI). Tests and CI drive
the WSGI app in-process via :class:`~repro.service.testclient.ServiceClient`.
"""

from repro.service.app import ServiceApp, create_app, run_wsgi_server
from repro.service.jobs import JobManager, submission_key
from repro.service.schemas import (
    SchemaError,
    Submission,
    grid_listing,
    job_json,
    parse_submission,
)
from repro.service.store import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SERVICE_SCHEMA_VERSION,
    JobStore,
)
from repro.service.testclient import ClientResponse, ServiceClient

__all__ = [
    "ServiceApp",
    "create_app",
    "run_wsgi_server",
    "JobManager",
    "submission_key",
    "SchemaError",
    "Submission",
    "grid_listing",
    "job_json",
    "parse_submission",
    "JobStore",
    "SERVICE_SCHEMA_VERSION",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "ClientResponse",
    "ServiceClient",
]
