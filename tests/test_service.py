"""The sweep service: HTTP surface, job store, and the dedup contract.

Everything runs in-process: the WSGI app through
:class:`repro.service.ServiceClient` (no sockets), the store against
per-test SQLite files. The expensive sweep — the tiny reference grid,
cold — happens exactly once, in the background end-to-end test; every
other test either reuses that warm session-cache directory (jobs complete
from cache) or never simulates at all (store/schema/validation tests).

The contract under test, layer by layer:

* **parity** — ``GET /jobs/{id}/report.csv`` is byte-identical to
  :func:`repro.experiments.report.render_csv` over a direct
  :func:`run_sweep` of the same scenarios (one sweep semantics, CLI or
  HTTP, in-memory or through SQLite);
* **dedup** — an identical resubmission is answered from the store with
  0 sessions simulated: same service instance, a second instance over the
  same store file (across runs), and a separate OS process (across users);
* **durability** — a schema-version bump invalidates the store, a corrupt
  store file is quarantined and replaced (degraded, never wrong), and jobs
  left in flight by a crashed process are failed on reopen, not reported
  as forever-running;
* **validation** — malformed submissions are 400s with actionable
  messages, never failed jobs.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.batch import SessionCache
from repro.experiments.report import render_csv
from repro.experiments.scenario import compile_sweep, grid_scenarios, run_sweep
from tests.conftest import corrupt_file
from repro.service import (
    DONE,
    FAILED,
    SERVICE_SCHEMA_VERSION,
    JobManager,
    JobStore,
    ServiceClient,
    create_app,
    submission_key,
)
from repro.service.schemas import parse_submission


def scenario_payload(spec) -> dict:
    """A ScenarioSpec as the JSON object POST /jobs accepts."""
    return {
        "name": spec.name,
        "part": spec.part,
        "attack": spec.attack,
        "detectors": list(spec.detectors),
        "seed": spec.seed,
        "noise_sigma": spec.noise_sigma,
    }


@pytest.fixture(scope="module")
def service_env(tmp_path_factory, tiny_grid):
    """The shared submission + its reference CSV over a warm cache dir.

    The reference comes from a *direct* ``run_sweep`` (the CLI path); the
    warm cache directory lets every service job in this module complete
    without re-simulating.
    """
    cache_dir = str(tmp_path_factory.mktemp("service-session-cache"))
    result = run_sweep(tiny_grid, cache=SessionCache(directory=cache_dir))
    assert result.ok
    return {
        "cache_dir": cache_dir,
        "payload": {"scenarios": [scenario_payload(s) for s in tiny_grid]},
        "reference_csv": render_csv(result),
        "sessions": result.sessions_total,
    }


@pytest.fixture
def warm_client(service_env, tmp_path):
    """A synchronous (background=False) service over a fresh store file."""
    app = create_app(
        db=str(tmp_path / "jobs.sqlite3"),
        cache=service_env["cache_dir"],
        background=False,
    )
    yield ServiceClient(app)
    app.manager.close()


# -- HTTP surface -------------------------------------------------------


def test_healthz_and_grids(warm_client):
    health = warm_client.get("/healthz")
    assert health.status_code == 200
    assert health.json() == {"status": "ok", "jobs": 0}
    grids = warm_client.get("/grids").json()["grids"]
    assert "smoke" in {g["name"] for g in grids}
    assert all(g["scenarios"] > 0 for g in grids)


def test_submit_fetch_parity(warm_client, service_env):
    submitted = warm_client.post("/jobs", service_env["payload"])
    assert submitted.status_code == 201
    job = submitted.json()
    assert job["state"] == DONE and job["ok"] is True
    assert job["sessions_total"] == service_env["sessions"]

    served = warm_client.get(f"/jobs/{job['id']}/report.csv")
    assert served.status_code == 200
    # The tentpole contract: rows through SQLite render byte-identical to
    # the in-memory sweep the CLI writes.
    assert served.text == service_env["reference_csv"]

    verdicts = warm_client.get(f"/jobs/{job['id']}/verdicts").json()
    assert len(verdicts["rows"]) == len(
        service_env["reference_csv"].splitlines()
    ) - 1
    assert verdicts["stats"]["sessions_simulated"] == 0  # warm cache dir

    html = warm_client.get(f"/jobs/{job['id']}/report.html")
    assert html.status_code == 200
    assert "<table" in html.text

    listing = warm_client.get("/jobs?limit=10").json()["jobs"]
    assert [j["id"] for j in listing] == [job["id"]]


def test_http_errors(warm_client, service_env):
    assert warm_client.get("/jobs/999").status_code == 404
    assert warm_client.get("/nope").status_code == 404
    assert warm_client.request("DELETE", "/jobs").status_code == 405
    assert warm_client.post("/jobs").status_code == 400  # empty body

    # Rows of a non-done job are a conflict, not a crash: create a queued
    # job behind the manager's back (after init, so crash recovery does
    # not claim it).
    queued = warm_client.app.manager.store.create_job("some-key")
    assert warm_client.get(f"/jobs/{queued}/report.csv").status_code == 409


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ([1, 2], "JSON object"),
        ({}, "exactly one of"),
        ({"grid": "smoke", "scenarios": []}, "exactly one of"),
        ({"grid": "nope"}, "unknown grid"),
        ({"grid": "smoke", "surprise": 1}, "unknown fields"),
        ({"grid": "smoke", "workers": True}, "'workers'"),
        ({"grid": "smoke", "workers": -1}, "'workers'"),
        ({"grid": "smoke", "precise": "yes"}, "'precise'"),
        ({"scenarios": []}, "non-empty list"),
        ({"scenarios": [{"part": "tiny"}]}, "needs a 'name'"),
        ({"scenarios": [{"name": "a", "oops": 1}]}, "unknown fields"),
        ({"scenarios": [{"name": "a", "seed": "x"}]}, "wrong type"),
        ({"scenarios": [{"name": "a", "part": "nope"}]}, "scenarios[0]"),
        ({"scenarios": [{"name": "a", "detectors": ["nope"]}]}, "unknown detectors"),
        ({"scenarios": [{"name": "a"}, {"name": "a"}]}, "unique"),
    ],
)
def test_submission_validation(warm_client, payload, fragment):
    response = warm_client.post("/jobs", payload)
    assert response.status_code == 400, response.text
    assert fragment in response.json()["error"]


# -- the dedup contract -------------------------------------------------


def test_dedup_same_instance(warm_client, service_env):
    first = warm_client.post("/jobs", service_env["payload"]).json()
    again = warm_client.post("/jobs", service_env["payload"])
    assert again.status_code == 200  # answered, not created
    job = again.json()
    assert job["state"] == DONE
    assert job["deduped_from"] == first["id"]
    assert job["stats"]["sessions_simulated"] == 0
    assert (
        warm_client.get(f"/jobs/{job['id']}/report.csv").text
        == service_env["reference_csv"]
    )


def test_dedup_across_instances_and_processes(service_env, tmp_path):
    """The store file is the dedup boundary: new instance, new process."""
    db = str(tmp_path / "jobs.sqlite3")
    app = create_app(db=db, cache=service_env["cache_dir"], background=False)
    first = ServiceClient(app).post("/jobs", service_env["payload"]).json()
    assert first["state"] == DONE
    app.manager.close()

    # Across runs: a brand-new service instance over the same file.
    app2 = create_app(db=db, cache=service_env["cache_dir"], background=False)
    rerun = ServiceClient(app2).post("/jobs", service_env["payload"])
    assert rerun.status_code == 200
    assert rerun.json()["deduped_from"] == first["id"]
    assert rerun.json()["stats"]["sessions_simulated"] == 0
    app2.manager.close()

    # Across users: a separate OS process over the same file.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import json, sys\n"
        "from repro.service import create_app, ServiceClient\n"
        f"app = create_app(db={db!r}, cache=False, background=False)\n"
        f"r = ServiceClient(app).post('/jobs', {service_env['payload']!r})\n"
        "print(json.dumps([r.status_code, r.json()['deduped_from'],"
        " r.json()['stats']['sessions_simulated']]))\n"
        "app.manager.close()\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    output = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    import json

    status, deduped_from, simulated = json.loads(output.strip().splitlines()[-1])
    assert (status, deduped_from, simulated) == (200, first["id"], 0)


def test_failed_jobs_never_satisfy_dedup(service_env, tmp_path):
    store = JobStore(str(tmp_path / "jobs.sqlite3"))
    key = "k" * 64
    failed = store.create_job(key)
    store.fail_job(failed, "boom")
    assert store.find_done(key) is None
    store.close()


def test_submission_key_tracks_content(tiny_grid):
    from dataclasses import replace

    def key(scenarios, fast_path=True):
        return submission_key(compile_sweep(scenarios, fast_path=fast_path))

    base = key(tiny_grid)
    assert base == key(list(tiny_grid))  # stable
    assert key([replace(tiny_grid[0], margin=0.2), tiny_grid[1]]) != base
    assert key([replace(tiny_grid[0], seed=7), tiny_grid[1]]) != base
    assert key(tiny_grid, fast_path=False) != base


def test_smoke_grid_submission_keys_are_pinned():
    # A moved key silently disables dedup against every stored job.
    smoke = grid_scenarios("smoke")
    assert submission_key(compile_sweep(smoke)) == (
        "ccc810fc7c269274b08d54b5550e1639a8c7f1912e12858f16ead6d3c889dd6c"
    )
    assert submission_key(compile_sweep(smoke, fast_path=False)) == (
        "5771ac5bd3eeac08386cda769cd396685c30912c2d0e93278b297f25e1f6359a"
    )


def test_job_compiles_each_scenario_once(service_env, tmp_path, monkeypatch):
    """``submit`` compiles one plan for the key, the session count and the
    sweep; a deduped resubmit compiles only for the key."""
    import repro.experiments.scenario as scenario_mod

    payload = service_env["payload"]
    scenarios = len(payload["scenarios"])
    compiled = []
    real = scenario_mod.compile_scenario

    def counting(scenario, **kwargs):
        compiled.append(scenario.name)
        return real(scenario, **kwargs)

    manager = JobManager(
        JobStore(str(tmp_path / "jobs.sqlite3")),
        cache=service_env["cache_dir"],
        background=False,
    )
    key = submission_key(compile_sweep(parse_submission(payload).scenarios))
    monkeypatch.setattr(scenario_mod, "compile_scenario", counting)

    job, created = manager.submit(payload)
    assert created and job["state"] == DONE
    assert len(compiled) == scenarios
    assert job["sessions_total"] == service_env["sessions"]
    assert job["submission_key"] == key

    compiled.clear()
    again, created = manager.submit(payload)
    assert not created and again["deduped_from"] == job["id"]
    assert len(compiled) == scenarios
    assert again["submission_key"] == key
    manager.close()


# -- store durability ---------------------------------------------------


def test_schema_version_bump_invalidates_store(tmp_path):
    db = str(tmp_path / "jobs.sqlite3")
    store = JobStore(db)
    store.create_job("key")
    assert store.count() == 1
    store.close()

    # Same version: jobs survive a reopen.
    reopened = JobStore(db)
    assert reopened.count() == 1
    reopened.close()

    # Bumped version: the store starts fresh — stale rows are never served
    # under new semantics.
    bumped = JobStore(db, schema_version=SERVICE_SCHEMA_VERSION + 1)
    assert bumped.count() == 0
    assert bumped.find_done("key") is None
    bumped.close()


def test_corrupt_store_quarantined(tmp_path):
    db = str(tmp_path / "jobs.sqlite3")
    corrupt_file(db, b"this is not a sqlite database at all\x00\xff")
    with pytest.warns(RuntimeWarning, match="quarantined"):
        store = JobStore(db)
    # Degraded to a fresh, working store; the bad bytes are preserved.
    assert store.count() == 0
    assert store.create_job("key") == 1
    assert os.path.exists(db + ".corrupt")
    store.close()


def test_crashed_jobs_failed_on_reopen(tmp_path):
    db = str(tmp_path / "jobs.sqlite3")
    store = JobStore(db)
    queued = store.create_job("key")
    running = store.create_job("key2")
    store.mark_running(running, 4)
    store.close()

    # A new manager over the same file is "the service restarted".
    manager = JobManager(JobStore(db), cache=False, background=False)
    assert manager.restart_failures == 2
    for job_id in (queued, running):
        job = manager.job(job_id)
        assert job["state"] == FAILED
        assert "restarted" in job["error"]
    manager.close()


def test_failed_submission_is_a_failed_job(service_env, tmp_path, monkeypatch):
    """A sweep that raises fails its job (error text stored), not the service —
    and a failed job never satisfies a later dedup probe."""
    import repro.service.jobs as jobs_mod

    manager = JobManager(
        JobStore(str(tmp_path / "jobs.sqlite3")),
        cache=service_env["cache_dir"],
        background=False,
    )

    def boom(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(jobs_mod, "run_sweep", boom)
    job, created = manager.submit(service_env["payload"])
    assert created and job["state"] == FAILED
    assert "RuntimeError: engine exploded" in job["error"]
    with pytest.raises(Exception, match="failed"):
        manager.require_done(job["id"])

    # The resubmission recomputes (created=True) instead of serving the
    # failure from the store — and succeeds once the engine works again.
    monkeypatch.undo()
    retry, recreated = manager.submit(service_env["payload"])
    assert recreated and retry["state"] == DONE
    manager.close()


# -- background execution + streaming (the one cold sweep) ---------------


def test_background_job_progress_and_events(service_env, tmp_path, tiny_grid):
    """Cold cache, background thread: poll to done, then stream events."""
    app = create_app(
        db=str(tmp_path / "jobs.sqlite3"),
        cache=str(tmp_path / "cold-cache"),  # fresh: every session simulates
        background=True,
    )
    client = ServiceClient(app)
    submitted = client.post("/jobs", service_env["payload"])
    assert submitted.status_code == 201
    job_id = submitted.json()["id"]
    assert submitted.json()["state"] in ("queued", "running", "done")

    job = app.manager.wait(job_id, timeout_s=600.0)
    assert job["state"] == DONE and job["ok"] is True
    # Cold cache: the progress callback ticked every simulated session.
    assert job["sessions_done"] == job["sessions_total"] == service_env["sessions"]
    assert job["stats"]["sessions_simulated"] == service_env["sessions"]

    # Byte parity holds for the cold background path too.
    assert (
        client.get(f"/jobs/{job_id}/report.csv").text
        == service_env["reference_csv"]
    )

    # SSE on a finished job: exactly one terminal event, then the stream ends.
    chunks = b"".join(client.stream(f"/jobs/{job_id}/events"))
    events = [c for c in chunks.decode().split("\n\n") if c.startswith("data: ")]
    assert len(events) == 1
    import json

    final = json.loads(events[0][len("data: ") :])
    assert final["state"] == DONE
    app.manager.close()
