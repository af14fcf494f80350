#!/usr/bin/env python
"""Verdict-parity smoke harness: every topology must reproduce one answer key.

For each grid, one cold serial reference CSV comes from the real CLI
(``repro sweep --grid G --csv``). Each CHECK runs the grid another way,
must end ok, and must produce those CSV bytes exactly:

* ``distrib`` -- ``--hosts 2 --workers 2`` over a filesystem queue; the
  summaries the workers cached outweigh the verdict rows sent back by at
  least ``PAYLOAD_SHRINK_FLOOR``; a warm repeat simulates nothing.
* ``service`` -- the sweep service in-process over a fresh job store and
  cache: submit (201), poll to done, fetch ``report.csv``; a resubmit to
  the same instance and to a second one over the same store is deduped
  (200, 0 simulated).
* ``steal`` -- the HTTP shard queue with two throttled stragglers, then
  the same pair plus a late-joining ``repro worker <url>`` subprocess that
  must run a shard and shorten the sweep; a warm repeat simulates nothing.

Exit 1 on any failure. ``--record PATH`` merges the numbers into PATH one
(grid, check) section at a time, so a smoke-only run keeps full-grid ones.

    python scripts/smoke.py [--grid G]... [--record PATH] CHECK...
"""

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from unittest import mock

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, _SRC)

from repro.cli import main as repro_main  # noqa: E402
from repro.experiments import distrib  # noqa: E402
from repro.experiments.batch import SessionCache  # noqa: E402
from repro.experiments.report import render_csv  # noqa: E402
from repro.experiments.scenario import grid_scenarios, run_sweep  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.app import background_server, create_app  # noqa: E402

WORKERS = 2
CLAIM_THROTTLE_S = 2.0
LATE_JOIN_DELAY_S = 0.25

# A worker whose every claim costs a fixed sleep: the reproducible stand-in
# for a slow host, so the rebalance win is structural (idle time removed)
# and shows even on a single-CPU container.
# argv: target, worker id, throttle seconds, cache dir.
_STRAGGLER = """
import sys, time
from repro.experiments.distrib import Worker

class Straggler(Worker):
    def _claim_next(self):
        time.sleep(float(sys.argv[3]))
        return super()._claim_next()

Straggler(sys.argv[1], sys.argv[2], cache=sys.argv[4], poll_s=0.1,
          idle_timeout_s=300).run()
"""


class SmokeFailure(Exception):
    pass


def _row(label, seconds, note=""):
    """One aligned record line: ``label:   12.34s  note``."""
    return f"{label + ':':<30}{seconds:7.2f}s" + (f"  {note}" if note else "")


class Run:
    """One grid's fixed inputs: scenarios, the reference CSV, a scratch dir."""

    def __init__(self, grid, base):
        self.grid = grid
        self.base = base
        self.scenarios = grid_scenarios(grid)
        ref = os.path.join(base, "ref.csv")
        argv = ["sweep", "--grid", grid, "--cache-dir", self.path("ref-cache"),
                "--csv", ref]
        out = io.StringIO()
        started = time.monotonic()
        with contextlib.redirect_stdout(out):
            code = repro_main(argv)
        self.reference_s = time.monotonic() - started
        if code != 0:
            raise SmokeFailure(
                f"reference `repro {' '.join(argv)}` exited {code}:\n{out.getvalue()}"
            )
        with open(ref, "rb") as handle:
            self.reference = handle.read()

    def path(self, name):
        return os.path.join(self.base, name)

    def expect_parity(self, label, csv):
        """``csv`` bytes must equal the reference byte for byte."""
        if csv != self.reference:
            raise SmokeFailure(
                f"verdict drift on the {label} run:\n"
                f"--- reference ---\n{self.reference.decode('utf-8')}\n"
                f"--- {label} ---\n{csv.decode('utf-8', 'replace')}"
            )

    def sweep(self, label, cache_dir, **topology):
        """One sweep of the grid that must be ok and match the reference."""
        result = run_sweep(
            self.scenarios, cache=SessionCache(directory=cache_dir),
            grid=self.grid, **topology,
        )
        if not result.ok:
            raise SmokeFailure(f"{label} sweep not ok:\n{result.render()}")
        self.expect_parity(label, render_csv(result).encode("utf-8"))
        return result

    def warm_repeat(self, cache_dir, **topology):
        """Re-sweep over a filled cache: nothing simulated, same CSV."""
        repeat = self.sweep("warm repeat", cache_dir, **topology)
        if repeat.sessions_simulated or repeat.cache_misses:
            raise SmokeFailure(
                f"warm repeat re-simulated {repeat.sessions_simulated} sessions "
                f"({repeat.cache_misses} misses); expected 0"
            )
        return _row("warm repeat", repeat.wall_clock_s, "(0 simulated, 0 misses)")

    def header(self, check, sessions, extra=""):
        return (
            f"grid: {self.grid}, check: {check} ({len(self.scenarios)} "
            f"scenarios, {sessions} unique sessions{extra})\n"
            + _row("serial reference (CLI)", self.reference_s)
        )


def check_distrib(run):
    cache_dir = run.path("distrib-cache")
    result = run.sweep(
        f"hosts=2 workers={WORKERS}", cache_dir,
        hosts=2, workers=WORKERS, transport=run.path("work"),
    )
    if not result.host_stats:
        raise SmokeFailure("the hosts=2 run reported no per-host stats")
    summary_bytes = SessionCache(directory=cache_dir).disk_bytes()
    if result.payload_bytes <= 0 or summary_bytes <= 0:
        raise SmokeFailure(
            f"payload accounting missing: verdict {result.payload_bytes} B, "
            f"summaries {summary_bytes} B"
        )
    shrink = summary_bytes / result.payload_bytes
    if shrink < distrib.PAYLOAD_SHRINK_FLOOR:
        raise SmokeFailure(
            f"verdict payload only {shrink:.1f}x smaller than summaries "
            f"({result.payload_bytes} vs {summary_bytes} B); expected >= "
            f"{distrib.PAYLOAD_SHRINK_FLOOR:.0f}x"
        )
    repeat = run.warm_repeat(
        cache_dir, hosts=2, workers=WORKERS, transport=run.path("work-repeat")
    )
    hosts = "; ".join(
        f"{h['worker']}: {h['sessions']} sessions in {h['wall_clock_s']:.1f}s"
        for h in result.host_stats
    )
    return [
        run.header("distrib", result.sessions_total),
        f"attacks detected: {result.attacks_detected}/"
        f"{len(result.attack_outcomes)}; false positives: {result.false_positives}",
        _row(f"hosts=2 workers={WORKERS}", result.wall_clock_s, f"[{hosts}]"),
        repeat,
        f"done/ payload: verdict rows {result.payload_bytes} B vs summaries on "
        f"disk {summary_bytes} B ({shrink:.1f}x smaller)",
    ]


def _expect(response, status, label):
    """``response`` must carry HTTP ``status``; returns it."""
    if response.status_code != status:
        raise SmokeFailure(
            f"{label}: expected HTTP {status}, got {response.status_code}: "
            f"{response.text}"
        )
    return response


def _wait_done(client, job_id, timeout_s=600.0):
    """Poll ``GET /jobs/{id}`` to a terminal state, like a remote client."""
    deadline = time.monotonic() + timeout_s
    polls = 0
    while True:
        job = _expect(client.get(f"/jobs/{job_id}"), 200, "poll").json()
        polls += 1
        if job["state"] in ("done", "failed"):
            return job, polls
        if time.monotonic() >= deadline:
            raise SmokeFailure(
                f"job {job_id} still {job['state']} ({job['sessions_done']}/"
                f"{job['sessions_total']}) after {timeout_s:.0f}s"
            )
        time.sleep(0.1)


def _expect_dedup(run, client, source_id, label):
    """A resubmit must be answered from the store: 200, deduped, 0 simulated."""
    job = _expect(client.post("/jobs", {"grid": run.grid}), 200, label).json()
    simulated = (job["stats"] or {}).get("sessions_simulated")
    if job["state"] != "done" or job["deduped_from"] != source_id or simulated:
        raise SmokeFailure(
            f"{label}: expected a done job deduped from {source_id} with 0 "
            f"sessions simulated, got {job}"
        )
    run.expect_parity(label, client.get(f"/jobs/{job['id']}/report.csv").content)
    return job


def check_service(run):
    db = run.path("jobs.sqlite3")
    cache_dir = run.path("service-cache")
    app = create_app(db=db, cache=cache_dir)
    with contextlib.closing(app.manager):
        client = ServiceClient(app)
        health = client.get("/healthz").json()
        if health.get("status") != "ok":
            raise SmokeFailure(f"unhealthy service: {health}")
        submitted = _expect(client.post("/jobs", {"grid": run.grid}), 201, "submit")
        job, polls = _wait_done(client, submitted.json()["id"])
        if job["state"] != "done" or not job["ok"]:
            raise SmokeFailure(
                f"job {job['id']} finished {job['state']} (ok={job['ok']}): "
                f"{job['error'] or 'detection gap'}"
            )
        served = _expect(client.get(f"/jobs/{job['id']}/report.csv"), 200, "report")
        run.expect_parity("service report.csv", served.content)
        deduped = _expect_dedup(run, client, job["id"], "warm resubmit")
    app = create_app(db=db, cache=cache_dir)
    with contextlib.closing(app.manager):
        again = _expect_dedup(run, ServiceClient(app), job["id"], "second instance")
    stats = job["stats"] or {}
    return [
        run.header("service", job["sessions_total"]),
        _row(f"submitted job {job['id']}", stats.get("wall_clock_s", 0.0),
             f"(done after {polls} polls, {stats.get('sessions_simulated', 0)} "
             "simulated into a fresh cache)"),
        f"warm resubmit (job {deduped['id']}): HTTP 200, deduped_from="
        f"{deduped['deduped_from']}, 0 sessions simulated",
        f"second instance (job {again['id']}): HTTP 200, deduped across runs "
        "from the same store, 0 sessions simulated",
    ]


def _stragglers(cache_dir):
    """Make every worker the coordinator spawns a throttled straggler."""

    def command(self, work, worker_id):
        return [sys.executable, "-c", _STRAGGLER, work.worker_target(),
                worker_id, str(CLAIM_THROTTLE_S), cache_dir]

    return mock.patch.object(distrib.Coordinator, "_worker_command", command)


@contextlib.contextmanager
def _late_joiner(target, cache_dir):
    """A real ``repro worker <url>`` subprocess, started mid-sweep."""
    procs = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)

    def launch():
        time.sleep(LATE_JOIN_DELAY_S)
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", target, "--id",
             "late-joiner", "--poll-s", "0.05", "--idle-timeout-s", "120",
             "--cache-dir", cache_dir],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
        ))

    thread = threading.Thread(target=launch)
    thread.start()
    try:
        yield
    finally:
        thread.join(timeout=10)
        for proc in procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()


def check_steal(run):
    with background_server(create_app(db=":memory:", background=True)) as url:
        queue = f"{url}/queues/steal-"
        straggle_cache = run.path("straggle-cache")
        with _stragglers(straggle_cache):
            straggle = run.sweep(
                "straggler baseline", straggle_cache,
                hosts=2, steal=True, transport=queue + "straggle",
            )
        if straggle.requeues:
            raise SmokeFailure(
                f"the straggler baseline forfeited {straggle.requeues} claim(s); "
                "throttled workers should be slow, not condemned"
            )
        elastic_cache = run.path("elastic-cache")
        with _stragglers(elastic_cache), _late_joiner(queue + "elastic", elastic_cache):
            elastic = run.sweep(
                "elastic", elastic_cache,
                hosts=2, steal=True, transport=queue + "elastic",
            )
        late = [h for h in elastic.host_stats if h["worker"] == "late-joiner"]
        if not late or late[0]["shards"] < 1:
            raise SmokeFailure(
                f"the late joiner never ran a shard; host stats: {elastic.host_stats}"
            )
        if elastic.wall_clock_s >= straggle.wall_clock_s:
            raise SmokeFailure(
                f"the late joiner did not shorten the sweep: elastic "
                f"{elastic.wall_clock_s:.2f}s vs stragglers alone "
                f"{straggle.wall_clock_s:.2f}s"
            )
        repeat = run.warm_repeat(
            elastic_cache, hosts=2, steal=True, transport=queue + "repeat"
        )
    shards = "; ".join(
        f"{h['worker']}: {h['shards']} shard(s)" for h in elastic.host_stats
    )
    return [
        run.header("steal", elastic.sessions_total,
                   f", {sum(h['shards'] for h in elastic.host_stats)} steal shards"),
        _row("2 throttled stragglers alone", straggle.wall_clock_s),
        _row("stragglers + late joiner", elastic.wall_clock_s, f"[{shards}]"),
        repeat,
    ]


CHECKS = {"distrib": check_distrib, "service": check_service, "steal": check_steal}
_SECTION = re.compile(r"^grid: (\S+), check: (\w+)")


def merge_record(path, fresh):
    """Rewrite ``path``, replacing only the (grid, check) sections in ``fresh``."""
    sections = {}
    try:
        with open(path, encoding="utf-8") as handle:
            blocks = handle.read().split("\n\n")
    except FileNotFoundError:
        blocks = []
    for block in blocks:
        block = block.strip("\n")
        match = _SECTION.match(block)
        if match:
            sections[match.groups()] = block
    sections.update(fresh)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "verdict parity smoke: every check's CSV is byte-identical to one\n"
            "cold serial reference per grid (scripts/smoke.py; sections refresh\n"
            "independently per grid and check)\n\n"
        )
        handle.write("\n\n".join(sections.values()) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--grid", action="append", help="grid to check (repeatable; default: smoke)"
    )
    parser.add_argument("--record", help="merge the measured numbers into this file")
    parser.add_argument("checks", nargs="+", choices=sorted(CHECKS), metavar="CHECK")
    args = parser.parse_args(argv)

    fresh = {}
    for grid in args.grid or ["smoke"]:
        check = "reference"
        with tempfile.TemporaryDirectory(prefix="repro-smoke-") as base:
            try:
                run = Run(grid, base)
                for check in dict.fromkeys(args.checks):
                    fresh[grid, check] = "\n".join(CHECKS[check](run))
            except SmokeFailure as failure:
                print(f"smoke: FAIL [grid {grid}, {check}] — {failure}")
                return 1
    print("smoke: OK\n" + "\n\n".join(fresh.values()))
    if args.record:
        merge_record(args.record, fresh)
        print(f"recorded -> {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
