"""The benchmark's three closed-loop workloads and the sweeps they repeat.

Every workload drives the public sweep API from one process: each op
starts only after the previous one completes. The workload seed shifts
every scenario seed (and golden seed), so a claim can be re-checked on
inputs it was not tuned on. Between ops a short fixed piece of work probes
the host's speed (``hostspeed``), so timings can be scaled to a reference
speed.

* ``cold-mix`` — the ``full`` grid's composition at about a third of its
  size, swept serially into an empty cache directory. Simulation is
  nearly all of the host time, so the sim/firmware/electronics/physics/
  core packages show here. An op is one simulated session (the interval
  between ``progress=`` completions).
* ``warm-mix`` — the same mix re-swept through a fresh ``SessionCache``
  per op over a directory filled during set-up: what a new ``repro
  sweep`` process sees. Nothing is simulated, so a kernel change should
  leave it unchanged. An op is one sweep plus its CSV/HTML reports.
* ``steal-tiny`` — T1-T9 on ``tiny`` over three Trojan seeds plus a
  noise-free clean scenario, swept cold with ``hosts=2, steal=True,
  workers=1`` over the HTTP shard queue of an in-process ``create_app``
  server. Sessions are short, so worker spawn, claim/beat polling and
  SQLite/HTTP round trips stand out. An op is one sweep.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import itertools
import os
import pstats
import shutil
import socketserver
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type,
)
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro.experiments import distrib
from repro.experiments.batch import SessionCache
from repro.experiments.report import render_csv, render_html
from repro.experiments.scenario import (
    TROJAN_IDS,
    ScenarioSpec,
    SweepResult,
    clean_scenarios,
    compile_scenario,
    dr0wned_scenarios,
    flaw3d_scenarios,
    run_sweep,
    trojan_scenarios,
)
from repro.service.app import create_app
from hostspeed import HostSpeed
from spans import TimedApp, Tracer, profile_call

PARTS = ("tiny", "standard", "table1", "dense")
WORKER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def _shift(scenarios: Sequence[ScenarioSpec], seed: int) -> List[ScenarioSpec]:
    return [
        dataclasses.replace(s, seed=s.seed + seed, golden_seed=s.golden_seed + seed)
        for s in scenarios
    ]


def mix_scenarios(seed: int) -> List[ScenarioSpec]:
    """15 scenarios in the ``full`` grid's proportions (23 unique sessions).

    Two clean baselines, each Trojan once with the parts rotating so every
    part appears, three Flaw3D cases on ``dense`` and one dr0wned void:
    every detector and every part is exercised.
    """
    scenarios = clean_scenarios(parts=("tiny", "table1"))
    for index, trojan_id in enumerate(TROJAN_IDS):
        part = PARTS[index % len(PARTS)]
        scenarios += [
            s for s in trojan_scenarios(parts=(part,)) if s.attack == trojan_id
        ]
    flaw3d = flaw3d_scenarios()
    scenarios += [flaw3d[1], flaw3d[3], flaw3d[5]]
    scenarios += dr0wned_scenarios(parts=("standard",))
    return _shift(scenarios, seed)


def steal_scenarios(seed: int) -> List[ScenarioSpec]:
    """T1-T9 on ``tiny`` at three Trojan seeds plus a clean control.

    Noise-free, so all 28 scenarios share one golden: 28 unique sessions.
    """
    scenarios = [
        dataclasses.replace(s, name=f"{s.name}#{k}")
        for k in range(3)
        for s in trojan_scenarios(parts=("tiny",), seed=42 + 100 * k)
    ]
    scenarios.append(
        ScenarioSpec(name="clean@tiny", part="tiny",
                     detectors=("golden", "quality"), noise_sigma=0.0)
    )
    return _shift(scenarios, seed)


def _sample(scenarios: List[ScenarioSpec], limit: Optional[int]) -> List[ScenarioSpec]:
    """Every k-th scenario, so a small run still spans the mix."""
    if not limit or limit >= len(scenarios):
        return scenarios
    stride = -(-len(scenarios) // limit)
    return scenarios[::stride][:limit]


def csv_digest(result: SweepResult) -> str:
    return hashlib.sha256(render_csv(result).encode()).hexdigest()


@dataclasses.dataclass
class Sweep:
    """One closed-loop unit reduced to what the metrics and checks read.

    The sweep's summaries are dropped as soon as it is recorded, so the
    benchmark's own bookkeeping does not inflate ``peak_rss_mb``.
    """

    start: float
    end: float
    ops: List[float]
    digest: str
    sessions_total: int
    sessions_simulated: int
    sessions_failed: int
    print_s: float
    events: int
    attacks: int
    attacks_detected: int
    clean: int
    false_positives: int
    cache_hits: int
    cache_misses: int
    cache_disk_hits: int
    host_stats: List[Dict[str, Any]]
    requeues: int
    payload_bytes: int
    worker_starts: List[float] = dataclasses.field(default_factory=list)
    probe_s: float = 0.0
    """Time spent probing host speed inside the sweep, left out of its wall."""

    @classmethod
    def of(cls, result: SweepResult, start: float, end: float,
           digest: str) -> "Sweep":
        sessions = {
            session.spec_key: session
            for outcome in result.outcomes
            for session in (outcome.golden, outcome.suspect)
        }.values()
        return cls(
            start=start, end=end, ops=[end - start], digest=digest,
            sessions_total=result.sessions_total,
            sessions_simulated=result.sessions_simulated,
            sessions_failed=result.sessions_failed,
            print_s=sum(s.duration_s for s in sessions),
            # Worker-side scoring ships digests, which carry no event count.
            events=sum(getattr(s, "events_dispatched", 0) for s in sessions),
            attacks=len(result.attack_outcomes),
            attacks_detected=result.attacks_detected,
            clean=len(result.clean_outcomes),
            false_positives=result.false_positives,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            cache_disk_hits=result.cache_disk_hits,
            host_stats=result.host_stats,
            requeues=result.requeues,
            payload_bytes=result.payload_bytes,
        )

    @property
    def wall_s(self) -> float:
        return self.end - self.start - self.probe_s


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class Workload:
    """Shared set-up and sweep timing; subclasses define one op's sweep."""

    name = ""
    min_ops = 0
    """Ops a run takes at least, so the tail percentile is the same each run."""
    probes_per_sweep = 3
    """Host-speed probes taken before each sweep."""
    app: Optional[TimedApp] = None
    """The timed shard-queue server, on workloads that distribute."""

    def __init__(self, seed: int, work_dir: str, limit: Optional[int] = None) -> None:
        self.work_dir = work_dir
        self.scenarios = _sample(self.build(seed), limit)
        self._dirs = itertools.count()
        self.speed = HostSpeed()

    def build(self, seed: int) -> List[ScenarioSpec]:
        return mix_scenarios(seed)

    def setup(self) -> None:
        """Slice every part and compile and hash every scenario once."""
        for scenario in self.scenarios:
            for spec in compile_scenario(scenario):
                spec.content_key()

    def prepare(self) -> None:
        """State the first op needs that is not program set-up (none here)."""

    def fresh_dir(self) -> str:
        return os.path.join(self.work_dir, f"cache-{next(self._dirs)}")

    def _timed(self, tracer: Optional[Tracer],
               sweep: Callable[[], SweepResult]) -> Sweep:
        """Time ``sweep`` plus both reports, as a user of ``repro sweep`` sees."""
        with _span(tracer, "op"):
            start = time.perf_counter()
            result = sweep()
            with _span(tracer, "report.csv"):
                csv = render_csv(result)
            with _span(tracer, "report.html"):
                render_html(result)
            end = time.perf_counter()
        return Sweep.of(result, start, end, hashlib.sha256(csv.encode()).hexdigest())

    def sweep(self, tracer: Optional[Tracer] = None) -> Sweep:
        raise NotImplementedError

    def traced_workers(self, spans_dir: str):
        """Context in which sweeps also trace their worker processes."""
        return nullcontext()

    def profile(self) -> Optional[pstats.Stats]:
        """One sweep under cProfile (sim-heavy work in this process)."""
        return profile_call(self.sweep)

    def check(self, sweeps: Sequence[Sweep]) -> List[str]:
        """Output checks every op must pass; returns the failures."""
        problems = []
        if len({s.digest for s in sweeps}) != 1:
            problems.append("verdict CSV differs between ops of one seed")
        return problems

    def reference_events(self, sweeps: Sequence[Sweep]) -> int:
        """Exact kernel events behind the unique sessions of one sweep."""
        return sweeps[-1].events

    def close(self) -> None:
        pass


class ColdMix(Workload):
    name = "cold-mix"
    min_ops = 40
    probes_per_sweep = 1

    def sweep(self, tracer: Optional[Tracer] = None) -> Sweep:
        """Probes the host after every session, outside the op intervals."""
        directory = self.fresh_dir()
        marks: List[Tuple[float, float]] = []  # (session done, probe done)

        def progress(_summary) -> None:
            done = time.perf_counter()
            self.speed.sample()
            marks.append((done, time.perf_counter()))

        swept = self._timed(
            tracer,
            lambda: run_sweep(
                self.scenarios, cache=SessionCache(directory), progress=progress,
            ),
        )
        shutil.rmtree(directory)
        starts = [swept.start] + [probed for _, probed in marks]
        swept.ops = [done - start for start, (done, _) in zip(starts, marks)]
        swept.probe_s = sum(probed - done for done, probed in marks)
        return swept

    def check(self, sweeps: Sequence[Sweep]) -> List[str]:
        problems = super().check(sweeps)
        for swept in sweeps:
            if swept.sessions_simulated != swept.sessions_total:
                problems.append(
                    f"cold sweep simulated {swept.sessions_simulated} of "
                    f"{swept.sessions_total} unique sessions"
                )
            if len(swept.ops) != swept.sessions_total:
                problems.append("progress= did not report every session")
        return problems


class WarmMix(Workload):
    name = "warm-mix"
    min_ops = 40

    def prepare(self) -> None:
        """Fill the cache directory the ops re-sweep (a cold sweep).

        The fill is not measured, so it uses both of the host's processors.
        """
        self.cache_dir = self.fresh_dir()
        started = time.perf_counter()
        fill = run_sweep(
            self.scenarios, workers=2, cache=SessionCache(self.cache_dir)
        )
        self.fill = Sweep.of(fill, started, time.perf_counter(), csv_digest(fill))

    def sweep(self, tracer: Optional[Tracer] = None) -> Sweep:
        return self._timed(
            tracer,
            lambda: run_sweep(self.scenarios, cache=SessionCache(self.cache_dir)),
        )

    def check(self, sweeps: Sequence[Sweep]) -> List[str]:
        problems = super().check(sweeps)
        if sweeps[0].digest != self.fill.digest:
            problems.append("warm verdict CSV differs from its cold fill")
        if self.fill.sessions_simulated != self.fill.sessions_total:
            problems.append("the cold fill did not simulate every session")
        if any(s.sessions_simulated for s in sweeps):
            problems.append("a warm op simulated sessions")
        return problems


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 - wsgiref signature
        pass


class _ThreadedServer(socketserver.ThreadingMixIn, WSGIServer):
    daemon_threads = True


class StealTiny(Workload):
    name = "steal-tiny"
    probes_per_sweep = 0
    """The workers probe the host after each session, where the work runs."""

    def build(self, seed: int) -> List[ScenarioSpec]:
        return steal_scenarios(seed)

    def setup(self) -> None:
        super().setup()
        self.app = TimedApp(create_app(db=":memory:", cache=None, background=False))
        self.server = make_server(
            "127.0.0.1", 0, self.app,
            server_class=_ThreadedServer, handler_class=_QuietHandler,
        )
        self.thread = threading.Thread(target=self.server.serve_forever)
        self.thread.start()
        self.target = f"http://127.0.0.1:{self.server.server_address[1]}/queues/bench"
        self.reference: Optional[Sweep] = None
        self.probe_dir = self.fresh_dir()
        os.makedirs(self.probe_dir)
        self.worker_mode = ("probe", self.probe_dir)
        self._worker_command = distrib.Coordinator._worker_command

        def command(coordinator, work, worker_id):
            argv = self._worker_command(coordinator, work, worker_id)
            # argv is [python, "-m", "repro", "worker", ...]
            return [sys.executable, WORKER_SCRIPT, *self.worker_mode] + argv[3:]

        # The coordinator spawns this benchmark's worker instead of ``repro``.
        distrib.Coordinator._worker_command = command

    def sweep(self, tracer: Optional[Tracer] = None) -> Sweep:
        directory = self.fresh_dir()
        self.app.reset_workers()
        swept = self._timed(
            tracer,
            lambda: run_sweep(
                self.scenarios, cache=SessionCache(directory), hosts=2,
                steal=True, workers=1, transport=self.target,
            ),
        )
        shutil.rmtree(directory)
        swept.worker_starts = [
            first - swept.start for first in self.app.first_beat.values()
        ]
        for path in glob.glob(os.path.join(self.probe_dir, "*.probe")):
            with open(path) as handle:
                self.speed.samples += [float(line) for line in handle]
            os.remove(path)
        return swept

    @contextmanager
    def workers_as(self, mode: str, out_dir: str) -> Iterator[None]:
        """Run the workers traced or profiled instead of probed."""
        probing = self.worker_mode
        self.worker_mode = (mode, out_dir)
        try:
            yield
        finally:
            self.worker_mode = probing

    @contextmanager
    def traced_workers(self, spans_dir: str) -> Iterator[None]:
        """Trace the spawned workers and time every shard-queue request."""
        self.app.active = True
        try:
            with self.workers_as("spans", spans_dir):
                yield
        finally:
            self.app.active = False

    def profile(self) -> Optional[pstats.Stats]:
        """One sweep with cProfile in the workers, where sessions run."""
        out_dir = self.fresh_dir()
        os.makedirs(out_dir)
        with self.workers_as("profile", out_dir):
            self.sweep()
        files = sorted(glob.glob(os.path.join(out_dir, "*.prof")))
        return pstats.Stats(*files) if files else None

    def _reference(self) -> Sweep:
        """A serial sweep of the same scenarios (the parity reference)."""
        if self.reference is None:
            directory = self.fresh_dir()
            self.reference = self._timed(
                None, lambda: run_sweep(self.scenarios, cache=SessionCache(directory))
            )
            shutil.rmtree(directory)
        return self.reference

    def check(self, sweeps: Sequence[Sweep]) -> List[str]:
        problems = super().check(sweeps)
        if sweeps[0].digest != self._reference().digest:
            problems.append("distributed verdict CSV differs from a serial sweep")
        for swept in sweeps:
            if swept.sessions_simulated != swept.sessions_total:
                problems.append("a cold distributed sweep skipped sessions")
        return problems

    def reference_events(self, sweeps: Sequence[Sweep]) -> int:
        # The serial reference simulated the very same sessions in-process.
        return self._reference().events

    def close(self) -> None:
        distrib.Coordinator._worker_command = self._worker_command
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.app.app.manager.close()


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (ColdMix, WarmMix, StealTiny)
}
