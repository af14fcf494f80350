"""Batched, parallel experiment execution.

Every paper artifact (Table I, Table II, Figure 4, drift, ablation,
overhead) is a set of independent simulated prints followed by scoring.
This module turns that shape into infrastructure:

* :class:`SessionSpec` — a picklable, content-addressable description of
  one print session (program, config, noise, Trojan, routing, budgets);
* :class:`SessionSummary` — the picklable reduction of a
  :class:`~repro.experiments.runner.SessionResult` carrying everything the
  scorers consume (capture, deposition trace, final counts, thermal peaks,
  Trojan counters, signal traces);
* :class:`SessionCache` — a content-keyed cache of completed session
  summaries (golden *and* suspect prints: the key covers the G-code, the
  Trojan id/config/seed, the firmware config, and every sim parameter), so
  any session already simulated anywhere is never simulated again;
  optionally persistent on disk (``directory=...`` / ``REPRO_CACHE_DIR``),
  so sessions survive across processes and runs and repeat sweeps become
  zero-resimulation no-ops (``GoldenPrintCache`` remains as an alias from
  the era when only golden prints were cached);
* :class:`BatchRunner` — fans a list of specs across worker processes
  (``concurrent.futures.ProcessPoolExecutor``), deduplicating identical
  specs within a batch and submitting longest-expected-first (see
  :meth:`SessionSpec.estimated_cost`) so one long session cannot
  straggle the whole batch. With ``workers=1`` everything runs serially
  in-process through the very same execution path, so results are
  bit-identical between the serial and parallel modes.

Scenario sweeps (:mod:`repro.experiments.scenario`) compile their grids
down to specs and submit them here rather than calling
:func:`~repro.experiments.runner.run_print` in a loop.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.capture import PulseCapture, Transaction
from repro.core.trojans import make_trojan
from repro.errors import ReproError
from repro.experiments.runner import PrintSession, SessionResult
from repro.firmware.config import MarlinConfig
from repro.firmware.marlin import PrinterStatus
from repro.gcode.ast import GcodeProgram
from repro.gcode.writer import write_line
from repro.physics.deposition import PartTrace
from repro.sim.trace import Tracer
from repro.util import atomic_pickle


# id(program) -> (program, sha256 of its rendered lines); one key pass only.
ProgramDigests = Dict[int, Tuple[GcodeProgram, Any]]


def program_sha256(program: GcodeProgram) -> Any:
    """A sha256 object fed the program's rendered lines, one newline after each.

    The one program hash: session content keys continue from a copy of it,
    and ad-hoc part names are cut from its hex digest.
    """
    digest = hashlib.sha256()
    for line in map(write_line, program):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest


@dataclass(frozen=True)
class SessionSpec:
    """A self-contained, picklable description of one print session.

    Trojans are carried as ``(trojan_id, trojan_params)`` rather than live
    objects — the worker constructs the Trojan via
    :func:`~repro.core.trojans.make_trojan`, since an attached Trojan holds
    simulator references that cannot cross a process boundary.
    """

    program: GcodeProgram
    config: Optional[MarlinConfig] = None
    noise_sigma: float = 0.0
    noise_seed: int = 0
    trojan_id: Optional[str] = None
    trojan_params: Mapping[str, Any] = field(default_factory=dict)
    trojan_seed: int = 0
    uart_period_ms: int = 100
    grace_s: float = 1.0
    timeout_s: float = 900.0
    trace_signals: bool = False
    route_all_through_fpga: bool = False
    fast_path: bool = False
    label: str = ""
    cacheable: bool = False

    def estimated_cost(self) -> float:
        """Heuristic wall-clock proxy used to schedule longest-first.

        Simulation cost grows with the program length and with the UART
        event rate. The absolute scale is meaningless; only the ordering
        matters.
        """
        uart_factor = max(1.0, 100.0 / max(1, self.uart_period_ms))
        return len(self.program) * uart_factor

    def content_key(self, program_digests: Optional[ProgramDigests] = None) -> str:
        """Stable digest of everything that determines the session outcome.

        ``label`` and ``cacheable`` are presentation/policy, not physics, so
        they are deliberately excluded: two specs that print the same thing
        share a key no matter how their experiments name them.

        Memoized per instance (the fields are frozen, so the digest cannot
        change): sweeps hash each spec's whole program once, not once per
        layer that asks for the key. Only the hex string is memoized — a
        ``hashlib`` object does not pickle, and specs travel to workers.

        ``program_digests`` is one key pass's program table (see
        :func:`content_keys`): specs sharing one program object continue
        from a copy of its digest instead of rendering it again. The key is
        the same with or without it.
        """
        memo = self.__dict__.get("_content_key")
        if memo is not None:
            return memo
        if program_digests is None:
            program_digests = {}
        entry = program_digests.get(id(self.program))
        if entry is None:
            # The program rides along so its id cannot be reused mid-pass.
            entry = program_digests[id(self.program)] = (
                self.program,
                program_sha256(self.program),
            )
        digest = entry[1].copy()
        digest.update(repr(self.config).encode())
        params = sorted((str(k), repr(v)) for k, v in self.trojan_params.items())
        digest.update(
            repr(
                (
                    self.noise_sigma,
                    self.noise_seed,
                    self.trojan_id,
                    params,
                    self.trojan_seed,
                    self.uart_period_ms,
                    self.grace_s,
                    self.timeout_s,
                    self.trace_signals,
                    self.route_all_through_fpga,
                    self.fast_path,
                )
            ).encode()
        )
        key = digest.hexdigest()
        object.__setattr__(self, "_content_key", key)
        return key


def content_keys(specs: Iterable[SessionSpec]) -> List[str]:
    """Every spec's :meth:`~SessionSpec.content_key`, in order.

    Each distinct program object is rendered and hashed once for the whole
    pass (a sweep's scenarios share a handful of sliced parts). The program
    table lives only for this call: a later pass, like a fresh ``repro
    sweep`` process, starts from nothing but the specs' own memos.
    """
    program_digests: ProgramDigests = {}
    return [spec.content_key(program_digests) for spec in specs]


@dataclass
class SessionSummary:
    """The picklable reduction of a :class:`SessionResult`.

    Carries every quantity the experiment scorers read, with live
    simulator-bound objects (firmware, plant, boards) reduced to their
    observable outcomes.
    """

    label: str
    spec_key: str
    status: PrinterStatus
    kill_reason: Optional[str]
    timed_out: bool
    duration_s: float
    events_dispatched: int
    transactions: List[Transaction]
    final_counts: Dict[str, int]
    missed_steps: int
    trace: PartTrace
    mean_fan_duty: float
    hotend_peak_c: float
    hotend_damaged: bool
    bed_peak_c: float
    bed_damaged: bool
    trojan_id: Optional[str] = None
    trojan_category: Optional[str] = None
    trojan_scenario: Optional[str] = None
    trojan_effect: Optional[str] = None
    trojan_stats: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    fan_profile: List[Tuple[int, float]] = field(default_factory=list)
    end_time_ns: int = 0
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status is PrinterStatus.DONE

    @property
    def killed(self) -> bool:
        return self.status is PrinterStatus.KILLED

    @property
    def failed(self) -> bool:
        """True when the session's *execution* raised (see :func:`failure_summary`)."""
        return self.status is PrinterStatus.FAILED

    @property
    def capture(self) -> PulseCapture:
        """The transaction stream rebuilt as a :class:`PulseCapture`."""
        cached = getattr(self, "_capture", None)
        if cached is None:
            cached = PulseCapture()
            for transaction in self.transactions:
                cached.append(transaction)
            self._capture = cached
        return cached

    def relabeled(self, label: str) -> "SessionSummary":
        """A shallow copy under another label (data is shared, read-only)."""
        clone = copy.copy(self)
        clone.label = label
        return clone

    def __getstate__(self):
        """Serialize without the ``_capture`` memo.

        ``capture`` is rebuilt on demand from ``transactions``; pickling the
        memo would ship every transaction twice across every process/host/
        disk boundary a summary crosses.
        """
        state = dict(self.__dict__)
        state.pop("_capture", None)
        return state


def _trojan_counters(trojan) -> Dict[str, float]:
    """Harvest a Trojan's public numeric counters (shifts_injected, ...).

    Collects both instance attributes and numeric class properties (e.g.
    T4's ``layer_events_seen``), so scorers can read every counter from the
    summary without the live object.
    """
    counters = {
        name: value
        for name, value in vars(trojan).items()
        if not name.startswith("_") and isinstance(value, (bool, int, float))
    }
    for name in dir(type(trojan)):
        if name.startswith("_") or name in counters:
            continue
        if isinstance(getattr(type(trojan), name), property):
            value = getattr(trojan, name)
            if isinstance(value, (bool, int, float)):
                counters[name] = value
    return counters


def summarize_result(
    result: SessionResult, label: str = "", spec_key: str = ""
) -> SessionSummary:
    """Reduce a live :class:`SessionResult` to its picklable summary."""
    summary = SessionSummary(
        label=label,
        spec_key=spec_key,
        status=result.status,
        kill_reason=result.kill_reason,
        timed_out=result.timed_out,
        duration_s=result.duration_s,
        events_dispatched=result.events_dispatched,
        transactions=list(result.capture.transactions),
        final_counts=result.final_counts(),
        missed_steps=result.missed_steps,
        trace=result.plant.trace,
        mean_fan_duty=result.plant.mean_fan_duty(),
        hotend_peak_c=result.plant.hotend.peak_temp_c,
        hotend_damaged=result.plant.hotend.damaged,
        bed_peak_c=result.plant.bed.peak_temp_c,
        bed_damaged=result.plant.bed.damaged,
        tracer=result.tracer,
        fan_profile=list(result.plant.fan_profile),
        end_time_ns=result.plant.sim.now,
    )
    if result.trojan is not None:
        trojan = result.trojan
        summary.trojan_id = trojan.trojan_id
        summary.trojan_category = trojan.category.value
        summary.trojan_scenario = trojan.scenario
        summary.trojan_effect = trojan.effect
        summary.trojan_stats = _trojan_counters(trojan)
    return summary


def execute_spec(spec: SessionSpec) -> SessionResult:
    """Build the bench described by ``spec`` and run it (in this process)."""
    config = spec.config or MarlinConfig()
    if spec.noise_sigma > 0:
        config = config.with_noise(spec.noise_sigma, spec.noise_seed)
    trojan = None
    if spec.trojan_id is not None:
        trojan = make_trojan(spec.trojan_id, **dict(spec.trojan_params))
    session = PrintSession(
        spec.program,
        config=config,
        trojan=trojan,
        trojan_seed=spec.trojan_seed,
        uart_period_ms=spec.uart_period_ms,
        trace_signals=spec.trace_signals,
        fast_path=spec.fast_path,
    )
    if spec.route_all_through_fpga:
        session.board.route_through_fpga(
            name
            for name in session.harness.paths
            if session.harness.path(name).spec.direction.value == "a2r"
        )
    return session.run(timeout_s=spec.timeout_s, grace_s=spec.grace_s)


def _execute_to_summary(spec: SessionSpec) -> SessionSummary:
    """Worker entry point: run one spec, return its summary (picklable)."""
    return summarize_result(
        execute_spec(spec), label=spec.label, spec_key=spec.content_key()
    )


def failure_summary(spec: SessionSpec, error: BaseException) -> SessionSummary:
    """A FAILED-status summary standing in for a session that raised.

    Carries the spec's label/key and the exception text, so a crashing
    session surfaces as one reportable row instead of aborting its whole
    batch and discarding every completed sibling.
    """
    return SessionSummary(
        label=spec.label,
        spec_key=spec.content_key(),
        status=PrinterStatus.FAILED,
        kill_reason=None,
        timed_out=False,
        duration_s=0.0,
        events_dispatched=0,
        transactions=[],
        final_counts={},
        missed_steps=0,
        trace=PartTrace(),
        mean_fan_duty=0.0,
        hotend_peak_c=0.0,
        hotend_damaged=False,
        bed_peak_c=0.0,
        bed_damaged=False,
        trojan_id=spec.trojan_id,
        error=f"{type(error).__name__}: {error}",
    )


CACHE_DIR_ENV = "REPRO_CACHE_DIR"
"""Environment variable that makes the shared cache persistent on disk."""

_CACHE_FORMAT = 5
"""On-disk entry format version; bumped when SessionSpec or SessionSummary
changes shape.

Format history: 1 = golden-print-only cache; 2 = SessionSummary grew
``fan_profile``/``end_time_ns`` (duration-aware fan detection) and suspect
sessions became cacheable; 3 = SessionSummary grew ``error`` (failure-
isolated batches) and stopped serializing the ``_capture`` memo; 4 =
SessionSpec lost its host-protocol and wire-replay flags, so every content
key changed; 5 = the deposition trace (``PartTrace``) pickles as five typed
columns instead of one ``TraceSample`` object per sample. A mismatched
version is a miss, so stale entries degrade to re-simulation, never to a
wrong result.
"""


def cache_schema_version() -> int:
    """The on-disk entry format version (for external cache keys, e.g. CI)."""
    return _CACHE_FORMAT


class SessionCache:
    """Content-keyed store of completed session summaries — golden or suspect.

    Keyed by :meth:`SessionSpec.content_key`, so any two experiments that
    print the same program under the same conditions (same Trojan config and
    seed, same firmware config, same sim parameters) share one simulation.

    With ``directory`` set the cache is persistent: every ``put`` also
    pickles the summary to ``<directory>/<key>.summary.pkl`` (written
    atomically via rename, so a crashed writer never leaves a torn entry
    under the final name), and a miss in memory falls through to disk —
    completed sessions survive across processes and runs, which is what
    makes repeat sweeps incremental (only never-seen scenarios simulate).
    A corrupted, truncated, wrong-format, or wrong-key on-disk entry is
    treated as a miss, so the worst failure mode is re-simulation, never a
    wrong result.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self._entries: Dict[str, SessionSummary] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.summary.pkl")

    def _load_from_disk(self, key: str) -> Optional[SessionSummary]:
        try:
            with open(self._path(key), "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Torn write, truncation, unpicklable garbage, stale classes —
            # all degrade to a miss (and a fresh simulation).
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != _CACHE_FORMAT or payload.get("key") != key:
            return None
        summary = payload.get("summary")
        return summary if isinstance(summary, SessionSummary) else None

    def get(self, key: str) -> Optional[SessionSummary]:
        entry = self._entries.get(key)
        if entry is None and self.directory is not None:
            entry = self._load_from_disk(key)
            if entry is not None:
                self._entries[key] = entry
                self.disk_hits += 1
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: str, summary: SessionSummary, persist: bool = True) -> None:
        """Store an entry; ``persist=False`` keeps it in memory only."""
        self._entries[key] = summary
        if persist and self.directory is not None:
            self._store_to_disk(key, summary)

    def has_on_disk(self, key: str) -> bool:
        """True when a file for ``key`` exists (contents not validated)."""
        return self.directory is not None and os.path.exists(self._path(key))

    def disk_bytes(self) -> int:
        """Total size of the entry files on disk (0 without a directory).

        The bytes a sweep's summaries occupy — what the distribution
        payload checks weigh the shipped verdict rows against.
        """
        if self.directory is None:
            return 0
        return sum(
            os.path.getsize(os.path.join(self.directory, name))
            for name in os.listdir(self.directory)
            if name.endswith(".summary.pkl")
        )

    def probe(self, key: str) -> bool:
        """Cheap presence check: no loading, no hit/miss accounting.

        True when the key is in memory or a file for it exists on disk.
        Because the file's contents are not validated, a probe can say
        True for an entry a subsequent :meth:`get` rejects as corrupt —
        callers that act on a probe must handle that ``get`` miss. The
        distribution coordinator uses this to decide *where* a session
        will be scored without deserializing summaries it would never
        read.
        """
        return key in self._entries or self.has_on_disk(key)

    def _store_to_disk(self, key: str, summary: SessionSummary) -> None:
        # A failed disk write (full/read-only filesystem) must not discard a
        # completed batch: the in-memory entry is already stored, so degrade
        # to a warning and lose only cross-run persistence for this entry.
        payload = {"format": _CACHE_FORMAT, "key": key, "summary": summary}
        try:
            atomic_pickle(self._path(key), payload, prefix=f".{key[:16]}.")
        except (OSError, pickle.PickleError) as exc:
            warnings.warn(
                f"session cache entry {key[:16]}… not persisted to "
                f"{self.directory}: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )

    def clear(self) -> None:
        """Drop the in-memory entries and counters (disk files are kept)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def stats(self) -> Dict[str, int]:
        """The hit/miss counters as one dict (for reports and benchmarks)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "entries": len(self._entries),
        }


GoldenPrintCache = SessionCache
"""Backward-compatible alias from when only golden prints were cached."""


_SHARED_CACHE: Optional[SessionCache] = None

CacheOption = Union[None, bool, str, SessionCache]


def shared_cache() -> SessionCache:
    """The process-wide cache used when callers pass ``cache=True``.

    Created lazily; honors :data:`CACHE_DIR_ENV` (``REPRO_CACHE_DIR``) at
    first use, so setting the variable before any experiment runs makes
    every default-cached run persistent.
    """
    global _SHARED_CACHE
    if _SHARED_CACHE is None:
        _SHARED_CACHE = SessionCache(
            directory=os.environ.get(CACHE_DIR_ENV) or None
        )
    return _SHARED_CACHE


def resolve_cache(cache: CacheOption) -> Optional[SessionCache]:
    """Normalize the user-facing cache option to a cache instance (or None).

    ``True`` resolves to the process-wide shared cache, a string to a
    persistent cache rooted at that directory, an instance to itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return shared_cache()
    if isinstance(cache, str):
        return SessionCache(directory=cache)
    return cache


class BatchRunner:
    """Execute a batch of :class:`SessionSpec` across worker processes.

    ``workers=1`` (the default) runs everything serially in-process —
    the fallback that keeps results bit-identical and debuggable.
    ``workers=None`` (or ``0``) uses one worker per CPU. Identical specs within a
    batch are computed once regardless of worker count, and specs marked
    ``cacheable`` consult/populate the given :class:`SessionCache`
    across batches.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache: CacheOption = None,
    ) -> None:
        if not workers:  # None or 0: one worker per CPU
            workers = os.cpu_count() or 1
        self.workers = max(1, workers)
        self.cache = resolve_cache(cache)

    def run(
        self,
        specs: Sequence[SessionSpec],
        progress: Optional[Callable[[SessionSummary], None]] = None,
    ) -> List[SessionSummary]:
        """Run all specs; returns summaries in the order specs were given.

        ``progress`` is invoked from the *calling* process once per
        completed session (cache hits excluded — they cost nothing and
        prove nothing). Distribution workers hook their heartbeat here, so
        forward progress stays coordinator-visible even when the whole
        shard runs as one parallel batch: each completed future ticks the
        heartbeat, exactly like the old between-sessions beat of the serial
        path. A raising ``progress`` callback is deliberately not shielded
        — it is the caller's own code.
        """
        keys = content_keys(specs)
        results: Dict[str, SessionSummary] = {}

        # A key is cache-eligible if ANY spec carrying it opts in, so the
        # outcome doesn't depend on which duplicate happens to come first.
        cacheable_keys = {
            key for key, spec in zip(keys, specs) if spec.cacheable
        }

        pending: List[Tuple[str, SessionSpec]] = []
        seen = set()
        for key, spec in zip(keys, specs):
            if key in seen:
                continue
            seen.add(key)
            if self.cache is not None and key in cacheable_keys:
                hit = self.cache.get(key)
                if hit is not None:
                    results[key] = hit
                    continue
            pending.append((key, spec))

        if self.workers > 1 and len(pending) > 1:
            # Cost-aware scheduling: submit longest-expected-first, one spec
            # per task (chunk size 1). A long session therefore starts
            # immediately instead of landing last in some worker's
            # pre-assigned chunk and straggling the whole batch.
            ordered = sorted(
                pending, key=lambda item: item[1].estimated_cost(), reverse=True
            )
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending))
            ) as pool:
                futures = {
                    pool.submit(_execute_to_summary, spec): (key, spec)
                    for key, spec in ordered
                }
                executed: Dict[str, SessionSummary] = {}
                for future in as_completed(futures):
                    key, spec = futures[future]
                    try:
                        executed[key] = future.result()
                    except Exception as exc:
                        # One raising session (or a broken pool) must not
                        # abandon the siblings that already completed.
                        executed[key] = failure_summary(spec, exc)
                    if progress is not None:
                        progress(executed[key])
            summaries = [executed[key] for key, _ in pending]
        else:
            summaries = []
            for _key, spec in pending:
                try:
                    summaries.append(_execute_to_summary(spec))
                except Exception as exc:
                    summaries.append(failure_summary(spec, exc))
                if progress is not None:
                    progress(summaries[-1])

        for (key, _spec), summary in zip(pending, summaries):
            results[key] = summary
            # Failures are returned but never cached: the condition that
            # crashed this session may be transient (broken pool, OOM), and
            # a cached failure would otherwise shadow a future clean run.
            if (
                self.cache is not None
                and key in cacheable_keys
                and not summary.failed
            ):
                self.cache.put(key, summary)

        out: List[SessionSummary] = []
        for key, spec in zip(keys, specs):
            summary = results[key]
            if summary.label != spec.label:
                # A dedup/cache hit served this slot under another label;
                # report it under the label this spec asked for.
                summary = summary.relabeled(spec.label)
            out.append(summary)
        return out


def run_sessions(
    specs: Sequence[SessionSpec],
    workers: Optional[int] = 1,
    cache: CacheOption = None,
    strict: bool = False,
    progress: Optional[Callable[[SessionSummary], None]] = None,
) -> List[SessionSummary]:
    """Convenience wrapper: one batch through a fresh :class:`BatchRunner`.

    ``strict=True`` raises :class:`ReproError` if any session FAILED —
    *after* the batch completed and the survivors were cached. Callers that
    compute directly over summary fields (the drift/overhead artifacts)
    use it so a crashed session fails their artifact loudly instead of
    silently contributing empty data; sweep-style callers score FAILED
    summaries as reportable rows instead.

    ``progress`` is forwarded to :meth:`BatchRunner.run`: one call per
    *completed* session (cache hits excluded). Distribution workers
    heartbeat through it; the service layer ticks its job-store progress
    counters through it.
    """
    summaries = BatchRunner(workers=workers, cache=cache).run(specs, progress=progress)
    if strict:
        raise_failures(summaries)
    return summaries


def raise_failures(summaries: Sequence[SessionSummary]) -> None:
    """Raise :class:`ReproError` naming the first failed sessions, if any."""
    failures = [s for s in summaries if s.failed]
    if failures:
        details = "; ".join(
            f"{s.label or s.spec_key[:12]}: {s.error}" for s in failures[:5]
        )
        raise ReproError(
            f"{len(failures)} of {len(summaries)} sessions failed: {details}"
        )
