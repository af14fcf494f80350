"""The pluggable shard-queue transport behind distributed sweeps.

The distribution protocol (:mod:`repro.experiments.distrib`) is a small
state machine per shard::

    pending --claim--> claimed --complete--> done
       ^                  |
       +----requeue-------+   (staleness forfeit / dead worker)

plus a queue-wide STOP flag and per-worker heartbeats. PR 4/5 implemented
that machine directly on a shared filesystem (atomic renames under a work
dir). This module extracts the machine's *surface* into the
:class:`Transport` interface so the same coordinator/worker loops run over
any backend that can honor the contract:

* ``fs`` — the original shared-filesystem work dir
  (:class:`repro.experiments.distrib.WorkDir`); claims are atomic renames.
* ``http`` — a shard server riding the sweep service
  (:mod:`repro.experiments.transport_http`); claims are SQLite conditional
  UPDATEs behind HTTP endpoints, so workers join over the network with no
  shared mount.
* ``memory`` — an in-process fake (:class:`InMemoryTransport`) for tests
  and the transport contract suite; claims are dict moves under one lock.

Every backend ships the **same wire bytes**: payloads are pickled inside a
``{"format": WIRE_FORMAT, "payload": ...}`` envelope
(:func:`encode_wire` / :func:`decode_wire`), so version-skew detection and
torn-payload degradation behave identically whether the bytes crossed a
rename, a socket, or a dict. The backend-agnostic behavioral contract —
claim exclusivity under concurrent claimers, requeue-after-forfeit,
torn-write degradation, wire-format skew failing loud, STOP propagation,
done-payload round-trip — is pinned by ``tests/test_transport_contract.py``,
which every registered backend inherits.

Backends register under a URL scheme via :func:`register_transport`;
:func:`create_transport` resolves a target string (a filesystem path,
``http://host:port/queues/name``, or ``memory://name``) to a live
transport. ``repro worker <target>`` accepts any of them, which is how
late-joining hosts steal work from an in-flight sweep.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError

WIRE_FORMAT = 4
"""Shard-queue payload format version.

Bumped whenever the pickled shard/result schema — or the protocol the
envelope travels through — changes shape (2: shards may carry scenario
jobs, results verdict rows + digests; 3: payloads travel over pluggable
transports, claims are transport tokens rather than claim-file paths, and
shard queues may be served over HTTP; 4: shards carry only scenario jobs
and results only verdict rows — the summary-shipping fields are gone). A
payload whose envelope names a
*different* version is a protocol-level incompatibility — some host is
running different code — and raises :class:`WireFormatError` rather than
being quietly re-queued: silent re-queueing of a version skew loops
forever, and deserializing the payload anyway risks scoring garbage.
"""


class WireFormatError(ReproError):
    """A shard-queue payload was written by an incompatible protocol version."""

    def __init__(self, source: str, found: Any) -> None:
        super().__init__(
            f"shard-queue payload {os.path.basename(str(source))!r} has wire "
            f"format {found!r}, but this process speaks {WIRE_FORMAT}; every "
            "host sharing a shard queue must run the same repro version"
        )
        self.path = source
        self.found = found


def encode_wire(payload: Any) -> bytes:
    """Serialize a payload into the versioned wire envelope."""
    return pickle.dumps(
        {"format": WIRE_FORMAT, "payload": payload},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_wire(data: bytes, source: str) -> Optional[Any]:
    """Deserialize wire bytes; ``None`` on corruption, loud on skew.

    Corruption (a torn write, truncation, unpicklable bytes) reads as
    absent — the worst outcome is a re-queue/re-simulation. A *cleanly
    readable envelope carrying a different format version* is not
    corruption, it is a host running different code, and silently treating
    it as absent would either loop (coordinator re-enqueues, the skewed
    worker "completes" again) or deserialize a payload whose schema this
    process does not understand — so it raises :class:`WireFormatError`.
    """
    try:
        envelope = pickle.loads(data)
    except Exception:
        return None
    if not isinstance(envelope, dict) or "format" not in envelope:
        return None
    if envelope["format"] != WIRE_FORMAT:
        raise WireFormatError(source, envelope["format"])
    return envelope.get("payload")


@dataclass(frozen=True)
class Claim:
    """A successfully claimed shard and the token that records the claim.

    ``token`` is backend-specific — the claim-file path on the filesystem
    transport, a ``"<shard_id>@<worker_id>"`` lease elsewhere — and is what
    :meth:`Transport.requeue` consumes to forfeit the claim.
    """

    shard: Any
    token: str

    @property
    def path(self) -> str:
        """Filesystem-transport compatibility alias for :attr:`token`."""
        return self.token


class Transport:
    """The claim/requeue/done/heartbeat/STOP surface every backend implements.

    One transport instance fronts one shard queue. The coordinator calls
    the full surface; a worker only ``beat``/``stop_requested``/
    ``pending_ids``/``claim``/``complete``. Implementations must keep two
    invariants the contract suite enforces:

    * **claim exclusivity** — for one shard id, at most one concurrent
      :meth:`claim` returns a :class:`Claim`; everyone else gets ``None``.
    * **conditional requeue** — :meth:`requeue` returns the shard to
      pending only while the token's claim is still live, so a worker that
      completed after being declared dead is never double-queued (the done
      payload wins).
    """

    scheme = "?"

    # -- queue lifecycle (coordinator) ---------------------------------
    def reset(self) -> None:
        """Clear a previous sweep's protocol state from a reused queue."""
        raise NotImplementedError

    def enqueue(self, shard: Any) -> None:
        """Queue one shard (its ``shard_id`` names it)."""
        self.put_pending(shard.shard_id, encode_wire(shard))

    def put_pending(self, shard_id: int, data: bytes) -> None:
        """Place raw wire bytes in the pending queue (enqueue's low half).

        Exposed separately so the contract suite can inject torn or
        version-skewed payloads through the same door real ones use.
        """
        raise NotImplementedError

    def stop(self) -> None:
        """Raise the queue-wide STOP flag (workers drain out)."""
        raise NotImplementedError

    # -- results (coordinator) -----------------------------------------
    def done_ids(self) -> List[int]:
        raise NotImplementedError

    def load_result(self, shard_id: int) -> Optional[Any]:
        """The shard's result; ``None`` when absent/corrupt, loud on skew."""
        raise NotImplementedError

    def result_size(self, shard_id: int) -> int:
        """The result payload's size in bytes (0 when absent) — economics."""
        raise NotImplementedError

    def discard_done(self, shard_id: int) -> None:
        raise NotImplementedError

    def put_result(self, shard_id: int, data: bytes) -> None:
        """Place raw result bytes (complete's low half; contract-test door)."""
        raise NotImplementedError

    # -- claims (both sides) -------------------------------------------
    def pending_ids(self) -> List[int]:
        raise NotImplementedError

    def claim(self, shard_id: int, worker_id: str) -> Optional[Claim]:
        """Try to claim one pending shard; ``None`` if another worker won.

        Raises :class:`WireFormatError` — after returning the shard to
        pending, so a compatible worker can still take it — when the shard
        was enqueued by an incompatible coordinator. A corrupt payload
        drops out of the queue entirely (the coordinator re-enqueues from
        its in-memory copy once it notices the shard went missing).
        """
        raise NotImplementedError

    def complete(self, claim: Claim, result: Any) -> None:
        """Publish the result and release the claim (done beats requeue)."""
        raise NotImplementedError

    def claims(self) -> List[Tuple[int, str, str]]:
        """Live claims as ``(shard_id, worker_id, token)`` triples."""
        raise NotImplementedError

    def requeue(self, token: str) -> bool:
        """Forfeit a claim back to pending; False when the claim is gone."""
        raise NotImplementedError

    # -- liveness (both sides) -----------------------------------------
    def stop_requested(self) -> bool:
        raise NotImplementedError

    def beat(self, worker_id: str) -> None:
        """Record forward progress for this worker."""
        raise NotImplementedError

    def heartbeat_mtime(self, worker_id: str) -> Optional[float]:
        """A value that advances on every beat; ``None`` before the first.

        The coordinator never interprets the value as a clock — it only
        watches for *advancement* against its own monotonic time, which
        survives cross-host clock skew on every backend.
        """
        raise NotImplementedError

    # -- plumbing -------------------------------------------------------
    def worker_target(self) -> str:
        """What ``repro worker <target>`` needs to reach this queue."""
        raise NotImplementedError

    def log_path(self, worker_id: str) -> str:
        """Where a spawned local worker's stdio lands (always a local path)."""
        if getattr(self, "_log_dir", None) is None:
            self._log_dir = tempfile.mkdtemp(prefix="repro-worker-logs-")
        return os.path.join(self._log_dir, f"{worker_id}.log")

    def describe(self) -> str:
        return f"{self.scheme} transport"


class InMemoryTransport(Transport):
    """The in-process reference backend: dict moves under one lock.

    Exists for the transport contract suite and fast fault-injection tests
    — same claim exclusivity, requeue, torn-payload, and skew semantics as
    the real backends, with zero filesystem or network. ``memory://name``
    resolves to a per-process shared instance so coordinator and worker
    threads in one process can meet on it (it cannot cross processes;
    spawned ``repro worker`` subprocesses need ``fs`` or ``http``).
    """

    scheme = "memory"

    _shared: Dict[str, "InMemoryTransport"] = {}
    _shared_lock = threading.Lock()

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._pending: Dict[int, bytes] = {}
        self._claimed: Dict[int, Tuple[str, bytes]] = {}
        self._done: Dict[int, bytes] = {}
        self._beats: Dict[str, int] = {}
        self._stop = False

    @classmethod
    def named(cls, name: str) -> "InMemoryTransport":
        """The process-wide instance behind ``memory://<name>``."""
        with cls._shared_lock:
            if name not in cls._shared:
                cls._shared[name] = cls(name)
            return cls._shared[name]

    def _source(self, shard_id: int) -> str:
        return f"shard-{shard_id:04d} (memory://{self.name})"

    def reset(self) -> None:
        with self._lock:
            self._pending.clear()
            self._claimed.clear()
            self._done.clear()
            self._beats.clear()
            self._stop = False

    def put_pending(self, shard_id: int, data: bytes) -> None:
        with self._lock:
            self._pending[shard_id] = data

    def stop(self) -> None:
        with self._lock:
            self._stop = True

    def stop_requested(self) -> bool:
        with self._lock:
            return self._stop

    def done_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._done)

    def load_result(self, shard_id: int) -> Optional[Any]:
        with self._lock:
            data = self._done.get(shard_id)
        if data is None:
            return None
        return decode_wire(data, self._source(shard_id))

    def result_size(self, shard_id: int) -> int:
        with self._lock:
            data = self._done.get(shard_id)
        return len(data) if data is not None else 0

    def discard_done(self, shard_id: int) -> None:
        with self._lock:
            self._done.pop(shard_id, None)

    def put_result(self, shard_id: int, data: bytes) -> None:
        with self._lock:
            self._done[shard_id] = data

    def pending_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._pending)

    def claim(self, shard_id: int, worker_id: str) -> Optional[Claim]:
        with self._lock:
            data = self._pending.pop(shard_id, None)
            if data is None:
                return None
            self._claimed[shard_id] = (worker_id, data)
        try:
            payload = decode_wire(data, self._source(shard_id))
        except WireFormatError:
            # Back to pending for a compatible worker; executing a schema
            # this process does not speak is never an option.
            self.requeue(f"{shard_id}@{worker_id}")
            raise
        if payload is None:
            # Corrupt payload: drop the claim entirely; the coordinator
            # re-enqueues from its in-memory copy once the shard is lost.
            with self._lock:
                held = self._claimed.get(shard_id)
                if held is not None and held[0] == worker_id:
                    self._claimed.pop(shard_id)
            return None
        return Claim(shard=payload, token=f"{shard_id}@{worker_id}")

    def complete(self, claim: Claim, result: Any) -> None:
        shard_id, worker_id = _parse_token(claim.token)
        with self._lock:
            self._done[shard_id] = encode_wire(result)
            held = self._claimed.get(shard_id)
            if held is not None and held[0] == worker_id:
                self._claimed.pop(shard_id)

    def claims(self) -> List[Tuple[int, str, str]]:
        with self._lock:
            return [
                (shard_id, worker_id, f"{shard_id}@{worker_id}")
                for shard_id, (worker_id, _) in sorted(self._claimed.items())
            ]

    def requeue(self, token: str) -> bool:
        shard_id, worker_id = _parse_token(token)
        with self._lock:
            held = self._claimed.get(shard_id)
            if held is None or held[0] != worker_id:
                return False  # completed or already forfeited — done wins
            self._claimed.pop(shard_id)
            self._pending[shard_id] = held[1]
            return True

    def beat(self, worker_id: str) -> None:
        with self._lock:
            self._beats[worker_id] = self._beats.get(worker_id, 0) + 1

    def heartbeat_mtime(self, worker_id: str) -> Optional[float]:
        with self._lock:
            count = self._beats.get(worker_id)
        return float(count) if count is not None else None

    def worker_target(self) -> str:
        return f"memory://{self.name}"

    def describe(self) -> str:
        return f"memory transport ({self.name or 'anonymous'})"


def _parse_token(token: str) -> Tuple[int, str]:
    """Split a ``"<shard_id>@<worker_id>"`` lease token.

    Worker ids are sanitized to ``[A-Za-z0-9_.-]`` before they reach any
    token (see :func:`repro.experiments.distrib.sanitize_worker_id`), so
    the first ``@`` is always the separator.
    """
    shard, _, worker = token.partition("@")
    try:
        return int(shard), worker
    except ValueError:
        raise ReproError(f"malformed claim token {token!r}") from None


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------

def _make_filesystem(target: str) -> Transport:
    from repro.experiments.distrib import WorkDir

    return WorkDir(target)


def _make_memory(target: str) -> Transport:
    name = target.partition("://")[2]
    return InMemoryTransport.named(name)


def _make_http(target: str) -> Transport:
    from repro.experiments.transport_http import HttpTransport

    return HttpTransport(target)


TRANSPORT_SCHEMES: Dict[str, Callable[[str], Transport]] = {
    "fs": _make_filesystem,
    "memory": _make_memory,
    "http": _make_http,
}
"""Registered backends: URL scheme -> factory taking the full target string.

``tests/test_transport_contract.py`` asserts every entry here has a
contract-suite subclass, so a new backend cannot register without
inheriting the behavioral tests.
"""


def register_transport(scheme: str, factory: Callable[[str], Transport]) -> None:
    """Register a backend under a URL scheme (``https`` rides ``http``)."""
    TRANSPORT_SCHEMES[scheme] = factory


def registered_schemes() -> List[str]:
    return sorted(TRANSPORT_SCHEMES)


def create_transport(target: str) -> Transport:
    """Resolve a worker/coordinator target string to a live transport.

    ``http://`` / ``https://`` / ``memory://`` dispatch on their scheme;
    anything else is a filesystem work-dir path (the PR 4 contract —
    ``repro worker <dir>`` keeps working unchanged).
    """
    scheme, sep, _ = target.partition("://")
    if sep and scheme in TRANSPORT_SCHEMES:
        return TRANSPORT_SCHEMES[scheme](target)
    if scheme == "https" and sep:
        return TRANSPORT_SCHEMES["http"](target)
    if sep:
        raise ReproError(
            f"unknown transport scheme {scheme!r} in {target!r}; "
            f"registered: {registered_schemes()} (or a filesystem path)"
        )
    return TRANSPORT_SCHEMES["fs"](target)
