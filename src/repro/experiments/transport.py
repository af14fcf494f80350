"""The pluggable shard-queue transport behind distributed sweeps.

The distribution protocol (:mod:`repro.experiments.distrib`) is a small
state machine per shard::

    pending --claim--> claimed --complete--> done
       ^                  |
       +----requeue-------+   (staleness forfeit / dead worker)

plus a queue-wide STOP flag and per-worker heartbeats. :class:`Transport`
is that machine's surface, so the same coordinator/worker loops run over
any backend that can honor the contract:

* ``fs`` — a shared-filesystem work dir (:class:`WorkDir`, below); claims
  are atomic renames.
* ``http`` — a shard server riding the sweep service
  (:mod:`repro.experiments.transport_http`); claims are SQLite conditional
  UPDATEs behind HTTP endpoints, so workers join over the network with no
  shared mount.
* ``memory`` — an in-process fake (:class:`InMemoryTransport`) for tests
  and the transport contract suite; claims are dict moves under one lock.

Backends only move bytes: each implements a handful of byte primitives
(``put_pending``, ``take``, ``abandon``, ``requeue``, ``put_result``,
``get_result``, ...), and the base class owns the wire policy once. Every
payload is pickled inside a ``{"format": WIRE_FORMAT, "payload": ...}``
envelope (:func:`encode_wire` / :func:`decode_wire`), so version-skew
detection and torn-payload degradation behave identically whether the
bytes crossed a rename, a socket, or a dict. The backend-agnostic
behavioral contract — claim exclusivity under concurrent claimers,
requeue-after-forfeit, torn-write degradation, wire-format skew failing
loud, STOP propagation, done-payload round-trip — is pinned by
``tests/test_transport_contract.py``, which every backend in
:data:`TRANSPORT_SCHEMES` inherits.

:func:`create_transport` resolves a target string (a filesystem path or
``fs://`` URL, ``http://host:port/queues/name``, or ``memory://name``) to
a live transport. ``repro worker <target>`` accepts any of them, which is
how late-joining hosts steal work from an in-flight sweep.
"""

from __future__ import annotations

import os
import pickle
import re
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.util import atomic_write

WIRE_FORMAT = 5
"""Shard-queue payload format version.

Bumped whenever the pickled shard/result schema — or the protocol the
envelope travels through — changes shape (2: shards may carry scenario
jobs, results verdict rows + digests; 3: payloads travel over pluggable
transports, claims are transport tokens rather than claim-file paths, and
shard queues may be served over HTTP; 4: shards carry only scenario jobs
and results only verdict rows — the summary-shipping fields are gone; 5:
SessionSpec lost its host-protocol and wire-replay flags). A
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
            f"shard-queue payload {source!r} has wire "
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
    """A successfully claimed shard payload and the worker holding it."""

    shard: Any
    worker_id: str


class Transport:
    """One shard queue: byte primitives below, the wire policy on top.

    Backends implement the byte primitives; the policy methods
    (:meth:`enqueue`, :meth:`claim`, :meth:`complete`, :meth:`load_result`)
    are written once here and are the only place payloads are encoded or
    decoded. The coordinator calls the full surface; a worker only
    ``beat``/``stop_requested``/``pending_ids``/``claim``/``complete``/
    ``abandon``. Implementations must keep two invariants the contract
    suite enforces:

    * **take exclusivity** — for one shard id, at most one concurrent
      :meth:`take` returns bytes; everyone else gets ``None``.
    * **done wins** — :meth:`put_result` releases the shard's claim, and
      :meth:`requeue` returns a shard to pending only while ``worker_id``
      still holds it, so a worker that completed after being declared dead
      is never double-queued.
    """

    scheme = "?"
    log_dir: Optional[str] = None
    """Where spawned local workers' stdio lands; ``None``: the caller picks."""

    # -- wire policy -----------------------------------------------------
    def _source(self, shard_id: int) -> str:
        return f"shard-{shard_id:04d} on {self.worker_target()}"

    def enqueue(self, shard: Any) -> None:
        """Queue one shard (its ``shard_id`` names it)."""
        self.put_pending(shard.shard_id, encode_wire(shard))

    def claim(self, shard_id: int, worker_id: str) -> Optional[Claim]:
        """Try to claim one pending shard; ``None`` if another worker won.

        Raises :class:`WireFormatError` — after returning the shard to
        pending, so a compatible worker can still take it — when the shard
        was enqueued by an incompatible coordinator. A corrupt payload
        drops out of the queue entirely (the coordinator re-enqueues from
        its in-memory copy once it notices the shard went missing).
        """
        data = self.take(shard_id, worker_id)
        if data is None:
            return None
        try:
            payload = decode_wire(data, self._source(shard_id))
        except WireFormatError:
            self.requeue(shard_id, worker_id)
            raise
        if payload is None:
            self.abandon(shard_id, worker_id)
            return None
        return Claim(shard=payload, worker_id=worker_id)

    def complete(self, claim: Claim, result: Any) -> None:
        """Publish the result and release the claim (done beats requeue)."""
        self.put_result(claim.shard.shard_id, encode_wire(result))

    def load_result(self, shard_id: int) -> Tuple[Optional[Any], int]:
        """The shard's result and its size in bytes, from one fetch.

        The result is ``None`` when absent (size 0) or corrupt; a payload
        from an incompatible protocol version raises
        :class:`WireFormatError`.
        """
        data = self.get_result(shard_id)
        if data is None:
            return None, 0
        return decode_wire(data, self._source(shard_id)), len(data)

    # -- byte primitives (backends) ---------------------------------------
    def reset(self) -> None:
        """Clear a previous sweep's protocol state from a reused queue."""
        raise NotImplementedError

    def put_pending(self, shard_id: int, data: bytes) -> None:
        """Place raw wire bytes in the pending queue."""
        raise NotImplementedError

    def take(self, shard_id: int, worker_id: str) -> Optional[bytes]:
        """Atomically move a pending shard to claimed; its bytes, or ``None``."""
        raise NotImplementedError

    def abandon(self, shard_id: int, worker_id: str) -> None:
        """Drop a claim held by ``worker_id`` without re-queueing it."""
        raise NotImplementedError

    def requeue(self, shard_id: int, worker_id: str) -> bool:
        """Forfeit a claim back to pending; False when ``worker_id`` lost it."""
        raise NotImplementedError

    def put_result(self, shard_id: int, data: bytes) -> None:
        """Publish raw result bytes and release the shard's claim."""
        raise NotImplementedError

    def get_result(self, shard_id: int) -> Optional[bytes]:
        raise NotImplementedError

    def discard_done(self, shard_id: int) -> None:
        raise NotImplementedError

    def pending_ids(self) -> List[int]:
        raise NotImplementedError

    def done_ids(self) -> List[int]:
        raise NotImplementedError

    def claims(self) -> List[Tuple[int, str]]:
        """Live claims as ``(shard_id, worker_id)`` pairs."""
        raise NotImplementedError

    def stop(self) -> None:
        """Raise the queue-wide STOP flag (workers drain out)."""
        raise NotImplementedError

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

    def worker_target(self) -> str:
        """What ``repro worker <target>`` needs to reach this queue."""
        raise NotImplementedError


_PENDING, _CLAIMED, _DONE, _HEARTS, _LOGS = (
    "pending",
    "claimed",
    "done",
    "hearts",
    "logs",
)
_STOP = "STOP"
_SHARD_RE = re.compile(r"^shard-(\d+)(?:@(.+))?\.pkl$")


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class WorkDir(Transport):
    """The filesystem transport: a shared directory both sides operate on.

    Any filesystem the coordinator and workers can both reach (one
    machine, NFS, or an rsync'd directory) is a cluster. The layout:

    .. code-block:: text

        work-dir/
          pending/shard-0007.pkl        queued WorkShard (coordinator writes)
          claimed/shard-0007@W.pkl      claimed by worker W (atomic rename)
          done/shard-0007.pkl           ShardResult (atomic write; claim removed)
          hearts/W                      worker W's heartbeat (mtime refreshed
                                        between sessions = forward progress)
          logs/W.log                    spawned local workers' stdio
          STOP                          coordinator's shutdown signal

    Every transition is an atomic rename (take: ``pending/ → claimed/``;
    requeue: ``claimed/ → pending/``) or an atomic write (enqueue, done) —
    the same torn-write discipline as the session cache — so concurrent
    workers, processes or hosts, never observe a torn file and never
    double-execute a shard they both tried to claim: exactly one wins the
    rename.
    """

    scheme = "fs"

    def __init__(self, root: str) -> None:
        self.root = root
        self.log_dir = os.path.join(root, _LOGS)
        for sub in (_PENDING, _CLAIMED, _DONE, _HEARTS, _LOGS):
            os.makedirs(os.path.join(root, sub), exist_ok=True)

    def _path(self, sub: str, shard_id: int, worker_id: str = "") -> str:
        owner = f"@{worker_id}" if worker_id else ""
        return os.path.join(self.root, sub, f"shard-{shard_id:04d}{owner}.pkl")

    def _listing(self, sub: str) -> List[Tuple[int, str]]:
        """``(shard_id, worker_id or "")`` for every shard file in ``sub``."""
        matches = (_SHARD_RE.match(name) for name in os.listdir(os.path.join(self.root, sub)))
        return sorted((int(m.group(1)), m.group(2) or "") for m in matches if m)

    def _write(self, path: str, data: bytes) -> None:
        atomic_write(path, lambda handle: handle.write(data), prefix=".wire.")

    def reset(self) -> None:
        """Clear a previous sweep's protocol state from a reused work dir.

        Stale ``done/`` files would satisfy this run's shard ids with old
        verdicts, a stale ``STOP`` would make joining workers exit
        immediately, and stale claims would be pointlessly re-queued — so
        the coordinator wipes all of them before enqueueing (one sweep per
        work dir at a time; logs are kept, they only ever append).
        """
        _unlink(os.path.join(self.root, _STOP))
        for sub in (_PENDING, _CLAIMED, _DONE, _HEARTS):
            for name in os.listdir(os.path.join(self.root, sub)):
                _unlink(os.path.join(self.root, sub, name))

    def put_pending(self, shard_id: int, data: bytes) -> None:
        self._write(self._path(_PENDING, shard_id), data)

    def take(self, shard_id: int, worker_id: str) -> Optional[bytes]:
        claimed = self._path(_CLAIMED, shard_id, worker_id)
        try:
            os.rename(self._path(_PENDING, shard_id), claimed)
        except OSError:
            return None  # another worker won the rename (or nothing pending)
        try:
            with open(claimed, "rb") as handle:
                return handle.read()
        except OSError:
            return b""  # unreadable reads as corrupt: the claim is abandoned

    def abandon(self, shard_id: int, worker_id: str) -> None:
        _unlink(self._path(_CLAIMED, shard_id, worker_id))

    def requeue(self, shard_id: int, worker_id: str) -> bool:
        """Rename the claim file, which still holds the shard, back to pending."""
        try:
            os.rename(
                self._path(_CLAIMED, shard_id, worker_id),
                self._path(_PENDING, shard_id),
            )
        except OSError:
            return False  # the worker completed after all: done wins
        return True

    def put_result(self, shard_id: int, data: bytes) -> None:
        self._write(self._path(_DONE, shard_id), data)
        for claimed, worker_id in self.claims():
            if claimed == shard_id:
                _unlink(self._path(_CLAIMED, shard_id, worker_id))

    def get_result(self, shard_id: int) -> Optional[bytes]:
        try:
            with open(self._path(_DONE, shard_id), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def discard_done(self, shard_id: int) -> None:
        _unlink(self._path(_DONE, shard_id))

    def pending_ids(self) -> List[int]:
        return [sid for sid, owner in self._listing(_PENDING) if not owner]

    def done_ids(self) -> List[int]:
        return [sid for sid, _ in self._listing(_DONE)]

    def claims(self) -> List[Tuple[int, str]]:
        return [(sid, owner) for sid, owner in self._listing(_CLAIMED) if owner]

    def stop(self) -> None:
        with open(os.path.join(self.root, _STOP), "w", encoding="utf-8") as handle:
            handle.write("stop\n")

    def stop_requested(self) -> bool:
        return os.path.exists(os.path.join(self.root, _STOP))

    def beat(self, worker_id: str) -> None:
        path = os.path.join(self.root, _HEARTS, worker_id)
        with open(path, "a", encoding="utf-8"):
            pass
        os.utime(path, None)

    def heartbeat_mtime(self, worker_id: str) -> Optional[float]:
        """The heartbeat file's raw mtime; ``None`` when it doesn't exist."""
        try:
            return os.path.getmtime(os.path.join(self.root, _HEARTS, worker_id))
        except OSError:
            return None

    def worker_target(self) -> str:
        return self.root


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

    def take(self, shard_id: int, worker_id: str) -> Optional[bytes]:
        with self._lock:
            data = self._pending.pop(shard_id, None)
            if data is not None:
                self._claimed[shard_id] = (worker_id, data)
            return data

    def abandon(self, shard_id: int, worker_id: str) -> None:
        with self._lock:
            held = self._claimed.get(shard_id)
            if held is not None and held[0] == worker_id:
                del self._claimed[shard_id]

    def requeue(self, shard_id: int, worker_id: str) -> bool:
        with self._lock:
            held = self._claimed.get(shard_id)
            if held is None or held[0] != worker_id:
                return False  # completed or already forfeited — done wins
            del self._claimed[shard_id]
            self._pending[shard_id] = held[1]
            return True

    def put_result(self, shard_id: int, data: bytes) -> None:
        with self._lock:
            self._done[shard_id] = data
            self._claimed.pop(shard_id, None)

    def get_result(self, shard_id: int) -> Optional[bytes]:
        with self._lock:
            return self._done.get(shard_id)

    def discard_done(self, shard_id: int) -> None:
        with self._lock:
            self._done.pop(shard_id, None)

    def pending_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._pending)

    def done_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._done)

    def claims(self) -> List[Tuple[int, str]]:
        with self._lock:
            return [
                (shard_id, worker_id)
                for shard_id, (worker_id, _) in sorted(self._claimed.items())
            ]

    def stop(self) -> None:
        with self._lock:
            self._stop = True

    def stop_requested(self) -> bool:
        with self._lock:
            return self._stop

    def beat(self, worker_id: str) -> None:
        with self._lock:
            self._beats[worker_id] = self._beats.get(worker_id, 0) + 1

    def heartbeat_mtime(self, worker_id: str) -> Optional[float]:
        with self._lock:
            count = self._beats.get(worker_id)
        return float(count) if count is not None else None

    def worker_target(self) -> str:
        return f"memory://{self.name}"


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------

def _make_fs(target: str) -> Transport:
    # ``fs:///shared/q`` names the same directory as the bare ``/shared/q``.
    return WorkDir(target[len("fs://"):] if target.startswith("fs://") else target)


def _make_memory(target: str) -> Transport:
    name = target.partition("://")[2]
    return InMemoryTransport.named(name)


def _make_http(target: str) -> Transport:
    from repro.experiments.transport_http import HttpTransport

    return HttpTransport(target)


TRANSPORT_SCHEMES: Dict[str, Callable[[str], Transport]] = {
    "fs": _make_fs,
    "memory": _make_memory,
    "http": _make_http,
}
"""The backends: URL scheme -> factory taking the full target string.

``tests/test_transport_contract.py`` asserts every entry here has a
contract-suite subclass, so a new backend cannot be added without
inheriting the behavioral tests.
"""


def create_transport(target: Union[str, Transport]) -> Transport:
    """Resolve a worker/coordinator target to a live transport.

    A :class:`Transport` instance is returned as-is. ``fs://``,
    ``http://`` / ``https://`` and ``memory://`` dispatch on their scheme;
    anything else is a filesystem work-dir path (``repro worker <dir>``).
    """
    if isinstance(target, Transport):
        return target
    scheme, sep, _ = target.partition("://")
    if sep and scheme in TRANSPORT_SCHEMES:
        return TRANSPORT_SCHEMES[scheme](target)
    if scheme == "https" and sep:
        return TRANSPORT_SCHEMES["http"](target)
    if sep:
        raise ReproError(
            f"unknown transport scheme {scheme!r} in {target!r}; "
            f"known: {sorted(TRANSPORT_SCHEMES)} (or a filesystem path)"
        )
    return TRANSPORT_SCHEMES["fs"](target)
