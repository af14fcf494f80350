"""The HTTP shard-queue transport: distributed sweeps with no shared mount.

Rides the sweep service (:mod:`repro.service.app`): a coordinator resets a
named queue on the server, enqueues wire-envelope shard payloads with PUT,
and workers anywhere on the network — including hosts that join after the
sweep started — claim them with ``POST .../claim``. Server-side the claim
is one SQLite conditional UPDATE (``WHERE state = 'pending'``), so claim
exclusivity is the database's atomicity rather than a filesystem rename;
everything above the wire is the same protocol, pinned by the same
transport contract suite as the filesystem backend.

Targets look like ``http://host:8035`` (queue ``default``) or
``http://host:8035/queues/nightly`` — the same string works for
``repro sweep --transport`` on the coordinator and ``repro worker`` on
every joining host. Like a filesystem work dir, one queue hosts one sweep
at a time.

Payload bytes cross the network exactly as they would cross a rename, so
:class:`~repro.experiments.transport.Transport`'s wire policy carries over
unchanged: a torn/corrupt payload degrades to a re-enqueue, a cleanly
readable payload with a different ``WIRE_FORMAT`` fails loud.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.experiments.transport import Transport

_TARGET_RE = re.compile(
    r"^(?P<base>https?://[^/]+)(?:/queues/(?P<queue>[A-Za-z0-9_.-]+))?/?$"
)

DEFAULT_QUEUE = "default"


class TransportHTTPError(ReproError):
    """The shard server answered with an unexpected status (or not at all)."""


class HttpTransport(Transport):
    """One shard queue on a sweep service, spoken over stdlib urllib."""

    scheme = "http"

    def __init__(self, target: str, timeout_s: float = 30.0) -> None:
        match = _TARGET_RE.match(target)
        if match is None:
            raise ReproError(
                f"bad HTTP transport target {target!r}; expected "
                "http://host:port or http://host:port/queues/<name>"
            )
        self.base = match.group("base")
        self.queue = match.group("queue") or DEFAULT_QUEUE
        self.timeout_s = timeout_s

    # -- HTTP plumbing ---------------------------------------------------

    def _url(self, suffix: str) -> str:
        return f"{self.base}/queues/{self.queue}{suffix}"

    def _request(
        self,
        method: str,
        suffix: str,
        body: Optional[bytes] = None,
        tolerate: Tuple[int, ...] = (),
    ) -> Tuple[int, bytes]:
        """One round trip; statuses outside 200/``tolerate`` raise.

        4xx/5xx the caller did not ask to tolerate — and transport-level
        failures like a refused connection — are infrastructure errors,
        never silently treated as protocol outcomes.
        """
        request = urllib.request.Request(
            self._url(suffix), data=body, method=method
        )
        if body is not None:
            request.add_header("Content-Type", "application/octet-stream")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            data = exc.read()
            if exc.code in tolerate:
                return exc.code, data
            raise TransportHTTPError(
                f"{method} {self._url(suffix)} -> {exc.code}: "
                f"{data[:200]!r}"
            ) from None
        except urllib.error.URLError as exc:
            raise TransportHTTPError(
                f"{method} {self._url(suffix)} failed: {exc.reason}"
            ) from None

    def _status(self) -> dict:
        _, data = self._request("GET", "")
        return json.loads(data)

    def _claim_op(self, op: str, shard_id: int, worker_id: str) -> Tuple[int, bytes]:
        """POST a claim transition; 409 means ``worker_id`` does not hold it."""
        return self._request(
            "POST", f"/shards/{shard_id}/{op}?worker={worker_id}", body=b"",
            tolerate=(409,),
        )

    # -- Transport byte primitives ------------------------------------------

    def reset(self) -> None:
        self._request("POST", "/reset", body=b"")

    def put_pending(self, shard_id: int, data: bytes) -> None:
        self._request("PUT", f"/shards/{shard_id}", body=data)

    def take(self, shard_id: int, worker_id: str) -> Optional[bytes]:
        # 409: another worker won the conditional UPDATE.
        status, data = self._claim_op("claim", shard_id, worker_id)
        return data if status == 200 else None

    def abandon(self, shard_id: int, worker_id: str) -> None:
        self._claim_op("abandon", shard_id, worker_id)

    def requeue(self, shard_id: int, worker_id: str) -> bool:
        status, _ = self._claim_op("requeue", shard_id, worker_id)
        return status == 200

    def put_result(self, shard_id: int, data: bytes) -> None:
        self._request("PUT", f"/shards/{shard_id}/result", body=data)

    def get_result(self, shard_id: int) -> Optional[bytes]:
        status, data = self._request(
            "GET", f"/shards/{shard_id}/result", tolerate=(404,)
        )
        return data if status == 200 else None

    def discard_done(self, shard_id: int) -> None:
        self._request("DELETE", f"/shards/{shard_id}/result")

    def pending_ids(self) -> List[int]:
        return [int(sid) for sid in self._status()["pending"]]

    def done_ids(self) -> List[int]:
        return [int(sid) for sid in self._status()["done"]]

    def claims(self) -> List[Tuple[int, str]]:
        return [(int(sid), str(worker)) for sid, worker in self._status()["claims"]]

    def stop(self) -> None:
        self._request("POST", "/stop", body=b"")

    def stop_requested(self) -> bool:
        return bool(self._status()["stop"])

    def beat(self, worker_id: str) -> None:
        self._request("POST", f"/workers/{worker_id}/beat", body=b"")

    def heartbeat_mtime(self, worker_id: str) -> Optional[float]:
        status, data = self._request(
            "GET", f"/workers/{worker_id}", tolerate=(404,)
        )
        if status == 404:
            return None
        return float(json.loads(data)["beats"])

    def worker_target(self) -> str:
        return f"{self.base}/queues/{self.queue}"
