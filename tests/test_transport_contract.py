"""The transport contract: one behavioural suite, every backend must pass.

``repro sweep --hosts N`` promises the same shard lifecycle regardless of
what carries the bytes — a shared directory of atomic renames, an
in-process registry, or an HTTP shard queue backed by SQLite conditional
UPDATEs. :class:`TransportContractTests` pins that lifecycle as executable
law, and one subclass per registered scheme runs the identical tests
against a real instance of that backend (the HTTP subclass talks to a
live threaded WSGI server, not a mock):

* **claim exclusivity** — N concurrent claimers, exactly one wins;
* **requeue after forfeit** — a claimed shard returns to pending intact,
  and a stale token (the race already lost) re-queues nothing;
* **torn-write degradation** — a corrupt pending payload reads as a
  *dropped* shard (re-enqueued by the coordinator), never an exception
  and never executed;
* **wire-format skew fails loud** — a cleanly readable payload from an
  incompatible protocol version raises :class:`WireFormatError` after
  handing the shard back to compatible workers;
* **STOP propagation** and **reset**;
* **done-payload round-trip** — results survive the wire byte-exactly,
  and ``load_result`` counts the bytes from the same single fetch;
* **non-shard payloads** — a well-formed envelope around anything but a
  shard is abandoned by the worker, never executed;
* **heartbeat advancement** — what the coordinator's liveness watch
  actually reads.

A new backend earns its place by adding a scheme to ``TRANSPORT_SCHEMES``
*and* a subclass here; the meta-test at the bottom fails the build if a scheme
ships without contract coverage.
"""

import os
import pickle
import socketserver
import threading
import time
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

import pytest

from repro.detection.protocol import ScoreSpec
from repro.experiments.batch import SessionSpec
from repro.experiments.distrib import (
    Coordinator,
    ScenarioJob,
    ShardResult,
    WorkShard,
    Worker,
)
from repro.experiments.transport import (
    TRANSPORT_SCHEMES,
    WIRE_FORMAT,
    InMemoryTransport,
    WireFormatError,
    WorkDir,
    create_transport,
    encode_wire,
)
from repro.experiments.transport_http import HttpTransport
from repro.gcode.ast import GcodeProgram
from repro.service.app import create_app


def _skewed_wire(payload):
    """A cleanly readable envelope from a future protocol version."""
    return pickle.dumps(
        {"format": WIRE_FORMAT + 1, "payload": payload},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _shard(shard_id, *job_names):
    spec = SessionSpec(GcodeProgram())
    jobs = tuple(
        ScenarioJob(index, name, spec, spec, ScoreSpec.for_detectors(["golden"]))
        for index, name in enumerate(job_names)
    )
    return WorkShard(shard_id=shard_id, jobs=jobs)


def _result(shard_id, worker_id="w1"):
    return ShardResult(shard_id, worker_id, 0.25)


class TransportContractTests:
    """Behavioural contract every registered transport backend must pass.

    Subclasses provide a ``transport`` fixture yielding a *fresh* (reset)
    backend instance per test; every test below runs once per backend.
    """

    def test_done_roundtrip(self, transport):
        transport.enqueue(_shard(5, "ok"))
        assert transport.pending_ids() == [5]
        assert transport.done_ids() == []

        claim = transport.claim(5, "w1")
        assert claim is not None
        assert claim.shard.shard_id == 5
        assert [job.name for job in claim.shard.jobs] == ["ok"]
        assert transport.pending_ids() == []
        assert transport.claims() == [(5, "w1")]

        transport.complete(claim, _result(5))
        assert transport.done_ids() == [5]
        assert transport.claims() == []
        loaded, nbytes = transport.load_result(5)
        assert isinstance(loaded, ShardResult)
        assert (loaded.shard_id, loaded.worker_id) == (5, "w1")
        assert nbytes > 0

        transport.discard_done(5)
        assert transport.done_ids() == []
        assert transport.load_result(5) == (None, 0)

    def test_load_result_counts_the_wire_bytes(self, transport):
        result = _result(8)
        transport.put_result(8, encode_wire(result))
        loaded, nbytes = transport.load_result(8)
        assert (loaded.shard_id, loaded.worker_id) == (8, "w1")
        assert nbytes == len(encode_wire(result))

    def test_claim_missing_shard_returns_none(self, transport):
        assert transport.claim(99, "w1") is None

    def test_claim_exclusivity_under_concurrency(self, transport):
        transport.enqueue(_shard(0))
        claimers = 8
        barrier = threading.Barrier(claimers)
        wins, errors = [], []

        def attempt(worker_id):
            barrier.wait()
            try:
                claim = transport.claim(0, worker_id)
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)
                return
            if claim is not None:
                wins.append((worker_id, claim))

        threads = [
            threading.Thread(target=attempt, args=(f"w{i}",))
            for i in range(claimers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(wins) == 1, f"expected exactly one winner, got {wins}"
        winner, claim = wins[0]
        assert claim.shard.shard_id == 0
        assert transport.claims() == [(0, winner)]
        assert transport.pending_ids() == []

    def test_requeue_after_forfeit(self, transport):
        transport.enqueue(_shard(2))
        claim = transport.claim(2, "w1")
        assert claim is not None
        assert transport.requeue(2, "w1") is True
        assert transport.pending_ids() == [2]
        assert transport.claims() == []
        # The shard survives the round trip intact and is claimable again.
        reclaim = transport.claim(2, "w2")
        assert reclaim is not None
        assert reclaim.shard.shard_id == 2
        # The original claimer lost the shard: nothing to re-queue.
        assert transport.requeue(2, "w1") is False
        assert transport.claims() == [(2, "w2")]

    def test_requeue_stale_token_is_noop(self, transport):
        transport.enqueue(_shard(1))
        claim = transport.claim(1, "w1")
        transport.complete(claim, _result(1))
        # The worker completed after all; the done payload wins.
        assert transport.requeue(1, claim.worker_id) is False
        assert transport.done_ids() == [1]
        assert transport.pending_ids() == []

    def test_torn_pending_payload_degrades_to_dropped_shard(self, transport):
        transport.put_pending(7, b"not a pickle at all")
        assert transport.pending_ids() == [7]
        assert transport.claim(7, "w1") is None
        # The shard is gone from every queue state: the coordinator's
        # liveness pass re-enqueues it from its in-memory copy.
        assert transport.pending_ids() == []
        assert transport.claims() == []
        assert transport.done_ids() == []

    def test_wire_skew_on_claim_fails_loud(self, transport):
        transport.put_pending(3, _skewed_wire(_shard(3)))
        with pytest.raises(WireFormatError):
            transport.claim(3, "w1")
        # The shard went back to pending: a compatible worker can take it.
        assert transport.pending_ids() == [3]
        assert transport.claims() == []

    def test_wire_skew_on_result_fails_loud(self, transport):
        transport.put_result(4, _skewed_wire(_result(4)))
        with pytest.raises(WireFormatError, match="wire format"):
            transport.load_result(4)

    def test_corrupt_result_reads_as_absent(self, transport):
        transport.put_result(6, b"\x00torn result bytes")
        assert 6 in transport.done_ids()
        assert transport.load_result(6)[0] is None

    def test_worker_abandons_non_shard_payload(self, transport):
        # A well-formed envelope around something that is not a shard: the
        # worker must drop it, not crash on it or execute it.
        transport.put_pending(0, encode_wire({"not": "a shard"}))
        assert Worker(transport, worker_id="w1", idle_timeout_s=0.0).run() == 0
        assert transport.pending_ids() == []
        assert transport.claims() == []
        assert transport.done_ids() == []

    def test_stop_propagation(self, transport):
        assert transport.stop_requested() is False
        transport.stop()
        assert transport.stop_requested() is True
        transport.reset()
        assert transport.stop_requested() is False

    def test_reset_clears_all_state(self, transport):
        transport.enqueue(_shard(0))
        transport.enqueue(_shard(1))
        claim = transport.claim(0, "w1")
        transport.complete(claim, _result(0))
        transport.claim(1, "w2")
        transport.stop()
        transport.beat("w1")
        transport.reset()
        assert transport.pending_ids() == []
        assert transport.claims() == []
        assert transport.done_ids() == []
        assert transport.stop_requested() is False
        assert transport.heartbeat_mtime("w1") is None

    def test_heartbeat_advances(self, transport):
        assert transport.heartbeat_mtime("w1") is None
        transport.beat("w1")
        first = transport.heartbeat_mtime("w1")
        assert first is not None
        # The filesystem backend's beats are mtimes; give the clock a tick
        # so "advanced" is observable on coarse-timestamp filesystems too.
        time.sleep(0.02)
        transport.beat("w1")
        second = transport.heartbeat_mtime("w1")
        assert second is not None
        assert second > first
        assert transport.heartbeat_mtime("w2") is None

    def test_worker_target_round_trips_through_factory(self, transport):
        peer = create_transport(transport.worker_target())
        assert peer.scheme == transport.scheme
        transport.enqueue(_shard(9))
        assert peer.pending_ids() == [9]


class TestFilesystemTransportContract(TransportContractTests):
    @pytest.fixture
    def transport(self, tmp_path):
        work = WorkDir(str(tmp_path / "work"))
        work.reset()
        return work

    def test_file_names_follow_the_shard_lifecycle(self, transport):
        """External tooling reads the work dir: the file names are the API."""
        def files(sub):
            return sorted(os.listdir(os.path.join(transport.root, sub)))

        transport.enqueue(_shard(3))
        assert files("pending") == ["shard-0003.pkl"]
        claim = transport.claim(3, "w1")
        assert (files("pending"), files("claimed")) == ([], ["shard-0003@w1.pkl"])
        transport.complete(claim, _result(3))
        assert (files("claimed"), files("done")) == ([], ["shard-0003.pkl"])


def test_fs_url_names_the_same_directory_as_the_bare_path(tmp_path, monkeypatch):
    """``fs:///abs/q`` and ``/abs/q`` are one queue, whatever the cwd."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    root = str(tmp_path / "queue")
    assert create_transport(f"fs://{root}").root == create_transport(root).root == root
    assert os.listdir(cwd) == []


class TestInMemoryTransportContract(TransportContractTests):
    @pytest.fixture
    def transport(self, request):
        name = f"contract-{request.node.name}"
        backend = InMemoryTransport.named(name)
        backend.reset()
        return backend


class _ThreadedServer(socketserver.ThreadingMixIn, WSGIServer):
    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 - wsgiref signature
        pass


@pytest.fixture(scope="module")
def shard_server():
    """One live threaded shard server for the whole HTTP contract run."""
    app = create_app(db=":memory:", background=True)
    server = make_server(
        "127.0.0.1", 0, app,
        server_class=_ThreadedServer, handler_class=_QuietHandler,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join(timeout=5)


class TestHttpTransportContract(TransportContractTests):
    @pytest.fixture
    def transport(self, shard_server, request):
        queue = request.node.name.replace("[", ".").replace("]", "")
        backend = HttpTransport(f"{shard_server}/queues/{queue}")
        backend.reset()
        return backend


def test_every_registered_scheme_has_contract_coverage():
    """A transport scheme without a contract subclass is a build error."""
    covered = {
        WorkDir.scheme,
        InMemoryTransport.scheme,
        HttpTransport.scheme,
    }
    assert covered == set(TRANSPORT_SCHEMES), (
        "every transport scheme needs a TransportContractTests "
        f"subclass; covered={sorted(covered)} "
        f"registered={sorted(TRANSPORT_SCHEMES)}"
    )


def test_collect_done_fetches_each_result_once():
    """One fetch per result: its bytes are counted from the same read."""
    class Counting(InMemoryTransport):
        fetches = 0

        def get_result(self, shard_id):
            Counting.fetches += 1
            return super().get_result(shard_id)

    work = Counting("collect-once")
    shards = {sid: _shard(sid) for sid in range(3)}
    for sid in shards:
        work.put_result(sid, encode_wire(_result(sid)))
    done, sizes = {}, {}
    Coordinator(hosts=1, spawn_local=False)._collect_done(work, shards, done, sizes)
    assert sorted(done) == [0, 1, 2]
    assert Counting.fetches == 3
    assert sizes == {sid: len(encode_wire(_result(sid))) for sid in shards}


def test_encode_decode_round_trip_is_byte_stable():
    """Same payload, same bytes — enqueue order can't leak into the wire."""
    shard = _shard(11)
    assert encode_wire(shard) == encode_wire(shard)
