"""Persistent GoldenPrintCache tests: key stability, persistence, corruption.

The on-disk cache is the layer that lets golden prints survive across
processes and runs; these tests pin down the properties that make that safe:
content keys are identical in every process, disk entries round-trip through
fresh cache instances, and any damaged entry degrades to a miss (i.e. a
re-simulation) rather than a wrong result.
"""

import multiprocessing
import os
import pickle

import pytest

from tests.conftest import corrupt_file, corrupt_pickle

from repro.experiments.batch import (
    _CACHE_FORMAT,
    BatchRunner,
    GoldenPrintCache,
    SessionSpec,
    resolve_cache,
    shared_cache,
)


def _spec(tiny_program, **overrides):
    defaults = dict(
        program=tiny_program, noise_sigma=0.0005, noise_seed=11, cacheable=True
    )
    defaults.update(overrides)
    return SessionSpec(**defaults)


def _key_in_subprocess(spec: SessionSpec) -> str:
    return spec.content_key()


class TestKeyStabilityAcrossProcesses:
    def test_content_key_identical_in_spawned_process(self, tiny_program):
        # ``spawn`` re-imports everything from scratch, so this catches any
        # dependence on per-process state (hash randomization, id(), ...).
        spec = _spec(tiny_program)
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child_key = pool.apply(_key_in_subprocess, (spec,))
        assert child_key == spec.content_key()


class TestDiskPersistence:
    def test_put_then_get_through_fresh_instance(self, tiny_program, tmp_path):
        spec = _spec(tiny_program)
        writer = GoldenPrintCache(directory=str(tmp_path))
        summary = BatchRunner(workers=1, cache=writer).run([spec])[0]
        assert writer.misses == 1  # the initial lookup

        reader = GoldenPrintCache(directory=str(tmp_path))
        assert len(reader) == 0  # nothing in memory yet
        restored = reader.get(spec.content_key())
        assert restored is not None
        assert reader.hits == 1
        assert reader.disk_hits == 1
        assert reader.misses == 0
        assert restored.transactions == summary.transactions
        assert restored.final_counts == summary.final_counts
        assert restored.status is summary.status

    def test_trace_columns_round_trip_compactly(self, tiny_program, tmp_path):
        spec = _spec(tiny_program)
        writer = GoldenPrintCache(directory=str(tmp_path))
        live = BatchRunner(workers=1, cache=writer).run([spec])[0].trace
        restored = GoldenPrintCache(directory=str(tmp_path)).get(spec.content_key()).trace
        assert len(live) > 1000
        for before, after in zip(live.columns(), restored.columns(), strict=True):
            assert (after.typecode, after) == (before.typecode, before)
        # Five typed columns pickle as 40 bytes a sample; one TraceSample
        # object per sample takes about 63 on this print.
        pickled = pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(pickled) < 48 * len(live)

    def test_second_batch_rereads_zero_sessions(self, tiny_program, tmp_path):
        spec = _spec(tiny_program)
        BatchRunner(workers=1, cache=str(tmp_path)).run([spec])

        cache = resolve_cache(str(tmp_path))
        second = BatchRunner(workers=1, cache=cache).run([spec])[0]
        assert cache.hits == 1 and cache.misses == 0
        assert second.completed

    def test_memory_miss_counts_without_directory(self, tiny_program):
        cache = GoldenPrintCache()
        assert cache.get("nope") is None
        assert cache.misses == 1 and cache.hits == 0 and cache.disk_hits == 0

    def test_failed_disk_write_warns_but_keeps_memory_entry(
        self, tiny_program, tmp_path
    ):
        # A full/read-only filesystem must not discard a completed batch.
        cache = GoldenPrintCache(directory=str(tmp_path))
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache.directory = str(blocker / "sub")  # mkstemp will fail here
        spec = _spec(tiny_program)
        with pytest.warns(RuntimeWarning, match="not persisted"):
            summary = BatchRunner(workers=1, cache=cache).run([spec])[0]
        assert summary.completed
        assert cache._entries[spec.content_key()] is summary

    def test_clear_keeps_disk_entries(self, tiny_program, tmp_path):
        spec = _spec(tiny_program)
        cache = GoldenPrintCache(directory=str(tmp_path))
        BatchRunner(workers=1, cache=cache).run([spec])
        cache.clear()
        assert len(cache) == 0
        assert cache.get(spec.content_key()) is not None  # reloaded from disk
        assert cache.disk_hits == 1

    def test_probe_sees_memory_and_disk_without_loading_or_counting(
        self, tiny_program, tmp_path
    ):
        spec = _spec(tiny_program)
        cache = GoldenPrintCache(directory=str(tmp_path))
        BatchRunner(workers=1, cache=cache).run([spec])
        cache.hits = cache.misses = cache.disk_hits = 0
        assert cache.probe(spec.content_key())  # in memory
        assert not cache.probe("absent-key")

        reader = GoldenPrintCache(directory=str(tmp_path))
        assert reader.probe(spec.content_key())  # on disk
        assert len(reader) == 0  # ...but nothing was deserialized
        # Probes never touch the hit/miss accounting.
        for instance in (cache, reader):
            assert (instance.hits, instance.misses, instance.disk_hits) == (0, 0, 0)

    def test_probe_true_for_corrupt_entry_then_get_misses(
        self, tiny_program, tmp_path
    ):
        # The documented probe caveat: presence is not validity. A caller
        # acting on a probe must tolerate the subsequent get() miss.
        spec = _spec(tiny_program)
        GoldenPrintCache(directory=str(tmp_path)).put(
            spec.content_key(), BatchRunner(workers=1).run([spec])[0]
        )
        path = os.path.join(str(tmp_path), f"{spec.content_key()}.summary.pkl")
        corrupt_file(path, b"torn write garbage")
        reader = GoldenPrintCache(directory=str(tmp_path))
        assert reader.probe(spec.content_key())
        assert reader.get(spec.content_key()) is None


class TestCorruptedEntries:
    @pytest.fixture
    def populated(self, tiny_program, tmp_path):
        spec = _spec(tiny_program)
        cache = GoldenPrintCache(directory=str(tmp_path))
        BatchRunner(workers=1, cache=cache).run([spec])
        key = spec.content_key()
        path = os.path.join(str(tmp_path), f"{key}.summary.pkl")
        assert os.path.exists(path)
        return spec, key, path

    def test_garbage_entry_is_a_miss_and_resimulates(self, populated, tmp_path):
        spec, key, path = populated
        corrupt_file(path, b"not a pickle at all")
        fresh = GoldenPrintCache(directory=str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.misses == 1
        # The batch falls back to a full re-simulation and repopulates.
        summary = BatchRunner(workers=1, cache=fresh).run([spec])[0]
        assert summary.completed
        assert fresh.get(key) is not None

    def test_truncated_entry_is_a_miss(self, populated, tmp_path):
        _, key, path = populated
        with open(path, "rb") as handle:
            blob = handle.read()
        corrupt_file(path, blob[: len(blob) // 2])
        fresh = GoldenPrintCache(directory=str(tmp_path))
        assert fresh.get(key) is None

    def test_wrong_key_entry_is_a_miss(self, populated, tmp_path):
        _, key, path = populated
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["key"] = "0" * 64
        corrupt_pickle(path, payload)
        fresh = GoldenPrintCache(directory=str(tmp_path))
        assert fresh.get(key) is None

    def test_wrong_format_version_is_a_miss(self, populated, tmp_path):
        _, key, path = populated
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["format"] = _CACHE_FORMAT + 1
        corrupt_pickle(path, payload)
        fresh = GoldenPrintCache(directory=str(tmp_path))
        assert fresh.get(key) is None

    def test_non_dict_payload_is_a_miss(self, populated, tmp_path):
        _, key, path = populated
        corrupt_pickle(path, ["wrong", "shape"])
        fresh = GoldenPrintCache(directory=str(tmp_path))
        assert fresh.get(key) is None


class TestCacheOptionResolution:
    def test_string_resolves_to_persistent_cache(self, tmp_path):
        cache = resolve_cache(str(tmp_path / "golden"))
        assert isinstance(cache, GoldenPrintCache)
        assert cache.directory == str(tmp_path / "golden")
        assert os.path.isdir(cache.directory)

    def test_env_var_makes_shared_cache_persistent(self, tmp_path, monkeypatch):
        import repro.experiments.batch as batch

        monkeypatch.setattr(batch, "_SHARED_CACHE", None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert shared_cache().directory == str(tmp_path / "env-cache")

    def test_shared_cache_defaults_to_memory_only(self, monkeypatch):
        import repro.experiments.batch as batch

        monkeypatch.setattr(batch, "_SHARED_CACHE", None)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert shared_cache().directory is None
