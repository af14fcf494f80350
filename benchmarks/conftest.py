"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables or figures (see
DESIGN.md's per-experiment index), asserts the reproduced *shape* of the
result, and writes the rendered artifact to ``benchmarks/out/`` for
inspection. Run with ``make bench`` (``pytest benchmarks/ -q``).

pytest-benchmark is optional: when the plugin is installed its real
``benchmark`` fixture measures timing stats as usual; when it is absent
(CI does not install it) a pass-through fixture defined below runs each
benchmarked callable once so the suite still executes as a correctness
check.

The experiment benchmarks execute their print sessions through the
:class:`~repro.experiments.batch.BatchRunner`; set ``REPRO_BENCH_WORKERS``
to fan sessions across that many worker processes (``0`` = one per CPU)
and ``REPRO_BENCH_NO_CACHE=1`` to disable the session cache::

    REPRO_BENCH_WORKERS=4 make bench
"""

import os
import sys

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# The bench modules import ``benchmarks.conftest``, which needs the repo
# root importable even when pytest is invoked from inside benchmarks/.
_REPO_ROOT = os.path.dirname(_BENCH_DIR)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def _inside_bench_dir(path: str) -> bool:
    resolved = os.path.abspath(path)
    return resolved == _BENCH_DIR or resolved.startswith(_BENCH_DIR + os.sep)


def _invocation_paths(config):
    """Resolved filesystem paths of the invocation's positional arguments."""
    invocation_dir = os.path.abspath(str(config.invocation_params.dir))
    paths = []
    for arg in config.invocation_params.args:
        text = str(arg).split("::", 1)[0]
        if not text or text.startswith("-"):
            continue
        if not os.path.isabs(text):
            text = os.path.join(invocation_dir, text)
        paths.append(os.path.abspath(text))
    return invocation_dir, paths


def _benchmarks_targeted(config) -> bool:
    """True when the pytest invocation explicitly points at benchmarks/."""
    invocation_dir, paths = _invocation_paths(config)
    if _inside_bench_dir(invocation_dir):
        return True  # e.g. ``cd benchmarks && pytest``
    return any(_inside_bench_dir(path) for path in paths)


def pytest_collect_file(file_path, parent):
    """Collect ``bench_*.py`` modules when benchmarks/ is targeted explicitly.

    The suite's files deliberately don't match pytest's default
    ``test_*.py`` pattern, so a plain ``pytest`` from the repo root never
    pulls these slow regenerations into the tier-1 run. This hook makes the
    documented ``pytest benchmarks/ --benchmark-only`` invocation work.
    Files named directly on the command line are collected natively by
    pytest, so the hook defers on those to avoid double collection.
    """
    if not (file_path.suffix == ".py" and file_path.name.startswith("bench_")):
        return None
    _, arg_paths = _invocation_paths(parent.config)
    fp = str(file_path)
    covered_by_dir_arg = any(
        os.path.isdir(p) and (fp == p or fp.startswith(p + os.sep))
        for p in arg_paths
    )
    if fp in arg_paths and not covered_by_dir_arg:
        return None  # pytest collects direct file args itself
    if _benchmarks_targeted(parent.config):
        import pytest as _pytest

        return _pytest.Module.from_parent(parent, path=file_path)
    return None


def bench_workers() -> int:
    """Worker-process count for batched benchmarks (env-tunable)."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def bench_cache_dir() -> str:
    """Optional persistent golden-cache directory for benchmark runs."""
    return os.environ.get("REPRO_BENCH_CACHE_DIR", "")


def bench_cache():
    """The cache option batched benchmarks run under.

    ``REPRO_BENCH_CACHE_DIR`` selects a persistent on-disk cache,
    ``REPRO_BENCH_NO_CACHE=1`` disables caching, otherwise the shared
    in-process cache is used.
    """
    if bench_cache_dir():
        return bench_cache_dir()
    return os.environ.get("REPRO_BENCH_NO_CACHE", "") != "1"


def bench_provenance() -> str:
    """One line recording the knobs a benchmark artifact was produced under.

    Perf numbers are only comparable between runs that used the same worker
    count and cache mode, so every artifact records both.
    """
    cache = bench_cache()
    if isinstance(cache, str):
        cache_mode = f"dir:{cache}"
    else:
        cache_mode = "shared" if cache else "off"
    return f"[bench config] workers={bench_workers()} cache={cache_mode}"


class _PassThroughBenchmark:
    """Minimal stand-in for pytest-benchmark's fixture: run once, no stats."""

    def __call__(self, func, *args, **kwargs):
        return func(*args, **kwargs)

    def pedantic(
        self, func, args=(), kwargs=None, rounds=1, iterations=1, **_ignored
    ):
        return func(*args, **(kwargs or {}))


class _FallbackBenchmarkPlugin:
    """Registered only when pytest-benchmark is absent or disabled, so an
    installed plugin keeps its real ``benchmark`` fixture (a conftest-level
    fixture would shadow the plugin's unconditionally)."""

    @pytest.fixture
    def benchmark(self):
        return _PassThroughBenchmark()


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(
            _FallbackBenchmarkPlugin(), "repro-fallback-benchmark"
        )


@pytest.fixture(scope="session")
def batch_kwargs() -> dict:
    """Keyword arguments forwarded to every batched experiment run."""
    return dict(workers=bench_workers(), cache=bench_cache())


@pytest.fixture(scope="session")
def out_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def write_artifact(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
        handle.write(f"\n{bench_provenance()}\n")
    return path
