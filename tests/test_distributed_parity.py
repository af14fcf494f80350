"""Randomized fast/precise/distributed parity: invariants that rot silently.

Three byte-identity contracts, one harness:

* **Topology parity** — serial in-process, ``--hosts 2`` (verdict shipping,
  worker-side scoring), ``--hosts 2 --workers 2`` (per-host parallel batches
  on top) must produce **byte-identical** verdict CSV rows for the same
  scenarios.
* **Transport parity** — the same distributed sweep over the filesystem
  work dir, over an HTTP shard queue (real spawned worker subprocesses
  talking to a live server), and with elastic work stealing enabled must
  all reproduce the serial rows byte for byte: how bytes travel and how
  finely work is sharded can never leak into verdicts.
* **Execution-path parity** — the vectorized/batched fast path and the
  per-step precise path must produce **byte-identical** verdict CSV rows,
  serially and across the distributed topologies.

Each run gets its *own* cold cache directory (and fast/precise sessions key
differently anyway), so every parity below is between genuinely independent
executions, not between a run and its cache.

The subsets are seeded-random draws from the union of the ``smoke`` and
``t2-curve`` grids: small enough to keep the harness in tier-1 time, random
enough that sharding boundaries, golden-group splits, and detector mixes
shift from seed to seed instead of pinning one lucky configuration.
"""

import random

import pytest

from repro.experiments.report import render_csv
from repro.experiments.scenario import grid_scenarios, run_sweep


def _scenario_pool():
    """The draw pool: smoke + t2-curve, deduplicated by scenario name."""
    pool = []
    seen = set()
    for grid in ("smoke", "t2-curve"):
        for scenario in grid_scenarios(grid):
            if scenario.name not in seen:
                seen.add(scenario.name)
                pool.append(scenario)
    return pool


def _csv_rows(result):
    """The verdict rows only (no header), the unit of byte-parity."""
    return render_csv(result).splitlines()[1:]


@pytest.mark.slow
@pytest.mark.parametrize("seed", (1105, 2207, 3309))
def test_random_subset_parity_across_topologies(seed, sweep_env):
    pool = _scenario_pool()
    rng = random.Random(seed)
    subset = rng.sample(pool, k=rng.randint(2, 3))

    serial = run_sweep(
        subset,
        cache=sweep_env.cache("serial-cache"),
        grid=f"parity-{seed}",
    )
    hosts_only = run_sweep(
        subset,
        cache=sweep_env.cache("hosts-cache"),
        grid=f"parity-{seed}",
        hosts=2,
        transport=sweep_env.work_dir("hosts-work"),
    )
    composed = run_sweep(
        subset,
        cache=sweep_env.cache("composed-cache"),
        grid=f"parity-{seed}",
        hosts=2,
        workers=2,
        transport=sweep_env.work_dir("composed-work"),
    )

    reference = _csv_rows(serial)
    assert reference  # the draw produced scoreable scenarios
    assert _csv_rows(hosts_only) == reference
    assert _csv_rows(composed) == reference
    # Same independent executions → same simulation economics.
    for distributed in (hosts_only, composed):
        assert distributed.ok == serial.ok
        assert distributed.sessions_simulated == serial.sessions_simulated
        assert distributed.payload_bytes > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", (7719, 8821))
def test_random_subset_parity_across_transports(seed, sweep_env, shard_server):
    """Serial vs filesystem vs HTTP vs steal-enabled: identical rows.

    The HTTP runs spawn real ``repro worker`` subprocesses whose only link
    to the coordinator is the queue URL — actual machine-boundary wiring,
    not an in-process shortcut.
    """
    pool = _scenario_pool()
    rng = random.Random(seed)
    subset = rng.sample(pool, k=rng.randint(2, 3))

    serial = run_sweep(
        subset,
        cache=sweep_env.cache("serial-cache"),
        grid=f"tparity-{seed}",
    )
    filesystem = run_sweep(
        subset,
        cache=sweep_env.cache("fs-cache"),
        grid=f"tparity-{seed}",
        hosts=2,
        transport=sweep_env.work_dir("fs-work"),
    )
    http = run_sweep(
        subset,
        cache=sweep_env.cache("http-cache"),
        grid=f"tparity-{seed}",
        hosts=2,
        transport=f"{shard_server}/queues/tparity-{seed}",
    )
    steal = run_sweep(
        subset,
        cache=sweep_env.cache("steal-cache"),
        grid=f"tparity-{seed}",
        hosts=2,
        steal=True,
        transport=f"{shard_server}/queues/tparity-steal-{seed}",
    )

    reference = _csv_rows(serial)
    assert reference
    for distributed in (filesystem, http, steal):
        assert _csv_rows(distributed) == reference
        assert distributed.ok == serial.ok
        assert distributed.sessions_simulated == serial.sessions_simulated
        assert distributed.payload_bytes > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", (4411, 5513))
def test_fast_vs_precise_parity_serial(seed, sweep_env):
    """The byte-identical-verdict contract, at the sweep level."""
    pool = _scenario_pool()
    rng = random.Random(seed)
    subset = rng.sample(pool, k=rng.randint(2, 3))

    precise = run_sweep(
        subset,
        cache=sweep_env.cache("precise-cache"),
        grid=f"precise-{seed}",
        fast_path=False,
    )
    fast = run_sweep(
        subset,
        cache=sweep_env.cache("fast-cache"),
        grid=f"fast-{seed}",
        fast_path=True,
    )
    reference = _csv_rows(precise)
    assert reference
    assert _csv_rows(fast) == reference
    assert fast.ok == precise.ok
    assert fast.sessions_simulated == precise.sessions_simulated


@pytest.mark.slow
def test_fast_vs_precise_parity_composed_topology(sweep_env):
    """Fast path under ``--hosts 2 --workers 2`` == precise path serial."""
    pool = _scenario_pool()
    subset = random.Random(6617).sample(pool, k=2)

    precise_serial = run_sweep(
        subset,
        cache=sweep_env.cache("precise-cache"),
        grid="xpath",
        fast_path=False,
    )
    fast_composed = run_sweep(
        subset,
        cache=sweep_env.cache("fast-composed-cache"),
        grid="xpath",
        hosts=2,
        workers=2,
        transport=sweep_env.work_dir("fast-composed-work"),
        fast_path=True,
    )
    reference = _csv_rows(precise_serial)
    assert reference
    assert _csv_rows(fast_composed) == reference


@pytest.mark.slow
def test_fast_and_precise_sessions_never_share_cache(sweep_env):
    """The fast_path flag is part of the session content key: a precise
    sweep against a cache warmed by a fast sweep must recompute, not alias."""
    pool = _scenario_pool()
    subset = [pool[0]]
    shared = sweep_env.cache("shared-cache")

    fast = run_sweep(subset, cache=shared, grid="alias", fast_path=True)
    precise = run_sweep(subset, cache=shared, grid="alias", fast_path=False)
    assert _csv_rows(precise) == _csv_rows(fast)
    # A cache hit would have left sessions_simulated at 0.
    assert precise.sessions_simulated == fast.sessions_simulated > 0
