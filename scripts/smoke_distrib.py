#!/usr/bin/env python
"""Distributed parity + payload economics check (`make smoke-distrib`).

For each requested grid, runs the sweep three ways and asserts the
distribution layer changes *nothing* about the verdicts while shrinking
what travels:

1. single-host (`hosts=1`) into its own cache dir — the reference;
2. `hosts=2 --workers N` (subprocess workers scoring their own shards
   through parallel BatchRunner batches) into a fresh shared cache dir —
   the CSV report must be byte-identical to the reference, and the summary
   files the workers wrote into that cache dir must outweigh the verdict
   rows that travelled back (`done/` payload) by ≥ 5× (the whole point of
   worker-side scoring);
3. `hosts=2` again over the same shared cache dir — must simulate zero
   sessions (the incremental invariant survives distribution).

Exit code 0 means every check held for every grid; any drift or failure
exits 1 with a diagnostic. With ``--record PATH`` the measured numbers are
written there (the CI target records into
``benchmarks/out/distributed_sweep.txt``). Recording is *per grid
section*: a run refreshes the sections for the grids it actually ran and
preserves the rest, so `make smoke-distrib` (smoke only) never clobbers
the committed full-grid numbers.

Run from the repo root: ``python scripts/smoke_distrib.py [--grid smoke]
[--workers 2] [--record PATH]`` (the script puts ``src/`` on ``sys.path``
itself; ``--grid`` may repeat).
"""

import argparse
import os
import re
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.experiments.batch import SessionCache  # noqa: E402
from repro.experiments.distrib import PAYLOAD_SHRINK_FLOOR  # noqa: E402
from repro.experiments.report import render_csv  # noqa: E402
from repro.experiments.scenario import grid_scenarios, run_sweep  # noqa: E402


class ParityFailure(Exception):
    pass


def check_grid(grid: str, workers: int, base: str) -> str:
    """Run one grid through all three topologies; returns the report section."""
    scenarios = grid_scenarios(grid)

    serial = run_sweep(
        scenarios,
        cache=SessionCache(directory=os.path.join(base, "serial-cache")),
        grid=grid,
    )
    if not serial.ok:
        raise ParityFailure(f"single-host {grid} sweep not ok:\n{serial.render()}")
    reference_csv = render_csv(serial)

    shared_cache = SessionCache(directory=os.path.join(base, "distrib-cache"))
    distributed = run_sweep(
        scenarios,
        cache=shared_cache,
        grid=grid,
        hosts=2,
        workers=workers,
        transport=os.path.join(base, "work"),
    )
    if not distributed.ok:
        raise ParityFailure(
            f"--hosts 2 --workers {workers} {grid} sweep not ok:\n"
            f"{distributed.render()}"
        )
    if render_csv(distributed) != reference_csv:
        raise ParityFailure(
            f"verdict drift between --hosts 1 and --hosts 2 --workers {workers}:\n"
            f"--- hosts=1 ---\n{reference_csv}\n"
            f"--- hosts=2 ---\n{render_csv(distributed)}"
        )
    if not distributed.host_stats:
        raise ParityFailure("--hosts 2 run reported no per-host stats")
    summary_bytes = shared_cache.disk_bytes()
    if distributed.payload_bytes <= 0 or summary_bytes <= 0:
        raise ParityFailure(
            "payload accounting missing: verdict "
            f"{distributed.payload_bytes} B, summaries {summary_bytes} B"
        )
    shrink = summary_bytes / distributed.payload_bytes
    if shrink < PAYLOAD_SHRINK_FLOOR:
        raise ParityFailure(
            f"verdict payload only {shrink:.1f}x smaller than summaries "
            f"({distributed.payload_bytes} vs {summary_bytes} B); "
            f"expected >= {PAYLOAD_SHRINK_FLOOR:.0f}x"
        )

    repeat = run_sweep(
        scenarios,
        cache=SessionCache(directory=shared_cache.directory),
        grid=grid,
        hosts=2,
        workers=workers,
        transport=os.path.join(base, "work-repeat"),
    )
    if repeat.sessions_simulated != 0 or repeat.cache_misses != 0:
        raise ParityFailure(
            "repeat over the shared cache dir re-simulated "
            f"{repeat.sessions_simulated} sessions "
            f"({repeat.cache_misses} misses); expected 0"
        )
    if render_csv(repeat) != reference_csv:
        raise ParityFailure("verdict drift on the warm repeat")

    host_bits = "; ".join(
        f"{h['worker']}: {h['sessions']} sessions in {h['wall_clock_s']:.1f}s"
        for h in distributed.host_stats
    )
    attacks = len(serial.attack_outcomes)
    return "\n".join(
        [
            f"grid: {grid} ({len(scenarios)} scenarios, "
            f"{serial.sessions_total} unique sessions)",
            f"attacks detected: {serial.attacks_detected}/{attacks}; "
            f"false positives: {serial.false_positives}",
            f"serial (hosts=1):              {serial.wall_clock_s:7.2f}s",
            f"hosts=2 workers={workers} (verdicts): {distributed.wall_clock_s:7.2f}s"
            f"  [{host_bits}]",
            f"warm repeat:                   {repeat.wall_clock_s:7.2f}s"
            "  (0 sessions simulated, 0 dispatched)",
            f"done/ payload: verdict rows {distributed.payload_bytes} B vs "
            f"summaries on disk {summary_bytes} B ({shrink:.1f}x smaller)",
            "verdict parity: CSV rows byte-identical across serial / "
            f"hosts=2 workers={workers} / warm repeat",
        ]
    )


def _merge_record(path: str, fresh: "dict[str, str]", workers: int) -> None:
    """Write the record file, replacing only the sections just re-measured.

    Sections are blank-line-separated blocks whose first line is
    ``grid: <name> ...``; existing sections for grids *not* in this run
    are preserved in place, so a smoke-only CI run never clobbers the
    committed full-grid numbers.
    """
    sections: "dict[str, str]" = {}
    try:
        with open(path, encoding="utf-8") as handle:
            existing = handle.read()
    except FileNotFoundError:
        existing = ""
    for block in existing.split("\n\n"):
        block = block.strip("\n")
        match = re.match(r"^grid: (\S+)", block)
        if match:
            sections[match.group(1)] = block
    sections.update(fresh)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "distributed sweep: parity + done/ payload economics\n"
            f"(scripts/smoke_distrib.py --workers {workers}; sections refresh "
            "independently per grid)\n\n"
        )
        handle.write("\n\n".join(sections.values()))
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--grid",
        action="append",
        help="grid(s) to check (repeatable; default: smoke)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="per-host BatchRunner processes for the composed run (default: 2)",
    )
    parser.add_argument(
        "--record",
        help="also write the measured numbers to this file "
        "(CI records benchmarks/out/distributed_sweep.txt)",
    )
    args = parser.parse_args(argv)
    grids = args.grid or ["smoke"]

    sections = {}
    for grid in grids:
        with tempfile.TemporaryDirectory(prefix="repro-smoke-distrib-") as base:
            try:
                sections[grid] = check_grid(grid, args.workers, base)
            except ParityFailure as failure:
                print(f"smoke-distrib: FAIL — {failure}")
                return 1
    print("smoke-distrib: OK\n" + "\n\n".join(sections.values()))
    if args.record:
        _merge_record(args.record, sections, args.workers)
        print(f"recorded -> {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
