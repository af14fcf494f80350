"""Command-line interface: ``python -m repro <command>``.

Mirrors the workflows of the paper's tooling:

* ``slice``    — shape → G-code (the Cura role);
* ``print``    — execute G-code on the simulated machine, capture the
  OFFRAMPS transaction stream to CSV (the print + capture role);
* ``attack``   — apply a Flaw3D/dr0wned transform to a G-code file (the
  malicious-bootloader role);
* ``detect``   — compare two capture CSVs with the 5 % margin + final check
  (the paper's Python detection script);
* ``table1`` / ``table2`` / ``figure4`` / ``overhead`` / ``drift`` /
  ``ablation`` — regenerate the corresponding paper artifact;
* ``sweep``    — expand a named scenario grid (parts × attacks × detectors
  × seeds) into one flat batch and score it; with ``--cache-dir`` the sweep
  is incremental (repeats re-simulate nothing), ``--hosts N`` shards the
  pending scenarios across N worker hosts (subprocess workers over any
  ``--transport`` backend: a shared directory, or an HTTP shard queue on a
  ``repro serve`` instance that crosses machine boundaries with no shared mount)
  which *score worker-side* and ship only verdict rows back, claiming a
  few small shards per host so idle/late-joining hosts rebalance,
  ``--workers M`` composes with ``--hosts`` for N×M total parallelism, and
  ``--csv`` / ``--html`` emit report files alongside the text table;
* ``worker``   — serve a sweep shard queue: claim pending shards, execute
  (and score) them, publish results. Run it by hand on any machine that
  shares the coordinator's queue directory — or, over HTTP, just its network —
  to join a sweep; ``--workers M`` runs each shard as a parallel batch;
* ``lint``     — the determinism & wire-safety static analyzer
  (:mod:`repro.analysis.lint`): AST rules guarding the byte-identical-
  verdict contract (builtin ``hash()`` seeding, unseeded RNG draws,
  wall-clock reads in sim code, unsorted set consumption, non-atomic
  binary writes, unsafe wire-class fields). Exit 1 on any unsuppressed
  finding; ``--rules`` prints the catalog, ``--json`` machine output.

Every experiment subcommand shares one option block (``--workers``,
``--no-cache``, ``--cache-dir``, ``--out``) wired through a single parent
parser; ``--cache-dir`` (or ``REPRO_CACHE_DIR``) makes the content-keyed
session cache persistent on disk.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.capture import load_capture_csv, save_capture_csv
from repro.detection.comparator import CaptureComparator
from repro.experiments.runner import run_print
from repro.gcode.parser import parse_file
from repro.gcode.slicer import Box, Cylinder, Slicer
from repro.gcode.transforms.edits import insert_void, scale_moves
from repro.gcode.transforms.flaw3d import Flaw3dReduction, Flaw3dRelocation
from repro.gcode.writer import write_file


def _cmd_slice(args: argparse.Namespace) -> int:
    if args.shape == "box":
        shape = Box(width_mm=args.width, depth_mm=args.depth, height=args.height)
    else:
        shape = Cylinder(radius_mm=args.width / 2, height=args.height)
    result = Slicer().slice(shape)
    write_file(result.program, args.out)
    print(
        f"sliced {shape.name}: {result.layer_count} layers, "
        f"{result.command_count} commands, {result.filament_mm:.1f} mm filament "
        f"-> {args.out}"
    )
    return 0


def _cmd_print(args: argparse.Namespace) -> int:
    program = parse_file(args.gcode)
    result = run_print(
        program,
        noise_sigma=args.noise,
        noise_seed=args.seed,
        uart_period_ms=args.uart_period_ms,
    )
    print(
        f"print {args.gcode}: {result.status.value}"
        + (f" ({result.kill_reason})" if result.kill_reason else "")
    )
    print(
        f"  {result.duration_s:.0f} simulated seconds, "
        f"{len(result.capture)} transactions, final counts {result.final_counts()}"
    )
    if args.capture:
        save_capture_csv(result.capture, args.capture)
        print(f"  capture -> {args.capture}")
    return 0 if result.completed else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    program = parse_file(args.gcode)
    if args.reduction is not None:
        program = Flaw3dReduction(args.reduction).apply(program)
        label = f"flaw3d reduction x{args.reduction}"
    elif args.relocation is not None:
        program = Flaw3dRelocation(args.relocation).apply(program)
        label = f"flaw3d relocation every {args.relocation} moves"
    elif args.void is not None:
        program = insert_void(program, tuple(args.void))
        label = f"dr0wned void {args.void}"
    else:
        program = scale_moves(program, args.scale)
        label = f"scale x{args.scale}"
    write_file(program, args.out)
    print(f"applied {label}: {args.gcode} -> {args.out}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    golden = load_capture_csv(args.golden)
    suspect = load_capture_csv(args.suspect)
    comparator = CaptureComparator(margin=args.margin)
    report = comparator.compare_captures(golden, suspect)
    print(report.render())
    return 1 if report.trojan_likely else 0


def _batch_kwargs(args: argparse.Namespace) -> dict:
    """The BatchRunner knobs shared by every experiment subcommand.

    ``--cache-dir`` wins over ``--no-cache``; without either, the shared
    in-process cache is used (which itself honors ``REPRO_CACHE_DIR``).
    """
    if getattr(args, "cache_dir", None):
        cache = args.cache_dir
    else:
        cache = not args.no_cache
    return dict(workers=args.workers, cache=cache)


def _emit(args: argparse.Namespace, text: str) -> None:
    """Print an experiment's rendered output; mirror it to ``--out`` if set.

    The file is written before stdout so the artifact survives a closed
    pipe (e.g. ``repro table1 --out t1.txt | head``).
    """
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    print(text)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import render_table1, run_table1

    _emit(args, render_table1(run_table1(**_batch_kwargs(args))))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import run_table2

    result = run_table2(**_batch_kwargs(args))
    _emit(args, result.render())
    return 0 if result.all_detected and not result.false_positive else 1


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.experiments.figure4 import run_figure4

    _emit(args, run_figure4(**_batch_kwargs(args)).render())
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.experiments.overhead import run_overhead

    experiment = run_overhead(**_batch_kwargs(args))
    _emit(args, experiment.render())
    return 0 if experiment.no_quality_effect else 1


def _cmd_drift(args: argparse.Namespace) -> int:
    from repro.experiments.drift import run_drift

    experiment = run_drift(**_batch_kwargs(args))
    _emit(args, experiment.render())
    return 0 if experiment.within_margin(5.0) else 1


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import run_ablation

    _emit(args, run_ablation(**_batch_kwargs(args)).render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.experiments.report import write_reports
    from repro.experiments.scenario import GRIDS, grid_scenarios, run_sweep

    try:
        scenarios = grid_scenarios(args.grid)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.list:
        lines = [f"grid {args.grid!r}: {GRIDS[args.grid].description}"]
        for sc in scenarios:
            lines.append(
                f"  {sc.name:<28} part={sc.part:<10} "
                f"attack={sc.attack or '-':<24} detectors={','.join(sc.detectors)}"
            )
        _emit(args, "\n".join(lines))
        return 0
    result = run_sweep(
        scenarios,
        grid=args.grid,
        hosts=args.hosts,
        transport=args.transport,
        fast_path=not args.precise,
        **_batch_kwargs(args),
    )
    _emit(args, result.render())
    for path in write_reports(result, csv_path=args.csv, html_path=args.html):
        print(f"report -> {path}")
    return 0 if result.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import (
        LintConfigError,
        render_json,
        render_sarif_result,
        render_text,
        rule_catalog,
        run_lint,
        update_baseline,
        update_wire_baseline,
    )

    if args.rules:
        print(rule_catalog())
        return 0
    try:
        if args.update_baseline:
            path, count = update_baseline(root=args.root)
            print(f"baseline -> {path} ({count} acknowledged finding(s))")
            return 0
        if args.update_wire_baseline:
            path, count = update_wire_baseline(root=args.root)
            print(f"wire-schema baseline -> {path} ({count} protocol(s))")
            return 0
        result = run_lint(
            paths=args.paths or None, root=args.root, profile=args.profile
        )
    except LintConfigError as exc:
        print(f"lint config error:\n{exc}", file=sys.stderr)
        return 2
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(render_sarif_result(result))
        print(f"sarif -> {args.sarif}")
    print(render_json(result) if args.json else render_text(result))
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import create_app, run_wsgi_server

    cache = args.cache_dir if args.cache_dir else not args.no_cache
    workers = args.workers  # None = honor each submission's own setting
    app = create_app(db=args.db, cache=cache, workers=workers)
    run_wsgi_server(app, args.host, args.port)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.experiments.distrib import Worker

    worker = Worker(
        args.target,
        worker_id=args.id,
        cache=args.cache_dir,
        poll_s=args.poll_s,
        idle_timeout_s=args.idle_timeout_s,
        workers=args.workers,
    )
    executed = worker.run()
    print(f"worker {worker.worker_id}: {executed} shard(s) executed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OFFRAMPS reproduction: simulate, attack, capture, detect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slice", help="slice a shape to G-code")
    p.add_argument("--shape", choices=("box", "cylinder"), default="box")
    p.add_argument("--width", type=float, default=16.0, help="width / diameter (mm)")
    p.add_argument("--depth", type=float, default=16.0)
    p.add_argument("--height", type=float, default=1.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("print", help="print G-code on the simulated machine")
    p.add_argument("gcode")
    p.add_argument("--noise", type=float, default=0.0005, help="time-noise sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--uart-period-ms", type=int, default=100)
    p.add_argument("--capture", help="write the transaction stream to this CSV")
    p.set_defaults(func=_cmd_print)

    p = sub.add_parser("attack", help="apply a malicious transform to G-code")
    p.add_argument("gcode")
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--reduction", type=float, help="Flaw3D reduction factor")
    group.add_argument("--relocation", type=int, help="Flaw3D relocation period")
    group.add_argument(
        "--void", type=float, nargs=6, metavar=("XMIN", "YMIN", "ZMIN", "XMAX", "YMAX", "ZMAX")
    )
    group.add_argument("--scale", type=float, default=0.95, help="XY scale factor")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("detect", help="compare two captures (exit 1 on Trojan)")
    p.add_argument("golden")
    p.add_argument("suspect")
    p.add_argument("--margin", type=float, default=0.05)
    p.set_defaults(func=_cmd_detect)

    batch_parent = _batch_options_parser()
    for name, func, help_text in (
        ("table1", _cmd_table1, "regenerate Table I (Trojan suite)"),
        ("table2", _cmd_table2, "regenerate Table II (Flaw3D detection)"),
        ("figure4", _cmd_figure4, "regenerate Figure 4 (detection output)"),
        ("overhead", _cmd_overhead, "regenerate the Section V-B overhead analysis"),
        ("drift", _cmd_drift, "regenerate the Section V-C drift analysis"),
        ("ablation", _cmd_ablation, "run the UART-period/margin ablation"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[batch_parent])
        p.set_defaults(func=func)

    p = sub.add_parser(
        "sweep",
        help="run a named scenario grid (parts x attacks x detectors x seeds)",
        parents=[batch_parent],
    )
    p.add_argument(
        "--grid",
        default="full",
        help="registered scenario grid to expand (default: full; others: "
        "smoke, clean, table1, trojans, flaw3d, dr0wned, and the parametric "
        "curves t2-curve, t9-curve, curves)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="list the grid's scenarios without running them",
    )
    p.add_argument(
        "--csv",
        help="also write the sweep as CSV (one row per scenario x detector)",
    )
    p.add_argument(
        "--html",
        help="also write the sweep as a self-contained HTML report",
    )
    p.add_argument(
        "--hosts",
        type=int,
        default=1,
        help="shard the pending scenarios across N worker hosts "
        "(subprocess workers over the --transport queue; default: 1 = in-process). "
        "Composes with --workers: each host runs its shard through a "
        "parallel batch of that many processes (total parallelism N x M)",
    )
    p.add_argument(
        "--transport",
        default=None,
        help="shard-queue backend target: a filesystem path (pending/"
        "claimed/done shards; default: a temp dir), "
        "http://host:port/queues/<name> (a `repro serve` shard queue — "
        "workers join over the network, no shared mount), or "
        "memory://<name> (in-process; tests). "
        "External hosts join with `repro worker <same target>`.",
    )
    p.add_argument(
        "--precise",
        action="store_true",
        help="force the per-event precise simulation path instead of the "
        "default batched fast path (verdicts are byte-identical either way; "
        "fast and precise sessions cache under distinct keys)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "lint",
        help="run the determinism & wire-safety static analyzer "
        "(exit 1 on unsuppressed findings)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint "
        "(default: the [tool.repro.lint] paths in pyproject.toml)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON instead of text",
    )
    p.add_argument(
        "--rules",
        action="store_true",
        help="print the rule catalog (code, rationale, fix, scope) and exit",
    )
    p.add_argument(
        "--root",
        default=None,
        help="project root holding pyproject.toml (default: current directory)",
    )
    p.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write findings as a SARIF 2.1.0 document (for CI "
        "annotation upload)",
    )
    p.add_argument(
        "--profile",
        default=None,
        help="run a named [tool.repro.lint.profile.<name>] profile "
        "(re-scoped paths, disabled rules) — e.g. `--profile tests`",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the committed findings baseline from the current "
        "run (carries justifications forward) and exit",
    )
    p.add_argument(
        "--update-wire-baseline",
        action="store_true",
        help="re-snapshot the configured wire protocols into the "
        "committed wire-schema baseline and exit",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="run the sweep service (HTTP API + persistent SQLite job store)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument(
        "--db",
        default=".repro-service/jobs.sqlite3",
        help="SQLite job-store path; identical submissions dedup against "
        "completed jobs already in this store (':memory:' for ephemeral)",
    )
    p.add_argument(
        "--cache-dir",
        help="persistent session-cache directory shared with CLI sweeps "
        "(default: in-memory per-process cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the session cache entirely",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pin every job to this many worker processes "
        "(default: honor each submission's own 'workers' field)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "worker",
        help="serve a sweep shard queue (claim + execute pending shards)",
    )
    p.add_argument(
        "target",
        help="the coordinator's shard queue: its --transport path, or an "
        "http://host:port/queues/<name> target from --transport (join a "
        "sweep over the network — late joiners steal work immediately)",
    )
    p.add_argument(
        "--cache-dir",
        help="persistent session-cache directory (share the coordinator's)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run each claimed shard through this many parallel processes "
        "(0 = one per CPU; the heartbeat ticks per completed session)",
    )
    p.add_argument("--id", help="worker id (default: <hostname>-<pid>)")
    p.add_argument(
        "--poll-s",
        type=float,
        default=0.2,
        help="queue poll interval in seconds",
    )
    p.add_argument(
        "--idle-timeout-s",
        type=float,
        default=None,
        help="exit after the queue has stayed empty this long "
        "(default: run until the coordinator writes STOP)",
    )
    p.set_defaults(func=_cmd_worker)

    return parser


def _batch_options_parser() -> argparse.ArgumentParser:
    """The one shared option block every experiment subcommand inherits."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the print sessions (0 = one per CPU)",
    )
    parent.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-keyed session cache",
    )
    parent.add_argument(
        "--cache-dir",
        help="persistent on-disk session-cache directory "
        "(overrides --no-cache; REPRO_CACHE_DIR sets the default cache's dir)",
    )
    parent.add_argument(
        "--out",
        help="also write the rendered output to this file",
    )
    return parent


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
