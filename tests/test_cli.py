"""CLI tests: the slice → attack → print → detect workflow end to end."""

import argparse
import os

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def gcode_path(workdir):
    path = os.path.join(workdir, "part.gcode")
    assert main(["slice", "--shape", "box", "--width", "10", "--depth", "10",
                 "--height", "0.9", "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def golden_csv(workdir, gcode_path):
    path = os.path.join(workdir, "golden.csv")
    assert main(["print", gcode_path, "--seed", "1", "--capture", path]) == 0
    return path


class TestSlice:
    def test_creates_parseable_gcode(self, gcode_path):
        from repro.gcode.parser import parse_file

        program = parse_file(gcode_path)
        assert program.count("G28") == 1
        assert program.count("G1") > 10

    def test_cylinder_shape(self, workdir):
        path = os.path.join(workdir, "cyl.gcode")
        assert main(["slice", "--shape", "cylinder", "--width", "12",
                     "--height", "0.6", "--out", path]) == 0
        assert os.path.exists(path)


class TestPrintAndDetect:
    def test_print_writes_capture(self, golden_csv):
        from repro.core.capture import load_capture_csv

        capture = load_capture_csv(golden_csv)
        assert len(capture) > 10

    def test_detect_clean_exits_zero(self, workdir, gcode_path, golden_csv):
        control = os.path.join(workdir, "control.csv")
        assert main(["print", gcode_path, "--seed", "2", "--capture", control]) == 0
        assert main(["detect", golden_csv, control]) == 0

    def test_attack_then_detect_exits_one(self, workdir, gcode_path, golden_csv, capsys):
        bad_gcode = os.path.join(workdir, "bad.gcode")
        bad_csv = os.path.join(workdir, "bad.csv")
        assert main(["attack", gcode_path, "--reduction", "0.5", "--out", bad_gcode]) == 0
        assert main(["print", bad_gcode, "--seed", "3", "--capture", bad_csv]) == 0
        assert main(["detect", golden_csv, bad_csv]) == 1
        assert "Trojan likely!" in capsys.readouterr().out

    def test_relocation_attack(self, workdir, gcode_path):
        out = os.path.join(workdir, "rel.gcode")
        assert main(["attack", gcode_path, "--relocation", "10", "--out", out]) == 0
        from repro.gcode.parser import parse_file

        program = parse_file(out)
        assert any(cmd.comment == "relocated filament" for cmd in program)

    def test_void_attack(self, workdir, gcode_path):
        out = os.path.join(workdir, "void.gcode")
        assert main(["attack", gcode_path, "--void", "95", "95", "0", "105",
                     "105", "1", "--out", out]) == 0
        from repro.gcode.parser import parse_file

        original = parse_file(gcode_path)
        voided = parse_file(out)
        assert voided.total_extrusion_mm() < original.total_extrusion_mm()


class TestSweep:
    def test_list_prints_grid_without_running(self, capsys):
        assert main(["sweep", "--grid", "full", "--list"]) == 0
        out = capsys.readouterr().out
        assert "T1@table1" in out
        assert "dr0wned" in out

    def test_list_respects_out_flag(self, workdir, capsys):
        path = os.path.join(workdir, "sweep-list.txt")
        assert main(["sweep", "--grid", "smoke", "--list", "--out", path]) == 0
        with open(path, encoding="utf-8") as handle:
            assert "flaw3d-reduction-0.5@tiny" in handle.read()

    def test_unknown_grid_is_error(self, capsys):
        assert main(["sweep", "--grid", "no-such-grid"]) == 2
        assert "unknown grid" in capsys.readouterr().err

    @pytest.mark.slow
    def test_smoke_sweep_end_to_end_with_persistent_cache(
        self, workdir, capsys
    ):
        cache_dir = os.path.join(workdir, "session-cache")
        csv_path = os.path.join(workdir, "sweep.csv")
        html_path = os.path.join(workdir, "sweep.html")
        assert main(
            ["sweep", "--grid", "smoke", "--cache-dir", cache_dir,
             "--csv", csv_path, "--html", html_path]
        ) == 0
        first = capsys.readouterr().out
        assert "2/2 attacks detected" in first
        assert "0 false positives" in first
        assert os.listdir(cache_dir)  # sessions persisted
        with open(csv_path, encoding="utf-8") as handle:
            assert handle.readline().startswith("scenario,part,attack")
        with open(html_path, encoding="utf-8") as handle:
            assert "<!DOCTYPE html>" in handle.readline()

        # Second invocation: every session is served from disk — the sweep
        # is incremental (suspects included, not just golden prints).
        assert main(["sweep", "--grid", "smoke", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "0 misses" in second
        assert "0/5 unique sessions simulated" in second


def _subcommand_options(name):
    """The option strings ``repro <name>`` accepts."""
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {opt for action in sub.choices[name]._actions for opt in action.option_strings}


class TestExperimentOptions:
    def test_shared_option_block_present_on_every_experiment(self):
        for name in ("table1", "table2", "figure4", "overhead", "drift",
                     "ablation", "sweep"):
            opts = _subcommand_options(name)
            assert {"--workers", "--no-cache", "--cache-dir", "--out"} <= opts

    def test_sweep_report_options_present(self):
        # The exact set: --transport is the one shard-queue option.
        assert _subcommand_options("sweep") == {
            "-h", "--help", "--workers", "--no-cache", "--cache-dir", "--out",
            "--grid", "--list", "--csv", "--html", "--hosts", "--transport",
            "--precise",
        }

    def test_serve_has_one_frontend(self):
        # The exact set: no frontend selector beside the WSGI server.
        assert _subcommand_options("serve") == {
            "-h", "--help", "--host", "--port", "--db", "--cache-dir",
            "--no-cache", "--workers",
        }

    def test_worker_command_present_with_distribution_options(self):
        opts = _subcommand_options("worker")
        assert {"--cache-dir", "--id", "--poll-s", "--idle-timeout-s"} <= opts

    def test_worker_on_stopped_dir_exits_cleanly(self, workdir, capsys):
        from repro.experiments.transport import WorkDir

        root = os.path.join(workdir, "stopped-workdir")
        WorkDir(root).stop()
        assert main(["worker", root, "--id", "w1"]) == 0
        assert "0 shard(s) executed" in capsys.readouterr().out


class TestParser:
    def test_missing_command_is_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_is_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
