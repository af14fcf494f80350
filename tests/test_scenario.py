"""Scenario-registry and sweep-engine tests.

The scenario layer must compile to *exactly* the session specs the legacy
experiments hand-built (content-key equality is asserted, so cached golden
prints are shared between the old entry points and new sweeps), expand
named grids, score through the Detector protocol, and hit the persistent
golden cache on repeat sweeps.
"""

import pytest

from repro.detection.protocol import make_detector
from repro.errors import DetectionError, ReproError
from repro.experiments.batch import GoldenPrintCache, SessionSpec
from repro.experiments.scenario import (
    ATTACKS,
    CONTROL_SEED,
    GOLDEN_SEED,
    GRIDS,
    TROJAN_IDS,
    ScenarioSpec,
    clean_scenarios,
    compile_scenario,
    compile_sweep,
    flaw3d_scenarios,
    get_attack,
    get_part,
    grid_names,
    grid_scenarios,
    part_names,
    part_program,
    register_program_part,
    run_sweep,
)


class TestRegistries:
    def test_all_slicer_parts_registered(self):
        assert {"tiny", "standard", "table1", "dense"} <= set(part_names())

    def test_all_trojans_registered(self):
        assert TROJAN_IDS == tuple(f"T{i}" for i in range(1, 10))
        for trojan_id in TROJAN_IDS:
            attack = get_attack(trojan_id)
            assert attack.kind == "fpga"
            assert attack.trojan_id == trojan_id

    def test_flaw3d_and_dr0wned_attacks_registered(self):
        assert "flaw3d-reduction-0.98" in ATTACKS
        assert "flaw3d-relocation-100" in ATTACKS
        assert "dr0wned-void" in ATTACKS
        assert get_attack("dr0wned-void").kind == "gcode"

    def test_unknown_names_raise(self):
        with pytest.raises(ReproError):
            get_part("no-such-part")
        with pytest.raises(ReproError):
            get_attack("no-such-attack")
        with pytest.raises(ReproError):
            grid_scenarios("no-such-grid")

    def test_part_program_is_cached(self):
        assert part_program("tiny") is part_program("tiny")

    def test_register_program_part_is_content_keyed(self, tiny_program):
        name1 = register_program_part(tiny_program)
        name2 = register_program_part(tiny_program)
        assert name1 == name2
        assert part_program(name1) is tiny_program
        assert get_part(name1).shape is None

    def test_adhoc_part_names_are_stable(self):
        # The name is cut from the program hash; a change to that hash
        # would orphan every cached session of an ad-hoc part.
        assert register_program_part(part_program("tiny")) == "custom-006a5b3a5602"

    def test_adhoc_parts_stay_out_of_grid_enumeration(self, tiny_program):
        # A caller-supplied workload (run_table2(program=...)) must never
        # silently inflate the default grids.
        name = register_program_part(tiny_program)
        assert name not in part_names()
        assert all(
            sc.part != name for sc in grid_scenarios("full")
        )

    def test_register_program_part_rejects_conflicting_reuse(
        self, tiny_program, standard_program
    ):
        name = register_program_part(tiny_program, name="conflict-test")
        assert register_program_part(tiny_program, name="conflict-test") == name
        with pytest.raises(ReproError):
            register_program_part(standard_program, name="conflict-test")
        with pytest.raises(ReproError):
            register_program_part(standard_program, name="tiny")  # built-in clash


class TestGrids:
    def test_expected_grids_registered(self):
        assert {"clean", "table1", "trojans", "flaw3d", "dr0wned", "full"} <= set(
            grid_names()
        )
        for name in grid_names():
            assert GRIDS[name].description

    def test_full_grid_crosses_every_trojan_with_every_part(self):
        scenarios = grid_scenarios("full")
        names = {sc.name for sc in scenarios}
        assert len(names) == len(scenarios)  # unique scenario names
        for part in part_names():
            for trojan_id in TROJAN_IDS:
                assert f"{trojan_id}@{part}" in names
        assert sum(1 for sc in scenarios if sc.attack is None) == len(part_names())
        assert any(sc.attack == "dr0wned-void" for sc in scenarios)
        assert sum(1 for sc in scenarios if (sc.attack or "").startswith("flaw3d")) >= 8

    def test_flaw3d_grid_uses_table2_seeds(self):
        scenarios = flaw3d_scenarios()
        assert [sc.seed for sc in scenarios] == [2000 + case for case in range(1, 9)]
        assert all(sc.part == "dense" for sc in scenarios)


class TestCompilation:
    def test_clean_scenario_compiles_to_cacheable_pair(self):
        golden, suspect = compile_scenario(clean_scenarios(parts=("tiny",))[0])
        assert golden.cacheable and suspect.cacheable
        assert golden.noise_seed == GOLDEN_SEED
        assert suspect.noise_seed == CONTROL_SEED
        assert golden.program is suspect.program

    def test_trojan_scenario_matches_legacy_table1_spec(self):
        # table1_spec builds the Table I sessions by hand; content-key
        # equality shows the scenario compiler yields the same sessions.
        from repro.experiments.table1 import table1_spec

        program = part_program("table1")
        for trojan_id in TROJAN_IDS:
            scenario = ScenarioSpec(
                name=f"{trojan_id}@table1",
                part="table1",
                attack=trojan_id,
                seed=42,
                noise_sigma=0.0,
            )
            golden, suspect = compile_scenario(scenario)
            assert suspect.content_key() == table1_spec(trojan_id, program).content_key()
            assert golden.content_key() == table1_spec(None, program).content_key()

    def test_flaw3d_scenario_matches_legacy_table2_spec(self):
        program = part_program("dense")
        scenario = flaw3d_scenarios()[0]  # case 1: reduction 0.5
        golden, suspect = compile_scenario(scenario)
        from repro.gcode.transforms.flaw3d import Flaw3dReduction

        legacy_golden = SessionSpec(
            program=program, noise_sigma=0.0005, noise_seed=GOLDEN_SEED,
            uart_period_ms=100, cacheable=True, fast_path=True,
        )
        legacy_suspect = SessionSpec(
            program=Flaw3dReduction(0.5).apply(program),
            noise_sigma=0.0005, noise_seed=2001, uart_period_ms=100, fast_path=True,
        )
        assert golden.content_key() == legacy_golden.content_key()
        assert suspect.content_key() == legacy_suspect.content_key()

    def test_noise_free_scenarios_share_goldens_regardless_of_seeds(self):
        a = ScenarioSpec(name="a", part="tiny", attack="T2", seed=1, noise_sigma=0.0)
        b = ScenarioSpec(
            name="b", part="tiny", attack="T5", seed=2, golden_seed=77, noise_sigma=0.0
        )
        assert compile_scenario(a)[0].content_key() == compile_scenario(b)[0].content_key()

    def test_dr0wned_void_removes_extrusion(self):
        program = part_program("tiny")
        golden, suspect = compile_scenario(
            ScenarioSpec(name="v", part="tiny", attack="dr0wned-void")
        )
        assert suspect.program.total_extrusion_mm() < program.total_extrusion_mm()

    def test_dr0wned_needs_a_shape(self, tiny_program):
        name = register_program_part(tiny_program)
        with pytest.raises(ReproError):
            compile_scenario(ScenarioSpec(name="v", part=name, attack="dr0wned-void"))


class TestDetectorProtocol:
    def test_registry_contents(self):
        from repro.detection.protocol import DETECTOR_CLASSES

        assert {"golden", "realtime", "sidechannel", "quality"} <= set(DETECTOR_CLASSES)
        with pytest.raises(DetectionError):
            make_detector("no-such-detector")

    def test_score_before_fit_raises(self):
        from types import SimpleNamespace

        suspect = SimpleNamespace(transactions=[object()], capture=None)
        with pytest.raises(DetectionError):
            make_detector("golden").score(suspect)

    def test_empty_suspect_capture_is_trojan_evidence(self):
        # A T6-style kill before homing never arms the exporter: zero
        # transactions must read as detection, not a comparison error.
        from types import SimpleNamespace

        from repro.core.capture import Transaction

        golden = SimpleNamespace(
            capture=None, transactions=[Transaction(1, 100, 100, 10, 50)]
        )
        suspect = SimpleNamespace(transactions=[])
        for name in ("golden", "sidechannel", "realtime"):
            verdict = make_detector(name).fit(golden).score(suspect)
            assert verdict.trojan_likely
            assert "no transactions" in verdict.detail
        # The golden verdict still carries a renderable DetectionReport
        # (experiments dereference .report unconditionally).
        report = make_detector("golden").fit(golden).score(suspect).report
        assert report.trojan_likely and report.final_check_failed
        assert "Trojan likely!" in report.render()


class TestFittedDetectors:
    """One fitted detector per golden scores a whole golden group."""

    @pytest.fixture(scope="class")
    def golden_and_suspects(self, tiny_golden_noisy, tiny_control_noisy):
        import dataclasses

        from repro.core.capture import Transaction
        from repro.experiments.batch import summarize_result

        golden = summarize_result(tiny_golden_noisy, spec_key="golden-key")
        control = summarize_result(tiny_control_noisy, spec_key="control-key")
        txns = control.transactions
        last = txns[-1]
        overrun = [
            Transaction(last.index + k, last.x + 300 * k, last.y, last.z, last.e + 90 * k)
            for k in range(1, 25)
        ]
        suspects = [
            control,
            dataclasses.replace(control, transactions=txns[: len(txns) // 3]),
            dataclasses.replace(control, transactions=txns + overrun),
            dataclasses.replace(control, transactions=txns[:2]),
        ]
        assert len({len(s.transactions) for s in suspects}) == len(suspects)
        return golden, suspects

    @staticmethod
    def _same(verdict, fresh):
        assert verdict.without_report() == fresh.without_report()
        assert repr(verdict.score) == repr(fresh.score)
        if verdict.detector in ("golden", "sidechannel"):
            assert verdict.report == fresh.report

    @pytest.mark.parametrize("name", ["golden", "realtime", "sidechannel", "quality"])
    @pytest.mark.parametrize("order", ["as_listed", "longest_first", "shortest_first"])
    def test_one_fit_scores_like_fresh_fits(self, golden_and_suspects, name, order):
        golden, suspects = golden_and_suspects
        if order != "as_listed":
            suspects = sorted(
                suspects,
                key=lambda s: len(s.transactions),
                reverse=order == "longest_first",
            )
        fitted = make_detector(name).fit(golden)
        for suspect in suspects:
            fresh = make_detector(name).fit(golden).score(suspect)
            self._same(fitted.score(suspect), fresh)
        # Refitted on another golden, it forgets the first one.
        refit_golden, suspect = suspects[0], suspects[1]
        fresh = make_detector(name).fit(refit_golden).score(suspect)
        self._same(fitted.fit(refit_golden).score(suspect), fresh)

    def test_pass_table_fits_each_golden_once(self, golden_and_suspects):
        from repro.detection.protocol import ScoreSpec

        golden, suspects = golden_and_suspects
        names = ("golden", "realtime", "sidechannel", "quality")
        specs = (ScoreSpec.for_detectors(names), ScoreSpec.for_detectors(names, margin=0.0))
        fitted = {}
        for suspect in suspects:
            for spec in specs:
                shared = spec.score_pair(golden.relabeled("another label"), suspect, fitted)
                fresh = spec.score_pair(golden, suspect)
                assert shared.keys() == fresh.keys()
                for name in shared:
                    self._same(shared[name], fresh[name])
        # One fit per (golden, detector, params): the margin is a param of
        # golden and realtime only.
        assert sorted(key[:2] for key in fitted) == [
            ("golden-key", name)
            for name in ("golden", "golden", "quality", "realtime", "realtime", "sidechannel")
        ]

    def test_shared_failed_golden_is_not_scored_for_every_job(
        self, golden_and_suspects
    ):
        from repro.detection.protocol import ScoreSpec
        from repro.experiments.batch import SessionSpec, failure_summary

        _, suspects = golden_and_suspects
        failed = failure_summary(
            SessionSpec(program=part_program("tiny")), RuntimeError("boom")
        )
        spec = ScoreSpec.for_detectors(("golden", "sidechannel"))
        fitted = {}
        for suspect in suspects[:2]:
            verdicts = spec.score_pair(failed, suspect, fitted)
            assert set(verdicts) == {"golden", "sidechannel"}
            for verdict in verdicts.values():
                assert not verdict.trojan_likely
                assert verdict.detail == "not scored: golden session failed (RuntimeError: boom)"
        assert fitted == {}


@pytest.mark.slow
class TestSweepEngine:
    @pytest.fixture(scope="class")
    def small_grid(self):
        return [
            ScenarioSpec(
                name="clean@tiny",
                part="tiny",
                attack=None,
                detectors=("golden", "realtime"),
                seed=CONTROL_SEED,
            ),
            ScenarioSpec(
                name="reduce0.5@tiny",
                part="tiny",
                attack="flaw3d-reduction-0.5",
                detectors=("golden", "realtime", "sidechannel"),
                seed=2001,
            ),
            ScenarioSpec(
                name="T2@tiny",
                part="tiny",
                attack="T2",
                detectors=("golden", "quality"),
                seed=42,
                noise_sigma=0.0,
            ),
        ]

    @pytest.fixture(scope="class")
    def sweep(self, small_grid):
        return run_sweep(small_grid, cache=GoldenPrintCache())

    def test_attacks_detected_and_no_false_positives(self, sweep):
        assert sweep.ok
        assert sweep.attacks_detected == 2
        assert sweep.false_positives == 0
        by_name = {o.scenario.name: o for o in sweep.outcomes}
        assert not by_name["clean@tiny"].detected
        assert by_name["reduce0.5@tiny"].verdicts["golden"].trojan_likely
        assert by_name["reduce0.5@tiny"].verdicts["realtime"].trojan_likely
        # The gross 50% reduction is exactly what a lossy side-channel can see.
        assert by_name["reduce0.5@tiny"].verdicts["sidechannel"].trojan_likely
        assert by_name["T2@tiny"].verdicts["quality"].trojan_likely

    def test_realtime_alarm_fires_mid_print(self, sweep):
        verdict = {o.scenario.name: o for o in sweep.outcomes}[
            "reduce0.5@tiny"
        ].verdicts["realtime"]
        assert verdict.trojan_likely
        assert 0.0 < verdict.score < 100.0  # alarm before the print finished

    def test_render_mentions_every_scenario_and_summary(self, sweep, small_grid):
        text = sweep.render()
        for scenario in small_grid:
            assert scenario.name in text
        assert "2/2 attacks detected" in text
        assert "0 false positives" in text

    def test_raise_on_failure_is_strict_about_failed_sessions(self):
        # Table I and the ablation score summaries directly; a FAILED stub
        # with an empty capture would masquerade as a TROJAN verdict, so
        # their unscored sweeps raise instead of returning the row.
        from repro.experiments.scenario import AttackDef, register_attack

        snapshot = dict(ATTACKS)
        try:
            register_attack(
                AttackDef(
                    name="broken-for-strict",
                    kind="fpga",
                    trojan_id="T999",
                )
            )
            sweep = run_sweep(
                [
                    ScenarioSpec(
                        name="broken@tiny",
                        part="tiny",
                        attack="broken-for-strict",
                        detectors=(),
                        noise_sigma=0.0,
                    )
                ]
            )
            assert sweep.outcomes[0].failed and sweep.outcomes[0].verdicts == {}
            with pytest.raises(ReproError, match="T999"):
                sweep.raise_on_failure()
        finally:
            ATTACKS.clear()
            ATTACKS.update(snapshot)

    def test_runs_a_compiled_plan(self, small_grid, sweep):
        plan = compile_sweep(small_grid)
        again = run_sweep(plan, cache=GoldenPrintCache())
        def rows(result):
            return [
                {name: v.as_dict() for name, v in o.verdicts.items()}
                for o in result.outcomes
            ]

        assert rows(again) == rows(sweep)
        assert again.sessions_total == plan.sessions_total == sweep.sessions_total
        with pytest.raises(ReproError, match="fast_path=False"):
            run_sweep(plan, fast_path=False)

    def test_second_sweep_with_same_cache_dir_resimulates_zero_goldens(
        self, small_grid, tmp_path_factory
    ):
        # The acceptance property: across *fresh* cache instances over the
        # same --cache-dir, every cacheable print (goldens + the clean
        # suspect) is served from disk on the second invocation.
        cache_dir = str(tmp_path_factory.mktemp("golden-cache"))
        first = run_sweep(small_grid, cache=GoldenPrintCache(directory=cache_dir))
        assert first.cache_misses > 0

        second_cache = GoldenPrintCache(directory=cache_dir)
        second = run_sweep(small_grid, cache=second_cache)
        assert second.cache_misses == 0
        assert second.cache_hits == first.cache_misses
        assert second_cache.disk_hits == first.cache_misses
        assert second.ok == first.ok
        # And the cached sessions are value-identical to the simulated ones.
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.golden.transactions == b.golden.transactions
            assert a.golden.final_counts == b.golden.final_counts
