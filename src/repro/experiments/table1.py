"""Table I: the Trojan suite evaluated on a real print.

Runs the golden print (T0, FPGA in bypass) and each of T1–T9, then scores
every Trojan's *physical effect* with plant/quality metrics — the simulated
counterpart of the paper's photographed parts. A Trojan "manifests" when its
designed effect is measurably present:

==== ==================================================================
T1   per-layer geometry displaced (centroid shift / bbox growth)
T2   flow ratio ≈ the configured reduction (0.5)
T3   over-extrusion from weakened retraction (flow ratio > 1.1)
T4   some layers shifted (max centroid deviation above threshold)
T5   layer gap opened (max z-spacing >= 1.5x nominal)
T6   firmware killed with a heating failure; no part produced
T7   hotend driven past its damage threshold despite the firmware kill
T8   driver-disabled pulses lost; geometry wrecked
T9   mean fan duty collapses vs the golden print
==== ==================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.trojans import make_trojan
from repro.experiments.batch import CacheOption, SessionSpec, SessionSummary
from repro.experiments.runner import SessionResult, run_print
from repro.experiments.scenario import (
    TABLE1_TROJAN_PARAMS,
    TROJAN_IDS,
    get_attack,
    run_sweep,
    trojan_scenarios,
)
from repro.experiments.workloads import sliced_program, table1_part
from repro.gcode.ast import GcodeProgram
from repro.physics.quality import PartQualityReport, compare_traces


@dataclass
class Table1Row:
    """One evaluated Trojan."""

    trojan_id: str
    category: str
    scenario: str
    effect: str
    observed: str
    manifested: bool

    def render(self) -> str:
        status = "EFFECT CONFIRMED" if self.manifested else "no effect"
        return (
            f"{self.trojan_id:<3} {self.category:<4} {self.scenario:<17} "
            f"{status:<17} {self.observed}"
        )


def _trojan_params(trojan_id: str) -> Dict:
    """Per-Trojan Table I parameters (canonical copy: the attack registry)."""
    return dict(TABLE1_TROJAN_PARAMS[trojan_id])


def _grace_s(trojan_id: str) -> float:
    """Post-finish grace for one Trojan (from its registered attack)."""
    return get_attack(trojan_id).grace_s


def table1_spec(
    trojan_id: Optional[str],
    program: GcodeProgram,
    seed: int = 42,
) -> SessionSpec:
    """The Table I session for one Trojan (None = golden T0) as a spec."""
    if trojan_id is None:
        return SessionSpec(program=program, label="T0", cacheable=True, fast_path=True)
    attack = get_attack(trojan_id)
    return SessionSpec(
        program=program,
        trojan_id=attack.trojan_id,
        trojan_params=attack.trojan_params,
        trojan_seed=seed,
        grace_s=attack.grace_s,
        label=trojan_id,
        fast_path=True,
    )


def run_trojan_session(
    trojan_id: Optional[str],
    program=None,
    seed: int = 42,
) -> SessionResult:
    """Run the Table I workload with one Trojan enabled (None = golden T0).

    Returns the live :class:`SessionResult`; the batched Table I pipeline
    itself (:func:`run_table1`) runs the ``table1`` grid through
    :func:`~repro.experiments.scenario.run_sweep`.
    """
    if program is None:
        program = sliced_program(table1_part())
    trojan = None
    grace = 1.0
    if trojan_id is not None:
        trojan = make_trojan(trojan_id, **_trojan_params(trojan_id))
        grace = _grace_s(trojan_id)
    return run_print(program, trojan=trojan, trojan_seed=seed, grace_s=grace)


def _score(
    trojan_id: str,
    golden: SessionSummary,
    result: SessionSummary,
    quality: PartQualityReport,
) -> Table1Row:
    stat = result.trojan_stats.get
    observed = ""
    manifested = False

    if trojan_id == "T1":
        manifested = quality.geometry_compromised and stat("shifts_injected", 0) > 0
        observed = (
            f"{stat('shifts_injected', 0)} shifts ({stat('steps_injected', 0)} extra steps); "
            f"max centroid dev {quality.max_centroid_shift_mm:.2f}mm, "
            f"bbox growth {quality.max_bbox_growth_mm:.2f}mm"
        )
    elif trojan_id == "T2":
        manifested = 0.4 <= quality.flow_ratio <= 0.6
        observed = (
            f"flow ratio {quality.flow_ratio:.2f} "
            f"({stat('pulses_masked', 0)} extruder pulses masked)"
        )
    elif trojan_id == "T3":
        manifested = quality.flow_ratio > 1.1 and stat("retraction_pulses_affected", 0) > 0
        observed = (
            f"flow ratio {quality.flow_ratio:.2f} (over-extrusion), "
            f"{stat('retraction_pulses_affected', 0)} retraction pulses dropped"
        )
    elif trojan_id == "T4":
        manifested = quality.max_centroid_shift_mm > 0.2 and stat("shifts_injected", 0) > 0
        observed = (
            f"{stat('shifts_injected', 0)}/{stat('layer_events_seen', 0)} layers shifted; "
            f"max centroid dev {quality.max_centroid_shift_mm:.2f}mm"
        )
    elif trojan_id == "T5":
        manifested = quality.delaminated
        observed = (
            f"max layer gap {quality.max_z_spacing_mm:.2f}mm "
            f"(nominal {quality.golden_z_spacing_mm:.2f}mm)"
        )
    elif trojan_id == "T6":
        heating_failed = result.killed and "Heating failed" in (result.kill_reason or "")
        manifested = heating_failed and quality.layer_count_suspect == 0
        observed = (
            f"firmware: {result.kill_reason or 'no kill'}; "
            f"{quality.layer_count_suspect} layers printed"
        )
    elif trojan_id == "T7":
        manifested = (
            result.killed
            and result.hotend_damaged
            and result.hotend_peak_c > 260.0
        )
        observed = (
            f"firmware: {result.kill_reason or 'no kill'}; hotend peaked "
            f"{result.hotend_peak_c:.0f}C "
            f"({'damage recorded' if result.hotend_damaged else 'no damage'})"
        )
    elif trojan_id == "T8":
        manifested = result.missed_steps > 0 and quality.geometry_compromised
        observed = (
            f"{result.missed_steps} pulses lost over {stat('outages', 0)} outages; "
            f"max centroid dev {quality.max_centroid_shift_mm:.2f}mm"
        )
    elif trojan_id == "T9":
        golden_fan = golden.mean_fan_duty
        suspect_fan = result.mean_fan_duty
        ratio = suspect_fan / golden_fan if golden_fan > 0 else 1.0
        manifested = stat("engagements", 0) > 0 and ratio < 0.6
        observed = (
            f"mean fan duty {suspect_fan:.2f} vs golden {golden_fan:.2f} "
            f"(ratio {ratio:.2f})"
        )

    return Table1Row(
        trojan_id=trojan_id,
        category=result.trojan_category or "?",
        scenario=result.trojan_scenario or "",
        effect=result.trojan_effect or "",
        observed=observed,
        manifested=manifested,
    )


def run_table1(
    seed: int = 42,
    workers: Optional[int] = 1,
    cache: CacheOption = None,
) -> List[Table1Row]:
    """Run the full Table I evaluation; returns one row per Trojan.

    Thin grid over the scenario layer: the nine ``table1``-grid scenarios
    compile to the same ten sessions as ever (the shared golden print
    deduplicates within the batch) and ``workers>1`` fans them across
    processes. They run unscored (no detectors): the rows below score
    the summaries, so any failed session raises.
    """
    scenarios = [
        replace(scenario, detectors=())
        for scenario in trojan_scenarios(parts=("table1",), seed=seed)
    ]
    runs = run_sweep(scenarios, workers=workers, cache=cache).raise_on_failure().outcomes
    golden = runs[0].golden
    golden_quality = compare_traces(golden.trace, golden.trace)

    rows: List[Table1Row] = [
        Table1Row(
            trojan_id="T0",
            category="None",
            scenario="None",
            effect="Golden print",
            observed=(
                f"completed in {golden.duration_s:.0f}s; "
                f"{golden_quality.layer_count_golden} layers, "
                f"flow ratio {golden_quality.flow_ratio:.2f}, no anomalies"
            ),
            manifested=golden.completed and golden_quality.nominal,
        )
    ]
    for scenario_run in runs:
        quality = compare_traces(golden.trace, scenario_run.suspect.trace)
        rows.append(
            _score(scenario_run.scenario.attack, golden, scenario_run.suspect, quality)
        )
    return rows


def render_table1(rows: List[Table1Row]) -> str:
    header = f"{'ID':<3} {'Type':<4} {'Scenario':<17} {'Outcome':<17} Observed"
    return "\n".join([header, "-" * len(header)] + [row.render() for row in rows])
