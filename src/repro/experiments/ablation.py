"""Ablation: UART transaction period vs detection margin.

The paper notes its 5 % margin "can be made significantly smaller with a
faster communication protocol, as fewer steps possible per transaction would
lower the potential drift in counts". This sweep quantifies that design
space on the stealthiest Table II Trojans: for each UART period we measure
the worst clean-print drift (which lower-bounds a safe margin) and whether
the stealthy Trojans produce *transient* mismatches at that margin — i.e.
detection without relying on the end-of-print check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.detection.protocol import GoldenComparisonDetector
from repro.experiments.batch import CacheOption
from repro.experiments.scenario import (
    ScenarioSpec,
    flaw3d_reduction_attack,
    flaw3d_relocation_attack,
    register_program_part,
    run_sweep,
)
from repro.gcode.ast import GcodeProgram

DEFAULT_PERIODS_MS = (400, 200, 100, 50, 25)
DEFAULT_MARGINS = (0.01, 0.02, 0.05, 0.10)

ABLATION_GOLDEN_SEED = 9001
ABLATION_CONTROL_SEED = 9002


@dataclass
class AblationCell:
    """One (period, margin) operating point."""

    period_ms: int
    margin: float
    false_positive: bool
    clean_max_drift_percent: float
    transient_detections: Dict[str, bool] = field(default_factory=dict)

    def render(self) -> str:
        detections = ", ".join(
            f"{name}={'yes' if hit else 'no'}"
            for name, hit in sorted(self.transient_detections.items())
        )
        return (
            f"period={self.period_ms:>4}ms margin={self.margin * 100:>4.0f}% "
            f"fp={'YES' if self.false_positive else 'no '} "
            f"drift={self.clean_max_drift_percent:5.2f}% transient: {detections}"
        )


@dataclass
class AblationResult:
    cells: List[AblationCell]

    def render(self) -> str:
        return "\n".join(cell.render() for cell in self.cells)

    def usable_margins(self, period_ms: int) -> List[float]:
        """Margins with no false positives at the given period."""
        return sorted(
            cell.margin
            for cell in self.cells
            if cell.period_ms == period_ms and not cell.false_positive
        )


def run_ablation(
    program: Optional[GcodeProgram] = None,
    periods_ms: Sequence[int] = DEFAULT_PERIODS_MS,
    margins: Sequence[float] = DEFAULT_MARGINS,
    noise_sigma: float = 0.0005,
    workers: Optional[int] = 1,
    cache: CacheOption = None,
) -> AblationResult:
    """Sweep UART periods and margins on the stealthiest Trojans.

    Thin grid over the scenario layer: every (period × {control, suspects})
    scenario compiles up front and the whole grid runs as one flat,
    unscored batch (any failed session raises). Margins are a pure scoring
    axis — each margin re-scores the same summaries through a fresh
    ``golden`` Detector with the end-of-print check disabled.
    """
    part = "tiny" if program is None else register_program_part(program)
    stealthy = [
        ("reduce0.98", flaw3d_reduction_attack(0.98)),
        ("relocate100", flaw3d_relocation_attack(100)),
    ]

    scenarios: List[ScenarioSpec] = []
    for period_ms in periods_ms:
        scenarios.append(
            ScenarioSpec(
                name=f"control@{period_ms}ms",
                part=part,
                attack=None,
                detectors=(),
                seed=ABLATION_CONTROL_SEED,
                golden_seed=ABLATION_GOLDEN_SEED,
                noise_sigma=noise_sigma,
                uart_period_ms=period_ms,
            )
        )
        for i, (name, attack) in enumerate(stealthy):
            scenarios.append(
                ScenarioSpec(
                    name=f"{name}@{period_ms}ms",
                    part=part,
                    attack=attack,
                    detectors=(),
                    seed=9100 + i,
                    golden_seed=ABLATION_GOLDEN_SEED,
                    noise_sigma=noise_sigma,
                    uart_period_ms=period_ms,
                )
            )
    runs = run_sweep(scenarios, workers=workers, cache=cache).raise_on_failure().outcomes
    per_period = len(stealthy) + 1

    cells: List[AblationCell] = []
    for slot, period_ms in enumerate(periods_ms):
        block = runs[slot * per_period : (slot + 1) * per_period]
        golden, control = block[0].golden, block[0].suspect
        suspects = {name: block[1 + i].suspect for i, (name, _) in enumerate(stealthy)}
        for margin in margins:
            # The transient-only question: disable the final 0% check so the
            # cell isolates what the margin itself can see.
            detector = GoldenComparisonDetector(
                margin=margin, final_check=False
            ).fit(golden)
            control_report = detector.score(control).report
            detections = {
                name: detector.score(suspect).trojan_likely
                for name, suspect in suspects.items()
            }
            cells.append(
                AblationCell(
                    period_ms=period_ms,
                    margin=margin,
                    false_positive=control_report.trojan_likely,
                    clean_max_drift_percent=control_report.largest_percent_diff,
                    transient_detections=detections,
                )
            )
    return AblationResult(cells=cells)
