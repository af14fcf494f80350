"""Wire schemas: what crosses the HTTP boundary, validated.

The service's request/response shapes are plain JSON; this module is the
single place they are parsed and validated (:func:`parse_submission`), so
a submission means exactly the same thing to the WSGI app, the job
manager and the tests.

A submission names either a **registered grid** (``{"grid": "smoke"}``)
or an **ad-hoc scenario list**::

    {"scenarios": [{"name": "T2@tiny", "part": "tiny", "attack": "T2",
                    "detectors": ["golden", "quality"], "seed": 42,
                    "noise_sigma": 0.0}]}

plus execution knobs (``workers``, ``precise``, ``label``). Scenario
fields mirror :class:`~repro.experiments.scenario.ScenarioSpec`; parts,
attacks, and detectors are validated against their registries at parse
time so an invalid submission is a 400, not a failed job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from repro.detection.protocol import DETECTOR_CLASSES
from repro.errors import ReproError
from repro.experiments.scenario import (
    ScenarioSpec,
    get_attack,
    get_part,
    grid_names,
    grid_scenarios,
)


class SchemaError(ReproError):
    """An invalid request body — maps to HTTP 400."""


_SCENARIO_FIELDS = {
    "name": str,
    "part": str,
    "attack": (str, type(None)),
    "detectors": (list, tuple),
    "seed": int,
    "golden_seed": int,
    "noise_sigma": (int, float),
    "uart_period_ms": int,
    "margin": (int, float),
}


@dataclass(frozen=True)
class Submission:
    """One validated sweep submission (grid or ad-hoc scenarios)."""

    scenarios: Tuple[ScenarioSpec, ...]
    grid: str = ""
    label: str = ""
    workers: int = 1
    fast_path: bool = True
    payload: Mapping[str, Any] = field(default_factory=dict)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _parse_scenario(entry: Any, index: int) -> ScenarioSpec:
    _require(
        isinstance(entry, Mapping),
        f"scenarios[{index}] must be an object, got {type(entry).__name__}",
    )
    unknown = sorted(set(entry) - set(_SCENARIO_FIELDS))
    _require(not unknown, f"scenarios[{index}] has unknown fields: {unknown}")
    _require("name" in entry, f"scenarios[{index}] needs a 'name'")
    kwargs: dict = {}
    for key, expected in _SCENARIO_FIELDS.items():
        if key not in entry:
            continue
        value = entry[key]
        _require(
            isinstance(value, expected) and not isinstance(value, bool),
            f"scenarios[{index}].{key} has the wrong type "
            f"({type(value).__name__})",
        )
        kwargs[key] = value
    if "detectors" in kwargs:
        detectors = tuple(kwargs["detectors"])
        _require(
            all(isinstance(d, str) for d in detectors) and detectors,
            f"scenarios[{index}].detectors must be a non-empty list of names",
        )
        bad = sorted(set(detectors) - set(DETECTOR_CLASSES))
        _require(
            not bad,
            f"scenarios[{index}] names unknown detectors {bad}; "
            f"registered: {sorted(DETECTOR_CLASSES)}",
        )
        kwargs["detectors"] = detectors
    spec = ScenarioSpec(**kwargs)
    # Registry validation up front: a bad part/attack name is a submission
    # error, not a FAILED job discovered minutes later.
    try:
        get_part(spec.part)
        if spec.attack is not None:
            get_attack(spec.attack)
    except ReproError as exc:
        raise SchemaError(f"scenarios[{index}]: {exc}") from None
    return spec


def parse_submission(payload: Any) -> Submission:
    """Validate a POST /jobs body into a :class:`Submission` (or raise 400)."""
    _require(
        isinstance(payload, Mapping),
        f"submission must be a JSON object, got {type(payload).__name__}",
    )
    unknown = sorted(
        set(payload) - {"grid", "scenarios", "workers", "precise", "label"}
    )
    _require(not unknown, f"submission has unknown fields: {unknown}")
    grid = payload.get("grid")
    adhoc = payload.get("scenarios")
    _require(
        (grid is None) != (adhoc is None),
        "submission needs exactly one of 'grid' or 'scenarios'",
    )
    workers = payload.get("workers", 1)
    _require(
        isinstance(workers, int) and not isinstance(workers, bool) and workers >= 0,
        "'workers' must be an integer >= 0",
    )
    precise = payload.get("precise", False)
    _require(isinstance(precise, bool), "'precise' must be a boolean")
    label = payload.get("label", "")
    _require(isinstance(label, str), "'label' must be a string")

    if grid is not None:
        _require(isinstance(grid, str), "'grid' must be a string")
        try:
            scenarios = tuple(grid_scenarios(grid))
        except ReproError:
            raise SchemaError(
                f"unknown grid {grid!r}; registered: {grid_names()}"
            ) from None
    else:
        _require(
            isinstance(adhoc, (list, tuple)) and adhoc,
            "'scenarios' must be a non-empty list",
        )
        scenarios = tuple(
            _parse_scenario(entry, index) for index, entry in enumerate(adhoc)
        )
        names = [spec.name for spec in scenarios]
        _require(
            len(names) == len(set(names)),
            "scenario names must be unique within a submission",
        )
    return Submission(
        scenarios=scenarios,
        grid=grid or "",
        label=label,
        workers=workers,
        fast_path=not precise,
        payload=dict(payload),
    )


def job_json(job: Mapping[str, Any]) -> dict:
    """A stored job row shaped for the wire (stable field order)."""
    return {
        "id": job["id"],
        "state": job["state"],
        "grid": job["grid"],
        "label": job["label"],
        "submission_key": job["submission_key"],
        "scenarios": job["scenarios"],
        "sessions_total": job["sessions_total"],
        "sessions_done": job["sessions_done"],
        "ok": job["ok"],
        "error": job["error"],
        "deduped_from": job["deduped_from"],
        "stats": job["stats"],
        "created_at": job["created_at"],
        "started_at": job["started_at"],
        "finished_at": job["finished_at"],
    }


def queue_status_json(status: Mapping[str, Any]) -> dict:
    """A shard queue's status snapshot shaped for the wire (stable order).

    What ``GET /queues/{q}`` serves and what the HTTP transport's
    coordinator-side polls parse — registered in the WIRE003 shard-queue
    protocol table, so reshaping it demands a service schema bump.
    """
    return {
        "queue": status["queue"],
        "stop": status["stop"],
        "pending": status["pending"],
        "claims": status["claims"],
        "done": status["done"],
    }


def grid_listing() -> list:
    """The registered grids as JSON (name, description, scenario count)."""
    from repro.experiments.scenario import GRIDS

    listing = []
    for name in grid_names():
        grid = GRIDS[name]
        try:
            count: Optional[int] = len(grid.build())
        except ReproError:  # pragma: no cover - registry in a broken state
            count = None
        listing.append(
            {"name": name, "description": grid.description, "scenarios": count}
        )
    return listing
