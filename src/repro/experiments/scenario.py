"""Declarative scenarios: parts × attacks × detectors × seeds.

The paper's central claim — lossless control-signal access lets one platform
analyze *any* trojan against *any* print — becomes a first-class workload
here. A :class:`ScenarioSpec` names a registered part, an optional registered
attack (an FPGA Trojan T1–T9 or a G-code rewrite such as Flaw3D/dr0wned), a
detector set, and seeds; :func:`compile_sweep` compiles a grid once into a
:class:`SweepPlan` of (golden, suspect) session pairs, keyed and scored by
recipe, which :func:`run_sweep` — the one executor — runs as one flat
:class:`BatchRunner` batch (deduplicated, cache-backed, cost-scheduled) or
shards across hosts; the service keys and runs a submission from one plan.

Three registries make the space enumerable:

* **parts** (:func:`register_part` / :data:`PARTS`) — every slicer workload;
* **attacks** (:func:`register_attack` / :data:`ATTACKS`) — the Trojan suite
  with its Table I parameters plus the Table II G-code attacks;
* **grids** (:func:`register_grid` / :data:`GRIDS`) — named scenario grids
  (``table1``, ``flaw3d``, ``dr0wned``, ``clean``, ``trojans``, ``full``)
  behind the ``repro sweep`` CLI command, plus parametric **axis sweeps**
  (:class:`AxisSweep` / :func:`register_axis_sweep`: ``t2-curve``,
  ``t9-curve``, ``curves``) that declare a Trojan-parameter curve as data
  and expand to ordinary scenarios.

Every compiled session — golden *and* suspect — is content-keyed and
cacheable, so sweeps over a persistent ``--cache-dir`` are incremental:
repeats re-simulate nothing, grown grids pay only for their delta.

Scoring goes through the unified Detector protocol
(:mod:`repro.detection.protocol`): each scenario's detectors are fitted on
the golden summary and score the suspect, yielding normalized
:class:`~repro.detection.protocol.Verdict` rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.detection.protocol import FittedDetectors, ScoreSpec, Verdict
from repro.errors import ReproError
from repro.experiments.batch import (
    CacheOption,
    SessionSpec,
    SessionSummary,
    content_keys,
    program_sha256,
    raise_failures,
    resolve_cache,
    run_sessions,
)
from repro.experiments.distrib import Coordinator, ScenarioJob
from repro.experiments.transport import Transport
from repro.experiments.workloads import (
    dense_part,
    dense_profile,
    sliced_program,
    standard_part,
    table1_part,
    tiny_part,
)
from repro.gcode.ast import GcodeProgram
from repro.gcode.slicer.shapes import Shape
from repro.gcode.transforms.edits import insert_void
from repro.gcode.transforms.flaw3d import Flaw3dReduction, Flaw3dRelocation

DEFAULT_NOISE_SIGMA = 0.0005
"""The time-noise sigma used by the detection experiments."""

GOLDEN_SEED = 1001
"""Noise seed of every golden (reference) print."""

CONTROL_SEED = 1002
"""Noise seed of the clean control print (the false-positive check)."""


# ----------------------------------------------------------------------
# Part registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PartDef:
    """A named printable workload: how to get its program (and shape)."""

    name: str
    build: Callable[[], GcodeProgram]
    shape: Optional[Callable[[], Shape]] = None
    description: str = ""


PARTS: Dict[str, PartDef] = {}
_ADHOC_PARTS: Dict[str, PartDef] = {}
_PROGRAM_CACHE: Dict[str, GcodeProgram] = {}


def register_part(part: PartDef) -> PartDef:
    """Add (or replace) a part in the registry (and in grid enumeration)."""
    PARTS[part.name] = part
    _PROGRAM_CACHE.pop(part.name, None)
    return part


def part_names() -> List[str]:
    """The enumerable parts — what the default grids cross attacks with.

    Ad-hoc program parts (:func:`register_program_part`) are resolvable by
    name but deliberately excluded, so a caller-supplied workload never
    silently inflates the ``full``/``trojans``/``clean`` grids.
    """
    return sorted(PARTS)


def get_part(name: str) -> PartDef:
    part = PARTS.get(name) or _ADHOC_PARTS.get(name)
    if part is None:
        raise ReproError(f"unknown part {name!r}; registered: {part_names()}")
    return part


def part_program(name: str) -> GcodeProgram:
    """The part's sliced program (sliced once per process)."""
    if name not in _PROGRAM_CACHE:
        _PROGRAM_CACHE[name] = get_part(name).build()
    return _PROGRAM_CACHE[name]


def part_shape(name: str) -> Optional[Shape]:
    part = get_part(name)
    return part.shape() if part.shape is not None else None


def register_program_part(program: GcodeProgram, name: Optional[str] = None) -> str:
    """Register an ad-hoc program (e.g. a caller-supplied workload) as a part.

    The generated name is content-derived, so registering the same program
    twice maps to the same part (and the same golden cache entries). Ad-hoc
    parts are resolvable by name but stay out of :func:`part_names`, so
    they never change what the default grids enumerate. Registering a
    *different* program under an already-taken name is an error — silently
    resolving to the old program would make scenarios print the wrong part.
    """
    content = program_sha256(program).hexdigest()
    if name is None:
        name = f"custom-{content[:12]}"
    if name in PARTS or name in _ADHOC_PARTS:
        if program_sha256(part_program(name)).hexdigest() != content:
            raise ReproError(
                f"part name {name!r} is already registered with different content"
            )
        return name
    _ADHOC_PARTS[name] = PartDef(
        name=name, build=lambda: program, description="ad-hoc program"
    )
    _PROGRAM_CACHE[name] = program
    return name


register_part(PartDef("tiny", lambda: sliced_program(tiny_part()), tiny_part,
                      "10mm 3-layer coupon (fast)"))
register_part(PartDef("standard", lambda: sliced_program(standard_part()), standard_part,
                      "16mm calibration square"))
register_part(PartDef("table1", lambda: sliced_program(table1_part()), table1_part,
                      "20mm box sized for slow-trigger Trojans"))
register_part(PartDef("dense", lambda: sliced_program(dense_part(), dense_profile()), dense_part,
                      "64-segment cylinder, dense infill (Table II)"))


# ----------------------------------------------------------------------
# Attack registry
# ----------------------------------------------------------------------

FPGA_ATTACK = "fpga"
GCODE_ATTACK = "gcode"


@dataclass(frozen=True)
class AttackDef:
    """One registered attack: an FPGA Trojan or a G-code rewrite.

    FPGA attacks carry the Trojan id/parameters the worker instantiates;
    G-code attacks carry a transform ``(program, shape) -> program`` applied
    at compile time (the shape is passed for geometry-aware rewrites like
    the dr0wned void and may be ``None`` for ad-hoc parts).
    """

    name: str
    kind: str
    description: str = ""
    trojan_id: Optional[str] = None
    trojan_params: Mapping[str, Any] = field(default_factory=dict)
    grace_s: float = 1.0
    transform: Optional[Callable[[GcodeProgram, Optional[Shape]], GcodeProgram]] = None

    def __post_init__(self) -> None:
        if self.kind not in (FPGA_ATTACK, GCODE_ATTACK):
            raise ReproError(f"attack kind must be fpga|gcode, got {self.kind!r}")
        if self.kind == FPGA_ATTACK and self.trojan_id is None:
            raise ReproError(f"fpga attack {self.name!r} needs a trojan_id")
        if self.kind == GCODE_ATTACK and self.transform is None:
            raise ReproError(f"gcode attack {self.name!r} needs a transform")


ATTACKS: Dict[str, AttackDef] = {}


def register_attack(attack: AttackDef) -> AttackDef:
    ATTACKS[attack.name] = attack
    return attack


def attack_names() -> List[str]:
    return sorted(ATTACKS)


def get_attack(name: str) -> AttackDef:
    try:
        return ATTACKS[name]
    except KeyError:
        raise ReproError(
            f"unknown attack {name!r}; registered: {attack_names()}"
        ) from None


TABLE1_TROJAN_PARAMS: Dict[str, Dict[str, Any]] = {
    "T1": dict(period_s=8.0, min_shift_steps=40, max_shift_steps=90),
    "T2": dict(keep_fraction=0.5),
    "T3": dict(mode="over"),
    "T4": dict(probability=0.6, min_shift_steps=30, max_shift_steps=60),
    "T5": dict(at_layer=2, extra_z_mm=0.35),
    "T6": dict(targets=("hotend",)),
    "T7": dict(targets=("hotend",)),
    "T8": dict(axes=("X", "Y"), period_s=8.0, outage_s=1.0),
    "T9": dict(scale=0.15, arm_delay_s=10.0),
}
"""Per-Trojan parameters tuned to the Table I workload's duration."""

TROJAN_IDS: Tuple[str, ...] = tuple(sorted(TABLE1_TROJAN_PARAMS))

_TROJAN_DESCRIPTIONS = {
    "T1": "periodic axis shift (loose belt)",
    "T2": "extrusion pulse masking (50% flow)",
    "T3": "retraction weakening (over-extrusion)",
    "T4": "per-layer Z-wobble shifts",
    "T5": "single-layer Z shift (delamination)",
    "T6": "heater denial of service",
    "T7": "thermal runaway (destructive)",
    "T8": "stepper driver outages",
    "T9": "fan sabotage",
}

for _tid in TROJAN_IDS:
    register_attack(
        AttackDef(
            name=_tid,
            kind=FPGA_ATTACK,
            description=_TROJAN_DESCRIPTIONS[_tid],
            trojan_id=_tid,
            trojan_params=TABLE1_TROJAN_PARAMS[_tid],
            # T7 keeps heating after the firmware dies; give the plant time
            # to show the damage.
            grace_s=40.0 if _tid == "T7" else 1.0,
        )
    )


def _gcode_attack_from(transform) -> Callable[[GcodeProgram, Optional[Shape]], GcodeProgram]:
    return lambda program, shape: transform.apply(program)


def flaw3d_reduction_attack(factor: float) -> str:
    """Register (idempotently) a Flaw3D reduction attack; returns its name."""
    transform = Flaw3dReduction(factor)
    if transform.label not in ATTACKS:
        register_attack(
            AttackDef(
                name=transform.label,
                kind=GCODE_ATTACK,
                description=f"Flaw3D bootloader: extrusion x{factor:g}",
                transform=_gcode_attack_from(transform),
            )
        )
    return transform.label


def flaw3d_relocation_attack(period: int) -> str:
    """Register (idempotently) a Flaw3D relocation attack; returns its name."""
    transform = Flaw3dRelocation(period)
    if transform.label not in ATTACKS:
        register_attack(
            AttackDef(
                name=transform.label,
                kind=GCODE_ATTACK,
                description=f"Flaw3D bootloader: relocate filament every {period} moves",
                transform=_gcode_attack_from(transform),
            )
        )
    return transform.label


TABLE2_CASES: Tuple[Tuple[int, str], ...] = tuple(
    [(case, flaw3d_reduction_attack(factor)) for case, factor in
     ((1, 0.5), (2, 0.85), (3, 0.9), (4, 0.98))]
    + [(case, flaw3d_relocation_attack(period)) for case, period in
       ((5, 5), (6, 10), (7, 20), (8, 100))]
)
"""Table II's eight Flaw3D test cases as (case number, attack name)."""


def _dr0wned_void(program: GcodeProgram, shape: Optional[Shape]) -> GcodeProgram:
    """The dr0wned-style internal void, centred and sized from the part.

    The attack removes material from the middle of the part (the paper's
    propeller void): here, a box covering the central half of the footprint
    over the lower half of the part's height.
    """
    if shape is None:
        raise ReproError("the dr0wned void attack needs a part with a shape")
    outline = shape.outline_at(0.0)
    xs = [p[0] for p in outline]
    ys = [p[1] for p in outline]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    hw, hd = (max(xs) - min(xs)) / 4, (max(ys) - min(ys)) / 4
    return insert_void(
        program, (cx - hw, cy - hd, 0.0, cx + hw, cy + hd, shape.height_mm / 2)
    )


register_attack(
    AttackDef(
        name="dr0wned-void",
        kind=GCODE_ATTACK,
        description="dr0wned-style internal void (central half-footprint)",
        transform=_dr0wned_void,
    )
)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: part × attack × detector set × seed.

    ``attack=None`` is a clean baseline — the suspect is an independent
    noise realization of the golden print, so every detector *should* stay
    quiet (the false-positive check). ``seed`` is the suspect's noise seed
    for G-code/clean scenarios and the Trojan seed for FPGA scenarios.
    """

    name: str
    part: str = "standard"
    attack: Optional[str] = None
    detectors: Tuple[str, ...] = ("golden",)
    seed: int = CONTROL_SEED
    golden_seed: int = GOLDEN_SEED
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    uart_period_ms: int = 100
    margin: float = 0.05

    @property
    def is_attack(self) -> bool:
        return self.attack is not None


def compile_scenario(
    scenario: ScenarioSpec, fast_path: bool = True
) -> Tuple[SessionSpec, SessionSpec]:
    """Compile a scenario to its (golden, suspect) SessionSpec pair.

    Noise seeds are normalized to 0 whenever ``noise_sigma == 0`` so that
    noise-free scenarios share content keys (and cached golden prints) with
    every other noise-free run of the same part, regardless of the seed a
    grid nominally carries.

    *Both* specs are marked cacheable: the content key covers the G-code
    (post-transform for G-code attacks), the Trojan id/params/seed, the
    firmware config, and every sim parameter, so any scenario this host has
    simulated before — golden *or* suspect — is served from the
    :class:`~repro.experiments.batch.SessionCache`. A repeat sweep over a
    persistent cache directory re-simulates nothing; a grown grid simulates
    only its delta.

    ``fast_path`` (on by default) compiles both sessions for the batched
    step-emission fast path; it is part of the content key, so fast and
    precise runs of the same scenario never alias in the cache. The parity
    harness pins their verdict rows byte-identical regardless.
    """
    program = part_program(scenario.part)
    noise = scenario.noise_sigma
    common = dict(
        noise_sigma=noise,
        uart_period_ms=scenario.uart_period_ms,
        fast_path=fast_path,
    )
    golden = SessionSpec(
        program=program,
        noise_seed=scenario.golden_seed if noise > 0 else 0,
        label=f"{scenario.name}/golden",
        cacheable=True,
        **common,
    )
    if scenario.attack is None:
        suspect = SessionSpec(
            program=program,
            noise_seed=scenario.seed if noise > 0 else 0,
            label=f"{scenario.name}/clean",
            cacheable=True,
            **common,
        )
        return golden, suspect
    attack = get_attack(scenario.attack)
    if attack.kind == GCODE_ATTACK:
        suspect = SessionSpec(
            program=attack.transform(program, part_shape(scenario.part)),
            noise_seed=scenario.seed if noise > 0 else 0,
            label=f"{scenario.name}/{attack.name}",
            cacheable=True,
            **common,
        )
    else:
        suspect = SessionSpec(
            program=program,
            noise_seed=scenario.golden_seed if noise > 0 else 0,
            trojan_id=attack.trojan_id,
            trojan_params=attack.trojan_params,
            trojan_seed=scenario.seed,
            grace_s=attack.grace_s,
            label=f"{scenario.name}/{attack.name}",
            cacheable=True,
            **common,
        )
    return golden, suspect


@dataclass(frozen=True)
class SweepPlan:
    """A scenario grid compiled and keyed once, for every executor to read.

    ``jobs[i]`` is ``scenarios[i]`` as worker-executable work; ``keys``
    holds every session's content key, golden then suspect per job.
    """

    scenarios: Tuple[ScenarioSpec, ...]
    jobs: Tuple[ScenarioJob, ...]
    keys: Tuple[str, ...]

    @property
    def specs(self) -> List[SessionSpec]:
        """Every job's (golden, suspect) sessions, flattened in order."""
        return [spec for job in self.jobs for spec in (job.golden, job.suspect)]

    @property
    def sessions_total(self) -> int:
        """Unique sessions: a golden shared by several scenarios counts once."""
        return len(set(self.keys))


def compile_sweep(
    scenarios: Sequence[ScenarioSpec], fast_path: bool = True
) -> SweepPlan:
    """Compile a scenario grid to a :class:`SweepPlan` in one pass.

    Each scenario goes through :func:`compile_scenario` once, and every
    session is keyed in one :func:`~repro.experiments.batch.content_keys`
    pass, so sessions sharing a sliced part hash its program once. This is
    the only place a detector set becomes a :class:`ScoreSpec`, so serial
    and worker-side scoring are the same computation by definition.
    """
    scenarios = tuple(scenarios)
    jobs = []
    for index, scenario in enumerate(scenarios):
        golden, suspect = compile_scenario(scenario, fast_path=fast_path)
        jobs.append(
            ScenarioJob(
                index=index,
                name=scenario.name,
                golden=golden,
                suspect=suspect,
                score=ScoreSpec.for_detectors(
                    scenario.detectors, margin=scenario.margin
                ),
            )
        )
    keys = content_keys(spec for job in jobs for spec in (job.golden, job.suspect))
    return SweepPlan(scenarios=scenarios, jobs=tuple(jobs), keys=tuple(keys))


@dataclass
class ScenarioOutcome:
    """One scenario scored by its full detector set.

    ``golden``/``suspect`` are full :class:`SessionSummary`\\ s when the
    scoring ran in this process, or wire-sized
    :class:`~repro.experiments.distrib.SessionDigest`\\ s when a
    distributed sweep scored the scenario worker-side (verdict shipping) —
    both expose the fields this layer and the reports read (``status``,
    ``duration_s``, ``failed``, ``error``, ``spec_key``).
    """

    scenario: ScenarioSpec
    golden: Any
    suspect: Any
    verdicts: Dict[str, Verdict]

    @property
    def failed(self) -> bool:
        """True when either session's *execution* raised (not scoreable)."""
        return self.golden.failed or self.suspect.failed

    @property
    def detected(self) -> bool:
        return any(v.trojan_likely for v in self.verdicts.values())

    @property
    def false_positive(self) -> bool:
        return not self.scenario.is_attack and self.detected

    @property
    def missed(self) -> bool:
        return self.scenario.is_attack and not self.detected and not self.failed


@dataclass
class SweepResult:
    """Every outcome of one sweep, plus the session-cache economics.

    ``cache_misses`` is exactly the number of sessions this sweep had to
    simulate (every unique cacheable spec is looked up once); on a repeat
    sweep over a persistent cache directory it is 0 — the incremental-sweep
    invariant the tests pin down.
    """

    outcomes: List[ScenarioOutcome]
    cache_hits: int = 0
    cache_misses: int = 0
    cache_disk_hits: int = 0
    sessions_total: int = 0
    sessions_simulated: int = 0
    sessions_failed: int = 0
    wall_clock_s: float = 0.0
    grid: str = ""
    host_stats: List[Dict[str, Any]] = field(default_factory=list)
    requeues: int = 0
    payload_bytes: int = 0

    @property
    def attack_outcomes(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if o.scenario.is_attack]

    @property
    def clean_outcomes(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.scenario.is_attack]

    @property
    def failed_outcomes(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if o.failed]

    def raise_on_failure(self) -> "SweepResult":
        """Raise :class:`ReproError` if any session failed; else return self.

        For callers that score the summaries themselves (Table I, the
        ablation): a FAILED stub with an empty capture would read as a
        maximal mismatch and masquerade as a TROJAN.
        """
        raise_failures([s for o in self.outcomes for s in (o.golden, o.suspect)])
        return self

    @property
    def attacks_detected(self) -> int:
        return sum(1 for o in self.attack_outcomes if o.detected)

    @property
    def false_positives(self) -> int:
        return sum(1 for o in self.clean_outcomes if o.detected)

    @property
    def ok(self) -> bool:
        """Every attack caught, no false positives, and no failed sessions."""
        return (
            self.attacks_detected == len(self.attack_outcomes)
            and self.false_positives == 0
            and not self.failed_outcomes
        )

    def render(self) -> str:
        name_w = max([len(o.scenario.name) for o in self.outcomes] + [8])
        det_w = max(
            [len(d) for o in self.outcomes for d in o.verdicts] + [8]
        )
        header = f"{'scenario':<{name_w}} {'detector':<{det_w}} {'verdict':<7} detail"
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            for det_name, verdict in outcome.verdicts.items():
                flag = "TROJAN" if verdict.trojan_likely else "clean"
                lines.append(
                    f"{outcome.scenario.name:<{name_w}} {det_name:<{det_w}} "
                    f"{flag:<7} {verdict.detail}"
                )
        lines.append("")
        cache_note = f"session cache {self.cache_hits} hits / {self.cache_misses} misses"
        if self.cache_disk_hits:
            cache_note += f" ({self.cache_disk_hits} served from disk)"
        lines.append(
            f"{len(self.outcomes)} scenarios "
            f"({len(self.attack_outcomes)} attacks, {len(self.clean_outcomes)} clean): "
            f"{self.attacks_detected}/{len(self.attack_outcomes)} attacks detected, "
            f"{self.false_positives} false positives; "
            + cache_note
        )
        if self.sessions_total:
            lines.append(
                f"{self.sessions_simulated}/{self.sessions_total} unique sessions "
                f"simulated in {self.wall_clock_s:.1f}s wall clock"
            )
        if self.sessions_failed:
            names = ", ".join(o.scenario.name for o in self.failed_outcomes)
            lines.append(
                f"{self.sessions_failed} sessions FAILED "
                f"(scenarios affected: {names or 'none scored'})"
            )
        if self.host_stats:
            host_bits = "; ".join(
                f"{h['worker']}: {h['shards']} shards / {h['sessions']} sessions "
                f"in {h['wall_clock_s']:.1f}s"
                for h in self.host_stats
            )
            note = f"hosts ({len(self.host_stats)}): {host_bits}"
            if self.requeues:
                note += f"; {self.requeues} shard(s) re-queued from dead workers"
            lines.append(note)
            if self.payload_bytes:
                lines.append(f"done/ payload: {self.payload_bytes} bytes")
        return "\n".join(lines)


def run_sweep(
    scenarios: Union[Sequence[ScenarioSpec], SweepPlan],
    workers: Optional[int] = 1,
    cache: CacheOption = None,
    grid: str = "",
    hosts: int = 1,
    transport: Optional[Union[str, Transport]] = None,
    steal: bool = False,
    fast_path: bool = True,
    progress: Optional[Callable[[SessionSummary], None]] = None,
) -> SweepResult:
    """Execute and score a scenario grid: one batch, then detector verdicts.

    ``scenarios`` is a scenario list, compiled here by
    :func:`compile_sweep`, or a :class:`SweepPlan` compiled earlier for the
    same ``fast_path`` (a mismatch raises :class:`ReproError`).

    With a persistent cache the run is *incremental*: only sessions whose
    summaries are not already cached are simulated, so repeating a sweep is
    a zero-resimulation no-op and growing a grid pays only for its delta.
    The returned result carries the cache hit/miss accounting and wall clock
    that the CSV/HTML reports (:mod:`repro.experiments.report`) surface.

    With ``hosts > 1`` the plan's jobs go to the
    :class:`~repro.experiments.distrib.Coordinator` (subprocess workers
    over a pluggable shard-queue backend: ``transport`` names it — a
    :class:`Transport`, a filesystem path, ``http://host:port/queues/name``,
    or ``memory://name``; ``None`` queues through a temp dir), and
    ``workers`` becomes the *per-host* parallelism, so total parallelism
    is ``hosts × workers``. Idle and late-joining workers rebalance a
    straggling sweep by claiming from the shared queue. The workers score
    their scenarios and ship back only verdict rows + session digests;
    full summaries persist in the shared cache directory, written by the
    workers. The verdicts are identical to a single-host run by
    construction, and the result additionally carries per-host economics
    (``host_stats``), the dead-worker re-queue count, and the ``done/``
    payload byte count.

    Sessions compile for the batched step-emission fast path by default;
    ``fast_path=False`` (CLI ``--precise``) forces the per-event reference
    path. The two populate distinct cache keys and, by the parity harness's
    contract, identical verdict rows.

    ``progress`` (in-process sweeps only) is invoked once per *completed*
    session — cache hits excluded — exactly the
    :meth:`~repro.experiments.batch.BatchRunner.run` callback contract.
    The service layer (:mod:`repro.service`) streams job progress through
    it. Distributed sweeps ignore it: their workers already report forward
    progress through the work-dir heartbeat protocol.

    ``steal`` is accepted and ignored: every distributed sweep steals.
    """
    if isinstance(scenarios, SweepPlan):
        plan = scenarios
        if any(spec.fast_path != fast_path for spec in plan.specs):
            raise ReproError(
                f"the sweep plan was not compiled with fast_path={fast_path}"
            )
    else:
        plan = compile_sweep(scenarios, fast_path=fast_path)
    resolved = resolve_cache(cache)
    before = resolved.stats() if resolved is not None else {}
    # repro: lint-ignore[DET003] sweep wall-clock reporting (wall_clock_s column), never verdict content
    started = time.perf_counter()
    host_stats: List[Dict[str, Any]] = []
    requeues = 0
    payload_bytes = 0
    simulated_override: Optional[int] = None
    if hosts and hosts > 1:
        scored = Coordinator(
            hosts=hosts, cache=resolved, workers=workers, transport=transport
        ).run(plan.jobs)
        outcomes = [
            ScenarioOutcome(scenario, row.golden, row.suspect, row.verdicts)
            for scenario, row in zip(plan.scenarios, scored.rows)
        ]
        host_stats = scored.host_stats
        requeues = scored.requeues
        payload_bytes = scored.payload_bytes
        # The coordinator probes the cache (no miss accounting) and loads
        # only what it scores locally, so "sessions simulated" is its
        # dispatch count, not this cache instance's miss delta.
        simulated_override = scored.sessions_dispatched
    else:
        summaries = run_sessions(
            plan.specs, workers=workers, cache=resolved, progress=progress
        )
        # Scored through the job's ScoreSpec, the recipe a distribution
        # worker would receive; a FAILED session becomes a non-detection
        # verdict carrying its failure text, never a stack trace. Each
        # golden's detectors are fitted once for this sweep.
        fitted: FittedDetectors = {}
        outcomes = [
            ScenarioOutcome(
                scenario,
                golden,
                suspect,
                job.score.score_pair(golden, suspect, fitted),
            )
            for scenario, job, golden, suspect in zip(
                plan.scenarios, plan.jobs, summaries[0::2], summaries[1::2]
            )
        ]
    wall_clock_s = time.perf_counter() - started  # repro: lint-ignore[DET003] reporting only
    after = resolved.stats() if resolved is not None else {}
    misses = after.get("misses", 0) - before.get("misses", 0)
    if simulated_override is not None:
        misses = simulated_override
    failed_keys = {
        session.spec_key
        for outcome in outcomes
        for session in (outcome.golden, outcome.suspect)
        if session.failed
    }
    return SweepResult(
        outcomes=outcomes,
        cache_hits=after.get("hits", 0) - before.get("hits", 0),
        cache_misses=misses,
        cache_disk_hits=after.get("disk_hits", 0) - before.get("disk_hits", 0),
        sessions_total=plan.sessions_total,
        sessions_simulated=misses if resolved is not None else plan.sessions_total,
        sessions_failed=len(failed_keys),
        wall_clock_s=wall_clock_s,
        grid=grid,
        host_stats=host_stats,
        requeues=requeues,
        payload_bytes=payload_bytes,
    )


# ----------------------------------------------------------------------
# Grid registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridDef:
    """A named, enumerable scenario grid."""

    name: str
    description: str
    build: Callable[[], List[ScenarioSpec]]


GRIDS: Dict[str, GridDef] = {}


def register_grid(name: str, description: str,
                  build: Callable[[], List[ScenarioSpec]]) -> GridDef:
    grid = GridDef(name=name, description=description, build=build)
    GRIDS[name] = grid
    return grid


def grid_names() -> List[str]:
    return sorted(GRIDS)


def grid_scenarios(name: str) -> List[ScenarioSpec]:
    try:
        return GRIDS[name].build()
    except KeyError:
        raise ReproError(
            f"unknown grid {name!r}; registered: {grid_names()}"
        ) from None


def clean_scenarios(parts: Optional[Sequence[str]] = None) -> List[ScenarioSpec]:
    """Clean baselines: one independent noise realization per part."""
    return [
        ScenarioSpec(
            name=f"clean@{part}",
            part=part,
            attack=None,
            detectors=("golden", "realtime"),
            seed=CONTROL_SEED,
        )
        for part in (parts or part_names())
    ]


def trojan_scenarios(
    parts: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> List[ScenarioSpec]:
    """Every FPGA Trojan T1–T9 on every requested part (noise-free bench)."""
    return [
        ScenarioSpec(
            name=f"{trojan_id}@{part}",
            part=part,
            attack=trojan_id,
            detectors=("golden", "quality"),
            seed=seed,
            noise_sigma=0.0,
        )
        for part in (parts or part_names())
        for trojan_id in TROJAN_IDS
    ]


def flaw3d_scenarios(
    part: str = "dense",
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
    uart_period_ms: int = 100,
    margin: float = 0.05,
) -> List[ScenarioSpec]:
    """The eight Table II Flaw3D cases (with Table II's seeds) on one part."""
    return [
        ScenarioSpec(
            name=f"case{case}:{attack}",
            part=part,
            attack=attack,
            detectors=("golden", "sidechannel"),
            seed=2000 + case,
            noise_sigma=noise_sigma,
            uart_period_ms=uart_period_ms,
            margin=margin,
        )
        for case, attack in TABLE2_CASES
    ]


def dr0wned_scenarios(parts: Sequence[str] = ("standard", "dense")) -> List[ScenarioSpec]:
    """The dr0wned-style void attack on geometry-bearing parts."""
    return [
        ScenarioSpec(
            name=f"dr0wned@{part}",
            part=part,
            attack="dr0wned-void",
            detectors=("golden", "realtime"),
            seed=2042,
        )
        for part in parts
    ]


def full_grid() -> List[ScenarioSpec]:
    """Everything: clean baselines + all Trojans × all parts + G-code attacks."""
    return (
        clean_scenarios()
        + trojan_scenarios()
        + flaw3d_scenarios()
        + dr0wned_scenarios()
    )


def smoke_grid() -> List[ScenarioSpec]:
    """A seconds-long sanity grid on the tiny part (one clean, two attacks)."""
    return [
        clean_scenarios(parts=("tiny",))[0],
        ScenarioSpec(
            name="flaw3d-reduction-0.5@tiny",
            part="tiny",
            attack=flaw3d_reduction_attack(0.5),
            detectors=("golden", "realtime"),
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


register_grid("clean", "clean baselines on every part (false-positive check)",
              clean_scenarios)
register_grid("smoke", "seconds-long sanity grid on the tiny part",
              smoke_grid)
register_grid("table1", "Trojan suite T1-T9 on the Table I part",
              lambda: trojan_scenarios(parts=("table1",)))
register_grid("trojans", "every Trojan T1-T9 on every registered part",
              trojan_scenarios)
register_grid("flaw3d", "the eight Table II Flaw3D cases on the dense part",
              flaw3d_scenarios)
register_grid("dr0wned", "dr0wned-style void attacks",
              dr0wned_scenarios)
register_grid("full", "clean + trojans x parts + flaw3d + dr0wned",
              full_grid)


# ----------------------------------------------------------------------
# Parametric axis sweeps
# ----------------------------------------------------------------------

def _format_param(value: Any) -> str:
    return f"{value:g}" if isinstance(value, float) else str(value)


def trojan_attack_variant(trojan_id: str, **overrides: Any) -> str:
    """Register (idempotently) a Trojan attack with overridden parameters.

    The name encodes the overrides (``"T2[keep_fraction=0.25]"``), so the
    same variant registers once no matter how many sweeps declare it. The
    variant flows through the ordinary compile/cache path: its session's
    content key covers the overridden Trojan config, so each curve point is
    simulated exactly once ever (per cache directory).

    A name collision with *different* parameters — a ``%g`` formatting
    collision between two nearby floats, or a user-registered attack that
    happens to share the name — raises :class:`ReproError` rather than
    silently running the wrong Trojan config (mirroring how
    :func:`register_program_part` rejects content mismatches).
    """
    base = get_attack(trojan_id)
    if base.kind != FPGA_ATTACK:
        raise ReproError(f"{trojan_id!r} is not an FPGA Trojan attack")
    suffix = ",".join(
        f"{key}={_format_param(value)}" for key, value in sorted(overrides.items())
    )
    if not suffix:
        return trojan_id
    name = f"{trojan_id}[{suffix}]"
    params = {**dict(base.trojan_params), **overrides}
    existing = ATTACKS.get(name)
    if existing is not None:
        if (
            existing.kind != FPGA_ATTACK
            or existing.trojan_id != base.trojan_id
            or dict(existing.trojan_params) != params
        ):
            raise ReproError(
                f"attack name {name!r} is already registered with different "
                f"parameters ({dict(existing.trojan_params)!r} vs {params!r}); "
                "refusing to run the wrong Trojan config under a shared name"
            )
        return name
    register_attack(
        AttackDef(
            name=name,
            kind=FPGA_ATTACK,
            description=f"{base.description} ({suffix})",
            trojan_id=base.trojan_id,
            trojan_params=params,
            grace_s=base.grace_s,
        )
    )
    return name


@dataclass(frozen=True)
class AxisSweep:
    """A parametric grid: one Trojan parameter swept over a value curve.

    Declares e.g. T2's ``keep_fraction`` curve or T9's arm-delay curve as
    data; :meth:`expand` turns each (part, value) into an ordinary
    :class:`ScenarioSpec` under a variant attack, so parametric grids run
    through the same batch/cache/report machinery as every other grid —
    and growing a curve by one value re-simulates exactly one session.
    """

    name: str
    attack: str
    param: str
    values: Tuple[Any, ...]
    parts: Tuple[str, ...] = ("tiny",)
    detectors: Tuple[str, ...] = ("golden", "quality")
    seed: int = 42
    noise_sigma: float = 0.0
    description: str = ""

    def expand(self) -> List[ScenarioSpec]:
        return [
            ScenarioSpec(
                name=f"{attack_name}@{part}",
                part=part,
                attack=attack_name,
                detectors=self.detectors,
                seed=self.seed,
                noise_sigma=self.noise_sigma,
            )
            for part in self.parts
            for value in self.values
            for attack_name in (
                trojan_attack_variant(self.attack, **{self.param: value}),
            )
        ]


AXIS_SWEEPS: Dict[str, AxisSweep] = {}


def register_axis_sweep(sweep: AxisSweep) -> AxisSweep:
    """Register an axis sweep; it becomes a named grid of the same name."""
    AXIS_SWEEPS[sweep.name] = sweep
    register_grid(
        sweep.name,
        sweep.description or f"{sweep.attack} {sweep.param} curve over {sweep.values}",
        sweep.expand,
    )
    return sweep


register_axis_sweep(
    AxisSweep(
        name="t2-curve",
        attack="T2",
        param="keep_fraction",
        values=(0.25, 0.5, 0.75, 0.9),
        description="T2 extrusion-masking keep_fraction curve on the tiny part",
    )
)
register_axis_sweep(
    AxisSweep(
        name="t9-curve",
        attack="T9",
        param="arm_delay_s",
        values=(0.0, 2.5, 5.0, 10.0),
        description="T9 fan-sabotage arm-delay curve on the tiny part "
        "(exercises duration-aware fan detection)",
    )
)
register_grid(
    "curves",
    "every registered parametric axis sweep",
    lambda: [sc for sweep in AXIS_SWEEPS.values() for sc in sweep.expand()],
)
