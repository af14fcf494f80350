"""The unified Detector protocol: ``fit(golden) / score(suspect) -> Verdict``.

Every detection strategy in this repository — the paper's lossless
golden-model comparison, the streaming/realtime variant, the emulated lossy
side-channel baseline, and the physical part-quality check — answers the
same question ("given a trusted golden print, is this print trojaned?") but
historically each exposed its own API. This module gives them one shape so a
scenario can name its detectors declaratively and the sweep engine can treat
them as interchangeable entries:

* :class:`Verdict` — the normalized outcome (boolean verdict, a headline
  score, a one-line detail, and the detector's native rich report);
* :class:`Detector` — the structural protocol: ``fit`` on the golden
  session summary, then ``score`` any number of suspect summaries;
* four adapters covering the existing detection strategies;
* :data:`DETECTOR_CLASSES` / :func:`make_detector` — the registry the
  scenario layer resolves detector names through;
* :class:`ScoreSpec` — the picklable scoring recipe a sweep job carries.

Detection is a golden-model comparison: many suspects are judged against
one trusted print. A scoring pass (one sweep, one worker shard, one
coordinator's local scoring) therefore fits each detector once per golden
and scores every suspect of that golden with it, through the pass's
:data:`FittedDetectors` table. The table is made and dropped by the pass,
never kept at module level.

Detectors consume :class:`~repro.experiments.batch.SessionSummary` duck-typed
(anything with ``capture``/``transactions``/``trace``/plant fields works), so
this module stays import-light and free of experiment-layer dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    runtime_checkable,
)

from repro.detection.baselines import (
    SUSPECT_SEED_OFFSET,
    SideChannelDetector,
    SideChannelModel,
)
from repro.detection.comparator import DEFAULT_MARGIN, CaptureComparator
from repro.detection.realtime import StreamingDetector
from repro.errors import DetectionError


@dataclass(frozen=True)
class Verdict:
    """One detector's normalized answer about one suspect print."""

    detector: str
    trojan_likely: bool
    score: float
    detail: str
    report: Optional[Any] = None

    def summary(self) -> str:
        verdict = "TROJAN" if self.trojan_likely else "clean"
        return f"[{self.detector}] {verdict}: {self.detail}"

    def as_dict(self) -> Dict[str, Any]:
        """The verdict as plain JSON/CSV-safe values.

        The ``report`` (a detector-native rich object, possibly holding live
        comparator state) is deliberately dropped: this is the shape that
        serializes into sweep reports and cached artifacts.
        """
        return {
            "detector": self.detector,
            "trojan_likely": bool(self.trojan_likely),
            "score": float(self.score),
            "detail": self.detail,
        }

    def without_report(self) -> "Verdict":
        """A copy safe to pickle/ship regardless of the report's contents."""
        if self.report is None:
            return self
        return Verdict(
            detector=self.detector,
            trojan_likely=self.trojan_likely,
            score=self.score,
            detail=self.detail,
        )

    def __getstate__(self):
        """Pickle via :meth:`without_report`.

        The ``report`` is the detector's native rich object and may hold
        live state — :class:`RealtimeDetector` attaches the replayed
        :class:`~repro.detection.realtime.StreamingDetector` itself, whose
        alarm callback can be bound to a live bus. Dropping it here makes
        every serialization boundary (process pools, the distribution
        work-dir protocol, user pickles of scored sweeps) safe by
        construction; the scored outcome itself always survives.
        """
        return dict(self.without_report().__dict__)


@runtime_checkable
class Detector(Protocol):
    """What every detection strategy exposes to the scenario layer."""

    name: str

    def fit(self, golden) -> "Detector":
        """Learn the trusted reference; returns ``self`` for chaining."""
        ...

    def score(self, suspect) -> Verdict:
        """Judge one suspect print against the fitted golden."""
        ...


class _FittedMixin:
    """Shared golden-handling for the concrete detectors."""

    name = "detector"

    def __init__(self) -> None:
        self._golden = None

    def fit(self, golden):
        if golden is None:
            raise DetectionError(f"{self.name}: cannot fit on a missing golden")
        self._golden = golden
        return self

    @property
    def golden(self):
        if self._golden is None:
            raise DetectionError(f"{self.name}: score() before fit()")
        return self._golden


class GoldenComparisonDetector(_FittedMixin):
    """The paper's Section V-C strategy: 5 % margin + final 0 % check.

    Thin protocol adapter over :class:`CaptureComparator`; the verdict's
    ``report`` is the full :class:`~repro.detection.report.DetectionReport`.
    """

    name = "golden"

    def __init__(
        self,
        margin: float = DEFAULT_MARGIN,
        floor_steps: Optional[int] = None,
        final_check: bool = True,
    ) -> None:
        super().__init__()
        kwargs = {"margin": margin, "final_check": final_check}
        if floor_steps is not None:
            kwargs["floor_steps"] = floor_steps
        self.comparator = CaptureComparator(**kwargs)

    def score(self, suspect) -> Verdict:
        if not suspect.transactions:
            # The export stream arms on homing; a print killed before it
            # ever produced a transaction (T6-style heater DoS) is maximal
            # evidence, not a comparison error. The synthesized report keeps
            # Verdict.report a real DetectionReport for downstream renderers:
            # an absent stream trivially fails the 0% end-of-print check.
            return Verdict(
                detector=self.name,
                trojan_likely=True,
                score=100.0,
                detail="suspect produced no transactions (print never started)",
                report=self._empty_suspect_report(),
            )
        report = self.comparator.compare(self.golden.transactions, suspect.transactions)
        return Verdict(
            detector=self.name,
            trojan_likely=report.trojan_likely,
            score=report.largest_percent_diff,
            detail=report.summary(),
            report=report,
        )

    def _empty_suspect_report(self):
        from repro.core.capture import COLUMNS
        from repro.detection.comparator import Mismatch
        from repro.detection.report import DetectionReport

        golden_txns = list(self.golden.transactions)
        final = golden_txns[-1]
        final_mismatches = [
            Mismatch(
                final.index,
                column,
                final.value(column),
                0,
                self.comparator.percent_diff(final.value(column), 0) * 100.0,
            )
            for column in COLUMNS
            if final.value(column) != 0
        ]
        return DetectionReport(
            margin_percent=self.comparator.margin * 100.0,
            transactions_compared=0,
            mismatches=[],
            final_mismatches=final_mismatches,
            largest_percent_diff=0.0,
            golden_length=len(golden_txns),
            suspect_length=0,
        )


class RealtimeDetector(_FittedMixin):
    """The streaming comparison, replayed over a completed capture.

    Reuses :class:`StreamingDetector`'s alignment/alarm logic (the exact code
    the live UART path runs) by feeding it the suspect's transaction stream.
    The score is the percentage of the print that had elapsed when the alarm
    fired — the "halt a print as soon as a Trojan is suspected" economy.

    A wholly empty suspect stream is treated as maximal evidence (matching
    the other detectors). A *truncated* stream with a matching prefix is
    the method's honest blind spot: live streaming only sees transactions
    that arrive, so a print that simply stops scores clean here — pair with
    ``golden`` (whose final-totals check catches it) when that matters.
    """

    name = "realtime"

    def __init__(
        self,
        margin: float = DEFAULT_MARGIN,
        alarm_after_mismatches: int = 1,
    ) -> None:
        super().__init__()
        self.margin = margin
        self.alarm_after_mismatches = alarm_after_mismatches

    def score(self, suspect) -> Verdict:
        golden_txns = self.golden.transactions
        if not suspect.transactions:
            return Verdict(
                detector=self.name,
                trojan_likely=True,
                score=0.0,
                detail="suspect produced no transactions (print never started)",
            )
        streamer = StreamingDetector(
            golden_txns,
            comparator=CaptureComparator(margin=self.margin),
            alarm_after_mismatches=self.alarm_after_mismatches,
        )
        suspect_txns = list(suspect.transactions)
        for txn in suspect_txns:
            streamer.observe(txn)
        if streamer.alarmed and suspect_txns:
            elapsed = 100.0 * streamer.alarmed_at_index / len(suspect_txns)
            detail = (
                f"alarm at transaction {streamer.alarmed_at_index}/"
                f"{len(suspect_txns)} ({elapsed:.0f}% of print)"
            )
        else:
            elapsed = 100.0
            detail = f"no alarm over {len(suspect_txns)} transactions"
        return Verdict(
            detector=self.name,
            trojan_likely=streamer.alarmed,
            score=elapsed,
            detail=detail,
            report=streamer,
        )


class SideChannelBaselineDetector(_FittedMixin):
    """The emulated lossy side-channel (prior-work baseline) as a Detector.

    The golden is observed once per fit, at the first suspect scored, and
    every suspect reads a prefix of the detector's one suspect-seed noise
    stream, so a fitted instance scores a golden group without redrawing.
    """

    name = "sidechannel"

    def __init__(
        self,
        model: Optional[SideChannelModel] = None,
        threshold: float = 0.3,
        min_activity: float = 50.0,
    ) -> None:
        super().__init__()
        self.detector = SideChannelDetector(
            model=model or SideChannelModel(),
            threshold=threshold,
            min_activity=min_activity,
        )
        self._golden_obs = None

    def fit(self, golden):
        super().fit(golden)
        self._golden_obs = None
        return self

    def score(self, suspect) -> Verdict:
        if not suspect.transactions:
            return Verdict(
                detector=self.name,
                trojan_likely=True,
                score=100.0,
                detail="suspect produced no transactions (print never started)",
            )
        if self._golden_obs is None:
            self._golden_obs = self.detector.observe(self.golden.transactions)
        report = self.detector.compare_observed(
            self._golden_obs, self.detector.observe(suspect.transactions, SUSPECT_SEED_OFFSET)
        )
        return Verdict(
            detector=self.name,
            trojan_likely=report.trojan_likely,
            score=report.largest_relative_diff * 100.0,
            detail=report.summary(),
            report=report,
        )


class QualityDetector(_FittedMixin):
    """Physical-effect detection: judge the *part*, not the signals.

    The simulated counterpart of inspecting the photographed Table I parts:
    compare deposition traces against the golden print and flag geometry
    compromise, delamination, flow anomalies, lost steps, fan sabotage, or a
    print that never finished. Catches attack classes (T9's fan collapse,
    T6/T7's kills) that leave the X/Y/Z/E transaction stream clean.

    The fan check is duration-aware: beyond the whole-print mean-duty ratio,
    it integrates the *fraction of the print* the suspect fan spent below
    ``fan_collapse_ratio`` times the golden duty at the same normalized time
    (:func:`~repro.physics.quality.fan_deficit_fraction`). A sabotage window
    that is a sliver of the wall clock (T9 on the tiny coupon: a 10 s arm
    delay against a ~60 s print whose fan only runs for the final 8 s)
    therefore still registers — the sabotaged share of the print is
    normalized by print length, not washed out by it.
    """

    name = "quality"

    def __init__(
        self,
        flow_band: float = 0.1,
        fan_collapse_ratio: float = 0.6,
        fan_deficit_threshold: float = 0.01,
    ) -> None:
        super().__init__()
        self.flow_band = flow_band
        self.fan_collapse_ratio = fan_collapse_ratio
        self.fan_deficit_threshold = fan_deficit_threshold

    def _fan_deficit(self, suspect) -> float:
        """Normalized-time fan deficit, 0.0 when either side lacks a profile.

        Summaries are consumed duck-typed; anything without the fan profile
        fields (older cache formats, hand-built test doubles) simply skips
        the duration-aware check rather than failing it.
        """
        from repro.physics.quality import fan_deficit_fraction

        golden_profile = getattr(self.golden, "fan_profile", None)
        suspect_profile = getattr(suspect, "fan_profile", None)
        if not golden_profile or suspect_profile is None:
            return 0.0
        return fan_deficit_fraction(
            golden_profile,
            getattr(self.golden, "end_time_ns", 0),
            suspect_profile,
            getattr(suspect, "end_time_ns", 0),
            collapse_ratio=self.fan_collapse_ratio,
        )

    def score(self, suspect) -> Verdict:
        from repro.physics.quality import compare_traces

        quality = compare_traces(self.golden.trace, suspect.trace)
        anomalies = []
        if not suspect.completed:
            anomalies.append(f"print not completed ({suspect.status.value})")
        if quality.geometry_compromised:
            anomalies.append(
                f"geometry compromised (centroid dev {quality.max_centroid_shift_mm:.2f}mm)"
            )
        if quality.delaminated:
            anomalies.append(f"delamination (gap {quality.max_z_spacing_mm:.2f}mm)")
        if abs(quality.flow_ratio - 1.0) > self.flow_band:
            anomalies.append(f"flow ratio {quality.flow_ratio:.2f}")
        if suspect.missed_steps > 0:
            anomalies.append(f"{suspect.missed_steps} missed steps")
        if suspect.hotend_damaged or suspect.bed_damaged:
            anomalies.append("heater damage")
        golden_fan = self.golden.mean_fan_duty
        if golden_fan > 0 and suspect.mean_fan_duty / golden_fan < self.fan_collapse_ratio:
            anomalies.append(
                f"fan duty collapsed ({suspect.mean_fan_duty:.2f} vs {golden_fan:.2f})"
            )
        else:
            deficit = self._fan_deficit(suspect)
            if deficit > self.fan_deficit_threshold:
                anomalies.append(
                    f"fan duty deficit over {deficit * 100.0:.1f}% of the print"
                )
        detail = "; ".join(anomalies) if anomalies else "part within tolerances"
        return Verdict(
            detector=self.name,
            trojan_likely=bool(anomalies),
            score=float(len(anomalies)),
            detail=detail,
            report=quality,
        )


DETECTOR_CLASSES: Dict[str, Type] = {
    GoldenComparisonDetector.name: GoldenComparisonDetector,
    RealtimeDetector.name: RealtimeDetector,
    SideChannelBaselineDetector.name: SideChannelBaselineDetector,
    QualityDetector.name: QualityDetector,
}


def make_detector(name: str, **params) -> Detector:
    """Instantiate a registered detector by name (unfitted)."""
    try:
        cls = DETECTOR_CLASSES[name]
    except KeyError:
        raise DetectionError(
            f"unknown detector {name!r}; expected one of {sorted(DETECTOR_CLASSES)}"
        ) from None
    return cls(**params)


FittedDetectors = Dict[Tuple[str, str, Tuple[Tuple[str, Any], ...]], Detector]
"""One scoring pass's fitted detectors, keyed (golden ``spec_key``, name, params).

Made empty by whoever runs the pass (a sweep, a worker shard, a
coordinator's local scoring) and dropped with it: never kept at module
level, so every pass fits its goldens afresh, as a new process would.
"""


def _fitted_detector(
    name: str,
    params: Tuple[Tuple[str, Any], ...],
    golden,
    fitted: Optional[FittedDetectors] = None,
) -> Detector:
    """The detector ``name(**params)`` fitted on ``golden``, once per pass.

    With a ``fitted`` table, goldens that share a ``spec_key`` (one content
    key, so one simulated outcome) share one fitted detector; a golden
    without a key, or a call without a table, fits a fresh one. Sharing is
    safe because scoring never changes what a fitted detector answers for
    the next suspect.
    """
    key = getattr(golden, "spec_key", "")
    if fitted is None or not key:
        return make_detector(name, **dict(params)).fit(golden)
    slot = (key, name, params)
    detector = fitted.get(slot)
    if detector is None:
        detector = fitted[slot] = make_detector(name, **dict(params)).fit(golden)
    return detector


@dataclass(frozen=True)
class ScoreSpec:
    """A picklable recipe for scoring one suspect against one golden.

    Carries detector *names and constructor parameters* — never live
    detector objects — so the recipe can cross any process/host boundary
    (notably the distribution work-dir protocol, where workers score their
    own sessions and ship only :class:`Verdict` rows back). Wherever it
    runs, :meth:`score_pair` instantiates through the same
    :func:`make_detector` registry the serial sweep uses, so worker-side
    verdicts are identical to coordinator-side ones by construction.
    Within one scoring pass each detector is fitted once per golden
    (:func:`_fitted_detector`), however many suspects share that golden.
    """

    entries: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]

    @classmethod
    def for_detectors(
        cls, names: Sequence[str], margin: float = DEFAULT_MARGIN
    ) -> "ScoreSpec":
        """The standard scenario recipe: thread ``margin`` where it applies.

        Only the margin-based comparison detectors (``golden``,
        ``realtime``) take the scenario margin; the others are built with
        their defaults — the same policy the serial sweep has always used.
        """
        entries = []
        for name in names:
            params: Tuple[Tuple[str, Any], ...] = ()
            if name in ("golden", "realtime"):
                params = (("margin", margin),)
            entries.append((name, params))
        return cls(entries=tuple(entries))

    def score_pair(
        self, golden, suspect, fitted: Optional[FittedDetectors] = None
    ) -> Dict[str, Verdict]:
        """Score ``suspect`` with every detector fitted on ``golden``.

        ``fitted`` is the scoring pass's :data:`FittedDetectors` table: the
        detectors of a golden already fitted in this pass are reused, and
        those fitted here are added to it. Without a table each detector is
        fitted afresh. The verdicts are the same either way.

        A FAILED session (its *execution* raised; duck-typed via
        ``.failed``/``.error``) cannot be fitted or scored: each detector
        instead reports a non-detection verdict carrying the failure text,
        so a crashed session surfaces as a reportable row wherever the
        scoring happens to run.
        """
        verdicts: Dict[str, Verdict] = {}
        failed = [
            (side, summary)
            for side, summary in (("golden", golden), ("suspect", suspect))
            if getattr(summary, "failed", False)
        ]
        for name, params in self.entries:
            if failed:
                side, summary = failed[0]
                error = getattr(summary, "error", None)
                verdicts[name] = Verdict(
                    detector=name,
                    trojan_likely=False,
                    score=0.0,
                    detail=f"not scored: {side} session failed ({error})",
                )
            else:
                detector = _fitted_detector(name, params, golden, fitted)
                verdicts[name] = detector.score(suspect)
        return verdicts
