"""Vectorised scorers against their scalar reference loops, bit for bit.

The side-channel noise stream, observation and window comparison, the
transaction comparator and the layer builder walk numpy arrays. Each must
return exactly what the object-walking loop it replaced returned; those
loops are kept here as the reference. Outputs are compared by ``repr``, so
a lost sign of zero (``-0.0`` vs ``0.0``), a reordered sum or a reordered
mismatch list fails, where ``==`` would let the first pass.
"""

import math
import random

import numpy as np
import pytest

from repro.core.capture import COLUMNS, Transaction
from repro.detection.baselines import (
    SideChannelDetector,
    SideChannelModel,
    _GaussStream,
    activity_profiles,
    observe,
)
from repro.detection.comparator import CaptureComparator, Mismatch
from repro.detection.report import DetectionReport
from repro.physics.deposition import LayerStats, PartTrace, TraceSample

# ----------------------------------------------------------------------
# Scalar references (the object-walking implementations, verbatim logic)
# ----------------------------------------------------------------------


def ref_activity_profiles(transactions):
    profiles = {column: [] for column in COLUMNS}
    prev = Transaction(0, 0, 0, 0, 0)
    for txn in transactions:
        for column in COLUMNS:
            profiles[column].append(float(abs(txn.value(column) - prev.value(column))))
        prev = txn
    return profiles


def ref_observe(transactions, model):
    rng = random.Random(model.seed)
    observed = {}
    for column, profile in ref_activity_profiles(transactions).items():
        channel = []
        for activity in profile:
            sigma = max(model.noise_floor, activity * model.noise_fraction)
            total = 0.0
            for _ in range(model.repetitions):
                total += activity + rng.gauss(0.0, sigma)
            mean = total / model.repetitions
            quantised = round(mean / model.quantization_steps) * model.quantization_steps
            channel.append(max(0.0, quantised))
        observed[column] = channel
    return observed


def ref_gauss(seed, count):
    rng = random.Random(seed)
    return [rng.gauss(0.0, 1.0) for _ in range(count)]


def ref_side_channel_diffs(golden_obs, suspect_obs, threshold, min_activity):
    """The side-channel window comparison as the double loop it was.

    Returns ``(windows compared, anomalous count, largest diff, its
    channel)``; the largest alone is what threshold calibration read.
    """
    compared = min(len(golden_obs["X"]), len(suspect_obs["X"]))
    anomalous = 0
    largest = 0.0
    worst_channel = ""
    for column in COLUMNS:
        for g, s in zip(golden_obs[column][:compared], suspect_obs[column][:compared]):
            if g < min_activity:
                continue
            diff = abs(s - g) / g
            if diff > largest:
                largest, worst_channel = diff, column
            if diff > threshold:
                anomalous += 1
    return compared, anomalous, largest, worst_channel


def ref_compare(comparator, golden, suspect):
    compared = min(len(golden), len(suspect))
    mismatches = []
    largest = 0.0
    for g, s in zip(golden[:compared], suspect[:compared]):
        for column in COLUMNS:
            diff = comparator.percent_diff(g.value(column), s.value(column))
            largest = max(largest, diff * 100.0)
            if diff > comparator.margin:
                mismatches.append(
                    Mismatch(g.index, column, g.value(column), s.value(column), diff * 100.0)
                )
    final_mismatches = []
    g_final, s_final = golden[-1], suspect[-1]
    for column in COLUMNS:
        if g_final.value(column) != s_final.value(column):
            final_mismatches.append(
                Mismatch(
                    g_final.index,
                    column,
                    g_final.value(column),
                    s_final.value(column),
                    comparator.percent_diff(g_final.value(column), s_final.value(column))
                    * 100.0,
                )
            )
    return DetectionReport(
        margin_percent=comparator.margin * 100.0,
        transactions_compared=compared,
        mismatches=mismatches,
        final_mismatches=final_mismatches,
        largest_percent_diff=largest,
        golden_length=len(golden),
        suspect_length=len(suspect),
    )


def ref_add_segment(stats, x0, y0, x1, y1, de_mm):
    stats.path_mm += math.hypot(x1 - x0, y1 - y0)
    stats.extruded_mm += de_mm
    mid_x, mid_y = (x0 + x1) / 2, (y0 + y1) / 2
    stats._moment_x += mid_x * de_mm
    stats._moment_y += mid_y * de_mm
    for x, y in ((x0, y0), (x1, y1)):
        stats.min_x = min(stats.min_x, x)
        stats.max_x = max(stats.max_x, x)
        stats.min_y = min(stats.min_y, y)
        stats.max_y = max(stats.max_y, y)


def ref_build_layers(samples, layer_quantum_mm):
    by_z = {}
    for prev, cur in zip(samples, samples[1:]):
        de = cur.e_mm - prev.e_mm
        if de <= 0:
            continue
        if abs(cur.z_mm - prev.z_mm) > 1e-9:
            continue
        key = round(cur.z_mm / layer_quantum_mm)
        stats = by_z.get(key)
        if stats is None:
            stats = LayerStats(z_mm=key * layer_quantum_mm)
            by_z[key] = stats
        ref_add_segment(stats, prev.x_mm, prev.y_mm, cur.x_mm, cur.y_mm, de)
    return [by_z[key] for key in sorted(by_z)]


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

CASES = range(60)


def _capture(rng, length):
    """A random count walk: idle motors, reversals, negative totals."""
    counts = [rng.randint(-500, 500) for _ in COLUMNS]
    rows = []
    for index in range(1, length + 1):
        counts = [
            value + rng.choice((0, 0, rng.randint(-900, 900), rng.randint(-20, 20)))
            for value in counts
        ]
        rows.append(Transaction(index, *counts))
    return rows


def _perturbed(rng, golden):
    """A suspect near ``golden``: small and large edits, some near the floor."""
    rows = []
    for t in golden:
        values = [
            t.value(column) + rng.choice((0, 0, 0, rng.randint(-30, 30), rng.randint(-3000, 3000)))
            for column in COLUMNS
        ]
        rows.append(Transaction(t.index, *values))
    return rows


def _model(rng, quantization_steps):
    return SideChannelModel(
        noise_fraction=rng.choice((0.0, 0.05, 0.3)),
        noise_floor=rng.choice((0.0, 0.5, 5.0)),
        quantization_steps=quantization_steps,
        repetitions=rng.choice((1, 2, 3, 8)),
        seed=rng.randint(0, 10_000),
    )


# ----------------------------------------------------------------------
# Side-channel observation
# ----------------------------------------------------------------------


class TestObserveMatchesScalarLoop:
    @pytest.mark.parametrize("case", CASES)
    def test_default_quantisation(self, case):
        # Idle windows average to small negatives that quantise to -0.0
        # before the clamp: the scalar max() returns +0.0 for them.
        rng = random.Random(case)
        txns = _capture(rng, rng.randint(1, 40))
        model = _model(rng, rng.choice((10.0, 1.0, 0.7)))
        assert repr(observe(txns, model)) == repr(ref_observe(txns, model))

    @pytest.mark.parametrize("case", CASES)
    def test_raw_noise_with_identity_quantisation(self, case):
        # A 2**-60 step leaves every mean unrounded, exposing each
        # Box-Muller value and the order of the repetition sum.
        rng = random.Random(1000 + case)
        txns = _capture(rng, rng.randint(1, 40))
        model = _model(rng, 2.0**-60)
        assert repr(observe(txns, model)) == repr(ref_observe(txns, model))

    @pytest.mark.parametrize("windows, repetitions", [(1, 1), (3, 3), (7, 1), (5, 7), (1, 9)])
    def test_odd_draw_counts(self, windows, repetitions):
        rng = random.Random(windows * 100 + repetitions)
        txns = _capture(rng, windows)
        model = SideChannelModel(
            quantization_steps=2.0**-60, repetitions=repetitions, seed=windows
        )
        assert repr(observe(txns, model)) == repr(ref_observe(txns, model))

    def test_activity_profiles_match(self):
        txns = _capture(random.Random(7), 50)
        assert repr(activity_profiles(txns)) == repr(ref_activity_profiles(txns))


class TestGaussStreamPrefixes:
    @pytest.mark.parametrize("count", [1, 2, 7, 8, 33])
    def test_every_prefix_is_the_gauss_loop(self, count):
        for seed in (0, 7, 12345):
            expected = ref_gauss(seed, count)
            stream = _GaussStream(seed)
            stream.prefix(count)
            for m in range(count + 1):  # odd and even prefixes
                assert repr(stream.prefix(m).tolist()) == repr(expected[:m])
                assert repr(_GaussStream(seed).prefix(m).tolist()) == repr(expected[:m])

    def test_growing_draws_continue_the_loop(self):
        # Grown by odd and even steps, shrinking requests in between.
        stream = _GaussStream(3)
        for count in (1, 4, 2, 9, 10, 3, 31):
            assert repr(stream.prefix(count).tolist()) == repr(ref_gauss(3, count))


# ----------------------------------------------------------------------
# Side-channel window comparison
# ----------------------------------------------------------------------


def _report_fields(report):
    return (
        report.windows_compared,
        report.anomalous_windows,
        report.largest_relative_diff,
        report.worst_channel,
    )


def _observation(rng, windows):
    """Readings from a few levels, so equal diffs (tied maxima) are common."""
    levels = (0.0, 10.0, 40.0, 50.0, 60.0, 100.0, 150.0, 200.0)
    return {column: [rng.choice(levels) for _ in range(windows)] for column in COLUMNS}


def _matrix(observation):
    return np.array([observation[column] for column in COLUMNS]).reshape(len(COLUMNS), -1)


class TestSideChannelCompareMatchesDoubleLoop:
    @pytest.mark.parametrize("case", CASES)
    def test_random_observations(self, case):
        rng = random.Random(4000 + case)
        golden = _observation(rng, rng.randint(1, 12))
        suspect = _observation(rng, rng.randint(1, 12))
        detector = SideChannelDetector(
            threshold=rng.choice((0.0, 0.3, 1.0)),
            min_activity=rng.choice((1.0, 50.0, 150.0)),
        )
        report = detector.compare_observed(_matrix(golden), _matrix(suspect))
        expected = ref_side_channel_diffs(
            golden, suspect, detector.threshold, detector.min_activity
        )
        assert repr(_report_fields(report)) == repr(expected)

    @pytest.mark.parametrize(
        "golden, suspect, expected",
        [
            # Y and E tie at 0.5: the first channel in loop order wins.
            ({"X": [10.0], "Y": [100.0], "Z": [0.0], "E": [200.0]},
             {"X": [90.0], "Y": [150.0], "Z": [70.0], "E": [100.0]},
             (1, 2, 0.5, "Y")),
            # A tie within one channel keeps its first window.
            ({"X": [100.0, 100.0], "Y": [0.0, 0.0], "Z": [0.0, 0.0], "E": [0.0, 0.0]},
             {"X": [50.0, 150.0], "Y": [0.0, 0.0], "Z": [0.0, 0.0], "E": [0.0, 0.0]},
             (2, 2, 0.5, "X")),
            # No diff above 0: no channel.
            ({"X": [100.0], "Y": [60.0], "Z": [0.0], "E": [0.0]},
             {"X": [100.0], "Y": [60.0], "Z": [500.0], "E": [0.0]},
             (1, 0, 0.0, "")),
            # Every golden window idle: masked out entirely.
            ({"X": [10.0, 0.0], "Y": [0.0, 0.0], "Z": [0.0, 0.0], "E": [49.0, 0.0]},
             {"X": [900.0], "Y": [900.0], "Z": [900.0], "E": [900.0]},
             (1, 0, 0.0, "")),
        ],
    )
    def test_ties_and_masking(self, golden, suspect, expected):
        detector = SideChannelDetector(threshold=0.3, min_activity=50.0)
        report = detector.compare_observed(_matrix(golden), _matrix(suspect))
        assert _report_fields(report) == expected
        assert expected == ref_side_channel_diffs(golden, suspect, 0.3, 50.0)

    @pytest.mark.parametrize("case", range(20))
    def test_compare_on_captures_of_several_lengths(self, case):
        # One detector, suspects longer and shorter than each other: every
        # report equals the loop over freshly drawn observations.
        rng = random.Random(5000 + case)
        model = _model(rng, rng.choice((10.0, 1.0)))
        detector = SideChannelDetector(
            model=model, threshold=rng.choice((0.1, 0.3)), min_activity=20.0
        )
        golden = _capture(rng, rng.randint(1, 30))
        suspect_model = SideChannelModel(
            model.noise_fraction, model.noise_floor, model.quantization_steps,
            model.repetitions, model.seed + 7,
        )
        for length in (rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 40)):
            suspect = _perturbed(rng, _capture(rng, length))
            report = detector.compare(golden, suspect)
            expected = ref_side_channel_diffs(
                ref_observe(golden, model),
                ref_observe(suspect, suspect_model),
                detector.threshold,
                detector.min_activity,
            )
            assert repr(_report_fields(report)) == repr(expected)

    def test_calibration_reads_the_loop_maximum(self):
        rng = random.Random(6000)
        model = _model(rng, 1.0)
        golden, control = _capture(rng, 25), _capture(rng, 20)
        detector = SideChannelDetector(model=model, min_activity=20.0)
        threshold = detector.calibrate_threshold(golden, control, headroom=1.5)
        control_model = SideChannelModel(
            model.noise_fraction, model.noise_floor, model.quantization_steps,
            model.repetitions, model.seed + 1,
        )
        _, _, worst, _ = ref_side_channel_diffs(
            ref_observe(golden, model), ref_observe(control, control_model),
            0.0, 20.0,
        )
        assert repr(threshold) == repr(worst * 1.5)


# ----------------------------------------------------------------------
# Transaction comparator
# ----------------------------------------------------------------------


class TestCompareMatchesScalarLoop:
    @pytest.mark.parametrize("case", CASES)
    def test_random_captures(self, case):
        rng = random.Random(2000 + case)
        golden = _capture(rng, rng.randint(1, 60))
        suspect = _perturbed(rng, golden)
        # Unequal lengths: trim or extend the suspect.
        if rng.random() < 0.5:
            suspect = suspect[: rng.randint(1, len(suspect))]
        else:
            suspect += _capture(rng, rng.randint(0, 5))
        comparator = CaptureComparator(
            margin=rng.choice((0.0, 0.05, 0.5)), floor_steps=rng.choice((1, 400, 2000))
        )
        report = comparator.compare(golden, suspect)
        assert repr(report) == repr(ref_compare(comparator, golden, suspect))

    def test_single_transaction(self):
        comparator = CaptureComparator()
        golden = [Transaction(1, 10, -20, 0, 400)]
        suspect = [Transaction(1, 500, -20, 1, 0)]
        report = comparator.compare(golden, suspect)
        assert repr(report) == repr(ref_compare(comparator, golden, suspect))
        assert report.mismatch_count == 2

    def test_floor_and_row_major_order(self):
        # Column X hits the floor (|golden| < floor); the rest are relative.
        comparator = CaptureComparator(margin=0.05, floor_steps=400)
        golden = [Transaction(i, 100, 1000, -1000, 5000) for i in range(1, 4)]
        suspect = [Transaction(i, 150, 1100, -1100, 5000) for i in range(1, 4)]
        report = comparator.compare(golden, suspect)
        assert repr(report) == repr(ref_compare(comparator, golden, suspect))
        assert [(m.index, m.column) for m in report.mismatches] == [
            (i, column) for i in range(1, 4) for column in ("X", "Y", "Z")
        ]


# ----------------------------------------------------------------------
# Layer builder
# ----------------------------------------------------------------------


def _trace_samples(rng, count):
    """A head path with retracts, z-hops, layers that interleave and ties.

    Coordinates come from a coarse grid that includes both signs of zero,
    so bounding-box ties between 0.0 and -0.0 occur.
    """
    grid = [0.0, -0.0, 0.5, -1.25, 3.0, 10.1, 7.3]
    zs = [0.2, 0.4, 0.6, 0.01, 0.03, -0.01, 0.2 + 1e-10]
    samples = []
    x = y = e = 0.0
    z = 0.2
    for k in range(count):
        roll = rng.random()
        if roll < 0.1:
            z = rng.choice(zs)  # layer change, z-hop or return to an old layer
        elif roll < 0.2:
            e -= rng.choice((0.8, 0.05))  # retract
        elif roll < 0.8:
            e += rng.choice((0.0, 0.01, 0.1, rng.random()))
        x = rng.choice(grid) if rng.random() < 0.3 else x + rng.uniform(-2, 2)
        y = rng.choice(grid) if rng.random() < 0.3 else y + rng.uniform(-2, 2)
        samples.append(TraceSample(k * 20_000_000, x, y, z, e))
    return samples


class TestLayersMatchScalarLoop:
    @pytest.mark.parametrize("case", CASES)
    def test_random_paths(self, case):
        rng = random.Random(3000 + case)
        samples = _trace_samples(rng, rng.randint(0, 300))
        trace = PartTrace(layer_quantum_mm=rng.choice((0.02, 0.05)))
        for sample in samples:
            trace.add_sample(sample)
        assert trace.samples == samples
        expected = ref_build_layers(samples, trace.layer_quantum_mm)
        assert repr(trace.layers()) == repr(expected)

    def test_layer_on_negative_zero_axis(self):
        # Every moment addend is -0.0 here; a total that starts at 0.0 is +0.0.
        trace = PartTrace()
        samples = [TraceSample(k, -0.0, float(k), 0.2, 0.1 * k) for k in range(4)]
        for sample in samples:
            trace.add_sample(sample)
        expected = ref_build_layers(samples, trace.layer_quantum_mm)
        assert repr(trace.layers()) == repr(expected)
        assert repr(expected[0]._moment_x) == "0.0"
