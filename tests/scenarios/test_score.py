"""Scoring-harness unit tests on hand-labeled digest streams.

The micro-scenario here is small enough to score by hand: three intervals
of one second each, one attack window at interval [1, 2).  Every metric the
leaderboard reports (precision, recall, F1, latency, victim attribution) is
checked against the hand computation.
"""

import pytest

from repro.p4.switch import Digest
from repro.scenarios import AttackWindow, ScenarioTruth, score_digests


def micro_truth(victims=()):
    return ScenarioTruth(
        interval=1.0,
        intervals=3,
        windows=(
            AttackWindow(start=1, end=2, kinds=("spike",), victim_keys=victims),
        ),
        alert_kinds=("spike",),
    )


def spike(timestamp, **fields):
    return Digest(name="spike", fields=fields, timestamp=timestamp)


class TestMicroScenario:
    def test_hand_computed_f1(self):
        # One false positive at interval 0, one true positive at interval 1:
        # precision 1/2, recall 1/1, F1 = 2·(0.5·1)/(0.5+1) = 2/3.
        digests = [spike(0.5), spike(1.5)]
        score = score_digests(micro_truth(), digests)
        assert score.predicted_intervals == 2
        assert score.true_positive_intervals == 1
        assert score.false_positive_intervals == 1
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(1.0)
        assert score.f1 == pytest.approx(2.0 / 3.0)
        assert score.latency_intervals == pytest.approx(0.0)

    def test_unlisted_digest_kinds_are_ignored(self):
        # Forwarding chatter and other digest streams never count for or
        # against the detector.
        digests = [Digest(name="forward", fields={}, timestamp=0.5), spike(1.5)]
        score = score_digests(micro_truth(), digests)
        assert score.alerts == 1
        assert score.precision == 1.0
        assert score.f1 == 1.0

    def test_silent_detector_has_vacuous_precision_zero_recall(self):
        score = score_digests(micro_truth(), [])
        assert score.precision == 1.0
        assert score.recall == 0.0
        assert score.f1 == 0.0
        assert score.latency_intervals is None
        assert score.detected_windows == 0

    def test_duplicate_alerts_in_one_interval_count_once(self):
        digests = [spike(1.1), spike(1.5), spike(1.9)]
        score = score_digests(micro_truth(), digests)
        assert score.alerts == 3
        assert score.predicted_intervals == 1
        assert score.precision == 1.0

    def test_out_of_range_digests_are_clipped(self):
        digests = [spike(1.5), spike(99.0), spike(-1.0)]
        score = score_digests(micro_truth(), digests)
        assert score.alerts == 1
        assert score.f1 == 1.0

    def test_latency_counts_intervals_from_window_start(self):
        truth = ScenarioTruth(
            interval=1.0,
            intervals=10,
            windows=(AttackWindow(start=2, end=8, kinds=("spike",)),),
            alert_kinds=("spike",),
        )
        score = score_digests(truth, [spike(5.5)])
        assert score.latency_intervals == pytest.approx(3.0)
        assert score.recall == 1.0

    def test_latency_averages_over_windows(self):
        truth = ScenarioTruth(
            interval=1.0,
            intervals=10,
            windows=(
                AttackWindow(start=1, end=3, kinds=("spike",)),
                AttackWindow(start=6, end=9, kinds=("spike",)),
            ),
            alert_kinds=("spike",),
        )
        # First window detected immediately (latency 0), second two
        # intervals late (latency 2) — mean 1.0.
        score = score_digests(truth, [spike(1.5), spike(8.5)])
        assert score.latency_intervals == pytest.approx(1.0)


class TestVictimAttribution:
    def test_victim_identified_from_digest_index(self):
        score = score_digests(micro_truth(victims=(42,)), [spike(1.5, index=42)])
        assert score.victim_identified is True

    def test_wrong_key_is_not_attribution(self):
        score = score_digests(micro_truth(victims=(42,)), [spike(1.5, index=7)])
        assert score.victim_identified is False

    def test_right_key_outside_window_does_not_count(self):
        score = score_digests(micro_truth(victims=(42,)), [spike(0.5, index=42)])
        assert score.victim_identified is False

    def test_untargeted_scenario_reports_none(self):
        score = score_digests(micro_truth(), [spike(1.5)])
        assert score.victim_identified is None


class TestRowContract:
    def test_as_row_rounds_and_serializes(self):
        score = score_digests(
            micro_truth(), [spike(0.5), spike(1.5)], scenario="micro"
        )
        row = score.as_row()
        assert row["scenario"] == "micro"
        assert row["f1"] == round(2.0 / 3.0, 6)
        assert row["latency_intervals"] == 0.0
        assert row["victim_identified"] is None
