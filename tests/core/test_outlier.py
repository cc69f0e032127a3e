"""The paper's anomaly rules as ``ScaledStats`` runs them.

The k·σ rule is ``ScaledStats.is_outlier`` and the mean-target rule is
``ScaledStats.mean_exceeds``; the generated per-packet check mirrors both.
"""

from repro.core.stats import ScaledStats


def stats_of(values):
    stats = ScaledStats()
    for v in values:
        stats.add_value(v)
    return stats


def first_firing_sample(stats, k_sigma):
    return next(x for x in range(10**4) if stats.is_outlier(x, k_sigma=k_sigma))


class TestKSigmaRule:
    def test_fires_on_spike(self):
        stats = stats_of([100, 102, 98, 101, 99, 100, 103, 97])
        assert stats.is_outlier(200, k_sigma=2)

    def test_silent_on_normal_sample(self):
        stats = stats_of([100, 102, 98, 101, 99, 100, 103, 97])
        assert not stats.is_outlier(101, k_sigma=2)

    def test_threshold_grows_with_k(self):
        stats = stats_of([10, 30, 10, 30, 10, 30])
        thresholds = [first_firing_sample(stats, k) for k in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


class TestMeanTargetRule:
    def test_detects_mean_drift(self):
        stats = stats_of([10, 12, 14])  # mean 12
        assert stats.mean_exceeds(11)
        assert not stats.mean_exceeds(12)
