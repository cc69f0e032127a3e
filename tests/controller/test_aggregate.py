"""Tests for cross-switch aggregation and the multiswitch experiment."""

import pytest

from repro.controller.aggregate import (
    merge_cells,
    merge_measures,
    merge_sparse_items,
    percentile_of_cells,
    stats_from_cells,
    stats_from_items,
)
from repro.core.percentile import true_percentile_of_freqs
from repro.core.stats import ScaledStats
from repro.experiments.multiswitch import run_multiswitch


def moments(stats):
    """N, Xsum, Xsumsq and the σ²_NX and σ_NX derived from them."""
    return stats.count, stats.xsum, stats.xsumsq, stats.variance_nx, stats.stddev_nx


class TestMergeMeasures:
    def test_merge_equals_union(self):
        left = ScaledStats()
        right = ScaledStats()
        union = ScaledStats()
        for v in [3, 5, 8]:
            left.add_value(v)
            union.add_value(v)
        for v in [2, 9]:
            right.add_value(v)
            union.add_value(v)
        merged = left.merged_with(right)
        assert merged.count == union.count
        assert merged.xsum == union.xsum
        assert merged.xsumsq == union.xsumsq
        assert merged.variance_nx == union.variance_nx

    def test_merge_from_register_dumps(self):
        dumps = [
            {"n": 3, "xsum": 16, "xsumsq": 98},
            {"n": 2, "xsum": 11, "xsumsq": 85},
        ]
        merged = merge_measures(dumps)
        assert merged.count == 5
        assert merged.xsum == 27
        assert merged.xsumsq == 183

    def test_merge_with_empty_is_identity(self):
        stats = ScaledStats()
        for v in [1, 2, 3]:
            stats.add_value(v)
        merged = stats.merged_with(ScaledStats())
        assert moments(merged) == moments(stats)

    def test_from_measures_round_trip(self):
        stats = ScaledStats()
        for v in [4, 4, 9]:
            stats.add_value(v)
        rebuilt = ScaledStats.from_measures(
            stats.count, stats.xsum, stats.xsumsq
        )
        assert rebuilt.variance_nx == stats.variance_nx
        assert rebuilt.stddev_nx == stats.stddev_nx


class TestMergeCells:
    def test_sums_per_cell(self):
        assert merge_cells([[1, 0, 2], [0, 3, 4]]) == [1, 3, 6]

    def test_empty_input(self):
        assert merge_cells([]) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_cells([[1, 2], [1, 2, 3]])

    def test_stats_from_cells_matches_observe_frequency(self):
        # Build the same distribution through the per-increment identity.
        counts = {}
        reference = ScaledStats()
        for value in [3, 3, 7, 1, 3, 7]:
            counts[value] = reference.observe_frequency(counts.get(value, 0))
        cells = [0] * 10
        for value, count in counts.items():
            cells[value] = count
        rebuilt = stats_from_cells(cells)
        assert moments(rebuilt) == moments(reference)

    def test_moment_sum_wrong_for_shared_values_cells_right(self):
        # The same value counted on two switches: naive moment summation
        # double-counts N and drops the (c_a + c_b)² cross terms; the
        # cells-then-recompute route is exact.
        shard_a = [2, 0]
        shard_b = [3, 0]
        oracle = stats_from_cells([5, 0])
        naive = merge_measures(
            [
                {"n": 1, "xsum": 2, "xsumsq": 4},
                {"n": 1, "xsum": 3, "xsumsq": 9},
            ]
        )
        exact = stats_from_cells(merge_cells([shard_a, shard_b]))
        assert moments(exact) == moments(oracle)
        assert naive.count != oracle.count
        assert naive.xsumsq != oracle.xsumsq

    def test_percentile_of_cells(self):
        cells = [0, 4, 0, 2, 2]
        assert percentile_of_cells(cells, 50) == true_percentile_of_freqs(cells, 50)
        assert percentile_of_cells([0, 0], 50) is None


class TestMergeSparseItems:
    def test_sums_per_key_sorted(self):
        merged = merge_sparse_items([[(9, 2), (4, 1)], [(4, 3), (1, 5)]])
        assert merged == [(1, 5), (4, 4), (9, 2)]

    def test_stats_from_items(self):
        stats = stats_from_items([(1, 5), (4, 4), (9, 2)])
        assert (stats.count, stats.xsum, stats.xsumsq) == (3, 11, 45)


class TestMultiSwitchExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_multiswitch(packets_per_destination=150)

    def test_merge_is_exact(self, result):
        assert result.merge_exact, result.merge_errors

    def test_globally_flagged(self, result):
        flagged = {index for index, _ in result.global_outliers}
        assert result.victim_index in flagged

    def test_merged_counts_are_sums(self, result):
        for index in range(len(result.merged_counts)):
            total = sum(
                cells[index] for cells in result.per_switch_counts.values()
            )
            assert result.merged_counts[index] == total

    def test_merged_equals_oracle(self, result):
        assert result.merged_counts == result.oracle_counts

    def test_global_verdicts_match_oracle(self, result):
        assert result.global_outliers == result.oracle_outliers

    def test_no_single_switch_holds_the_distribution(self, result):
        # Sharding is real: every shard misses destinations others own.
        merged_nonzero = sum(1 for count in result.merged_counts if count)
        for cells in result.per_switch_counts.values():
            assert sum(1 for count in cells if count) < merged_nonzero

    def test_headline_property(self, result):
        assert result.detected
