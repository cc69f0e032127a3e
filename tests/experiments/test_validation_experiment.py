"""Tests for the Figure-5 validation experiment and its batched twin."""

import pytest

from repro.experiments.validation import run_validation, run_validation_batched
from repro.stat4.batch import BatchEngine


class TestValidation:
    def test_switch_equals_host_small_run(self):
        result = run_validation(packets=300, seed=0)
        assert result.replies == 300
        assert result.mismatches == 0
        assert result.passed

    def test_different_seed_still_exact(self):
        result = run_validation(packets=300, seed=99)
        assert result.mismatches == 0

    def test_sd_consistent_with_section2(self):
        result = run_validation(packets=500, seed=3)
        # The approximate sigma stays inside the interpolation envelope
        # (~6.2% plus one integer quantum, already subtracted).
        assert result.max_sd_relative_error < 0.07

    def test_every_request_answered(self):
        result = run_validation(packets=100, seed=1)
        assert result.replies == result.packets_sent


def _bump_tracker_moves(stat4):
    stat4.state_of(0).tracker.moves += 1


def _bump_values_dropped(stat4):
    stat4.state_of(0).values_dropped += 1


def _bump_updates(stat4):
    stat4.state_of(0).stats.updates += 1


def _bump_table_hits(stat4):
    stat4.binding_tables[0].hits += 1


class TestBatchedValidation:
    def test_clean_run_passes(self):
        result = run_validation_batched(packets=600, batch_size=200)
        assert result.batches == 3
        assert result.mismatches == []
        assert result.passed

    @pytest.mark.parametrize(
        "corrupt, name",
        [
            (_bump_tracker_moves, "slot 0 tracker moves"),
            (_bump_values_dropped, "slot 0 values_dropped"),
            (_bump_updates, "slot 0 updates"),
            (_bump_table_hits, "table stat4_binding_0 hits"),
        ],
    )
    def test_corrupted_state_is_a_named_mismatch(self, monkeypatch, corrupt, name):
        # The batched side corrupts one piece of working state after every
        # batch; the registers stay right, so only the state check sees it.
        process = BatchEngine.process

        def corrupting(engine, batch):
            result = process(engine, batch)
            corrupt(engine.stat4)
            return result

        monkeypatch.setattr(BatchEngine, "process", corrupting)
        result = run_validation_batched(packets=600, batch_size=200)
        assert result.mismatches == [f"{name} differs"]
        assert not result.passed
