"""Tests for the Figure-5 validation experiment and its batched twin."""

import pytest

from repro.apps.echo import build_echo_app
from repro.experiments.validation import run_validation, run_validation_batched
from repro.p4.parser import standard_parser
from repro.stat4.batch import BatchEngine, PacketBatch
from repro.stat4.library import SNAPSHOT_EXCLUDED
from repro.traffic.builders import echo_frame


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


#: The echo detector's objects whose fields the walk corrupts, by their
#: path in the snapshot.
OWNERS = {
    "": lambda stat4: stat4,
    "tables.stat4_binding_0": lambda stat4: stat4.binding_tables[0],
    "slots.0": lambda stat4: stat4.state_of(0),
    "slots.0.stats": lambda stat4: stat4.state_of(0).stats,
    "slots.0.tracker": lambda stat4: stat4.state_of(0).tracker,
}


def walked_fields():
    """The packet, alert and binding-table counters, and every int or
    bool attribute of the echo app's bound slot, its ``stats`` and its
    ``tracker`` bar the named exclusions, by snapshot path."""
    probe = build_echo_app().stat4
    probe.process_batch(PacketBatch.from_packets([echo_frame(1)], standard_parser()))
    return ["packets_seen", "alerts_emitted", "tables.stat4_binding_0.hits"] + [
        f"{owner}.{name}"
        for owner in ("slots.0", "slots.0.stats", "slots.0.tracker")
        for name, value in vars(OWNERS[owner](probe)).items()
        if isinstance(value, int) and name not in SNAPSHOT_EXCLUDED
    ]


class TestBatchedValidation:
    def test_clean_run_passes(self):
        result = run_validation_batched(packets=600, batch_size=200)
        assert result.batches == 3
        assert result.mismatches == []
        assert result.passed

    @pytest.mark.parametrize("path", walked_fields())
    def test_corrupted_state_is_a_named_mismatch(self, monkeypatch, path):
        # The batched side corrupts one field once, after its last batch,
        # so the corruption cannot spread to another field.
        process = BatchEngine.process
        owner, _, name = path.rpartition(".")

        def corrupting(engine, batch):
            result = process(engine, batch)
            if engine.stat4.packets_seen == 600:
                target = OWNERS[owner](engine.stat4)
                value = getattr(target, name)
                setattr(target, name, not value if isinstance(value, bool) else value + 1)
            return result

        monkeypatch.setattr(BatchEngine, "process", corrupting)
        result = run_validation_batched(packets=600, batch_size=200)
        assert result.mismatches == [f"{path} differs"]
        assert not result.passed
