"""Guard tests: digest emission order survives chunked/parallel ingest.

``_DigestSink.in_scalar_order`` promises packet-major, stage-minor order
within one batch, and — because one sink serves exactly one batch and
chunks are processed strictly in time order — concatenating its output
over consecutive chunks of a trace must reproduce the scalar loop's digest
sequence exactly.  These tests pin both halves of that promise; see the
``in_scalar_order`` docstring in ``repro/stat4/batch.py``.
"""

import pytest

from repro.p4.switch import Digest
from repro.stat4 import PacketBatch, ParallelBatchEngine, split_batch
from repro.stat4.batch import _DigestSink
from tests.numpy_paths import NUMPY_MODES, numpy_mode
from tests.stat4.test_batch_differential import (
    SCENARIOS,
    generate_trace,
    process_scalar,
)


class TestSinkOrdering:
    def test_sorts_packet_major_stage_minor(self):
        sink = _DigestSink()
        for pkt, stage in [(3, 0), (1, 1), (1, 0), (0, 2), (3, 1)]:
            sink.set(pkt, stage, now=float(pkt))
            sink.emit_digest(f"d{pkt}_{stage}")
        names = [d.name for d in sink.in_scalar_order()]
        assert names == ["d0_2", "d1_0", "d1_1", "d3_0", "d3_1"]

    def test_stable_within_one_update(self):
        # Two digests from the same (packet, stage) keep emission order.
        sink = _DigestSink()
        sink.set(5, 0, now=0.0)
        sink.emit_digest("first")
        sink.emit_digest("second")
        assert [d.name for d in sink.in_scalar_order()] == ["first", "second"]

    def test_records_carry_timestamp(self):
        sink = _DigestSink()
        sink.set(0, 0, now=1.25)
        sink.emit_digest("stamped", index=7)
        (digest,) = sink.in_scalar_order()
        assert isinstance(digest, Digest)
        assert digest.timestamp == 1.25
        assert digest.fields == {"index": 7}


@pytest.mark.parametrize("mode", NUMPY_MODES)
@pytest.mark.parametrize(
    "scenario_name", ["frequency_tracked", "time_series", "sparse_frequency"]
)
def test_digest_sequence_identical_across_chunk_boundaries(
    scenario_name, mode
):
    # Alert-heavy scenarios; chunk size chosen to land boundaries mid-burst
    # so digests from one incident straddle chunks.
    contexts = generate_trace(29, packets=4_000)
    scalar = SCENARIOS[scenario_name]()
    scalar_digests = process_scalar(scalar, contexts)
    assert scalar_digests, "scenario emitted no digests; test proves nothing"
    chunked = SCENARIOS[scenario_name]()
    engine = ParallelBatchEngine(chunked, workers=4, min_chunk=64)
    chunked_digests = []
    with numpy_mode(mode):
        for chunk in split_batch(PacketBatch.from_contexts(contexts), 613):
            chunked_digests.extend(engine.process(chunk).digests)
    assert [
        (d.name, d.fields, d.timestamp) for d in chunked_digests
    ] == [(d.name, d.fields, d.timestamp) for d in scalar_digests]
