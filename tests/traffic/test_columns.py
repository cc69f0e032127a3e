"""Unit tests for the shared-memory column layer.

Covers the encode/decode round trip (``None`` sentinel included), the
descriptor round trip through a real ``multiprocessing.shared_memory``
segment (with the <1 KiB pickled-descriptor bound the parallel engine
relies on), and the leak-sweeping cleanup hooks.
"""

import pickle

import pytest

from repro.traffic.columns import (
    DIGEST_KIND_KSIGMA,
    DIGEST_KIND_PERCENTILE,
    DIGEST_RECORD_STRIDE,
    NONE_SENTINEL,
    AttachedColumn,
    ColumnDescriptor,
    SharedColumnSegment,
    attach_column,
    decode_column,
    decode_digest_records,
    encode_column,
    encode_digest_records,
    live_segment_count,
    release_all_segments,
)

try:
    import numpy as np
except ImportError:
    np = None


class TestEncodeDecode:
    def test_round_trip_with_nones(self):
        values = [0, None, 7, 2**32, None, 511]
        backing = encode_column(values)
        assert decode_column(backing) == values

    def test_none_becomes_sentinel(self):
        backing = encode_column([None, 3])
        assert list(backing)[0] == NONE_SENTINEL

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            encode_column([1, -2, 3])

    def test_empty_column(self):
        backing = encode_column([])
        assert len(backing) == 0
        assert decode_column(backing) == []


class TestDigestRecordCodec:
    """The merge engine's ship-back blob for speculated digest records."""

    def test_mixed_kind_round_trip(self):
        records = [
            (DIGEST_KIND_KSIGMA, 0, 42, 7, 700, 12345, 678, 1000),
            (DIGEST_KIND_PERCENTILE, 3, 17, 16),
            (DIGEST_KIND_KSIGMA, 9, 0, 0, 0, 0, 0, 0),
        ]
        assert decode_digest_records(encode_digest_records(records)) == records

    def test_rows_are_stride_padded(self):
        blob = encode_digest_records([(DIGEST_KIND_PERCENTILE, 1, 2, 3)])
        assert len(blob) == DIGEST_RECORD_STRIDE * 8

    def test_empty_round_trip(self):
        assert decode_digest_records(encode_digest_records([])) == []

    def test_int64_overflow_raises_for_fallback(self):
        # The shipper catches OverflowError and falls back to pickling
        # the raw record list — the codec must signal, not truncate.
        with pytest.raises(OverflowError):
            encode_digest_records([(DIGEST_KIND_KSIGMA, 0, 1 << 64, 0, 0, 0, 0, 0)])

    def test_rejects_overwide_record(self):
        with pytest.raises(ValueError):
            encode_digest_records([tuple(range(DIGEST_RECORD_STRIDE + 1))])


class TestDescriptor:
    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError):
            ColumnDescriptor(segment="s", dtype="f", start=0, length=1)

    def test_rejects_negative_offsets(self):
        with pytest.raises(ValueError):
            ColumnDescriptor(segment="s", dtype="q", start=-1, length=1)

    def test_pickles_under_the_shipping_bound(self):
        # The whole point of the shared-memory fan-out: a task payload is
        # this descriptor, not the column data.
        descriptor = ColumnDescriptor(
            segment="psm_0123abcd", dtype="q", start=123456, length=1 << 20
        )
        assert len(pickle.dumps(descriptor, pickle.HIGHEST_PROTOCOL)) < 1024


class TestSharedColumnSegment:
    def test_pack_attach_round_trip(self):
        values = [4, None, 2**40, 0, None, 17]
        stamps = [0.5, 1.25, 2.0, 2.5, 3.0, 3.125]
        segment = SharedColumnSegment.pack(
            [
                ("values", "q", encode_column(values)),
                ("timestamps", "d", _float_backing(stamps)),
            ]
        )
        try:
            wire = pickle.dumps(
                segment.descriptors["values"], pickle.HIGHEST_PROTOCOL
            )
            with attach_column(pickle.loads(wire)) as column:
                assert decode_column(column.values[1:5]) == [None, 2**40, 0, None]
            with attach_column(segment.descriptors["timestamps"]) as column:
                assert [float(v) for v in column.values] == stamps
        finally:
            segment.release()

    def test_release_is_idempotent_and_deregisters(self):
        before = live_segment_count()
        segment = SharedColumnSegment.pack([("v", "q", encode_column([1, 2]))])
        assert live_segment_count() == before + 1
        segment.release()
        segment.release()
        assert live_segment_count() == before
        with pytest.raises(FileNotFoundError):
            AttachedColumn(segment.descriptors["v"])

    def test_empty_columns_pack(self):
        segment = SharedColumnSegment.pack([("v", "q", encode_column([]))])
        try:
            with attach_column(segment.descriptors["v"]) as column:
                assert len(column.values) == 0
        finally:
            segment.release()


class TestCleanup:
    def test_release_all_segments_sweeps_leaks(self):
        leaked = [
            SharedColumnSegment.pack([("v", "q", encode_column([i]))])
            for i in range(3)
        ]
        assert live_segment_count() >= 3
        assert release_all_segments() >= 3
        assert live_segment_count() == 0
        for segment in leaked:
            with pytest.raises(FileNotFoundError):
                AttachedColumn(segment.descriptors["v"])

    def test_shutdown_pools_sweeps_segments(self):
        from repro.stat4.parallel import shutdown_pools

        SharedColumnSegment.pack([("v", "q", encode_column([1, 2, 3]))])
        assert live_segment_count() >= 1
        shutdown_pools()
        assert live_segment_count() == 0


def _float_backing(values):
    if np is not None:
        return np.asarray(values, dtype=np.float64)
    import array

    return array.array("d", values)
