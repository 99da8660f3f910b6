"""Unit tests for incomplete data streams and sliding windows (Defs 1-2)."""

import pytest

from repro.core.stream import (
    IncompleteDataStream,
    SlidingWindow,
    StreamError,
    StreamSet,
    build_stream,
)
from repro.core.tuples import Record, Schema

SCHEMA = Schema(attributes=("x", "y"))


def _records(count, missing_every=None, source="s"):
    out = []
    for index in range(count):
        y = None if missing_every and index % missing_every == 0 else f"y{index}"
        out.append(Record(rid=f"r{index}", values={"x": f"x{index}", "y": y},
                          source=source))
    return out


class TestIncompleteDataStream:
    def test_emission_order_and_timestamps(self):
        stream = build_stream("s1", _records(3), SCHEMA)
        emitted = [stream.next_record() for _ in range(3)]
        assert [record.rid for record in emitted] == ["r0", "r1", "r2"]
        assert [record.timestamp for record in emitted] == [0, 1, 2]
        assert all(record.source == "s1" for record in emitted)

    def test_exhaustion(self):
        stream = build_stream("s1", _records(2), SCHEMA)
        stream.next_record()
        stream.next_record()
        assert stream.exhausted
        with pytest.raises(StreamError):
            stream.next_record()

    def test_peek_does_not_consume(self):
        stream = build_stream("s1", _records(2), SCHEMA)
        assert stream.peek().rid == "r0"
        assert stream.peek().rid == "r0"
        assert stream.remaining == 2

    def test_peek_on_exhausted_stream(self):
        stream = build_stream("s1", _records(1), SCHEMA)
        stream.next_record()
        assert stream.peek() is None

    def test_iteration(self):
        stream = build_stream("s1", _records(4), SCHEMA)
        assert len(list(stream)) == 4
        assert stream.exhausted

    def test_missing_rate_tracking(self):
        stream = build_stream("s1", _records(4, missing_every=2), SCHEMA)
        list(stream)
        assert stream.missing_rate == pytest.approx(0.5)

    def test_missing_rate_before_emission(self):
        stream = build_stream("s1", _records(4), SCHEMA)
        assert stream.missing_rate == 0.0

    def test_reset(self):
        stream = build_stream("s1", _records(3), SCHEMA)
        list(stream)
        stream.reset()
        assert not stream.exhausted
        assert stream.next_record().timestamp == 0


class TestSlidingWindow:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(capacity=0)

    def test_insert_until_full_returns_no_eviction(self):
        window = SlidingWindow(capacity=2)
        records = _records(2)
        assert window.insert(records[0]) is None
        assert window.insert(records[1]) is None
        assert len(window) == 2
        assert window.is_full

    def test_eviction_order_is_fifo(self):
        window = SlidingWindow(capacity=2)
        records = _records(3)
        window.insert(records[0])
        window.insert(records[1])
        evicted = window.insert(records[2])
        assert evicted.rid == "r0"
        assert [item.rid for item in window.items()] == ["r1", "r2"]

    def test_membership_and_lookup(self):
        window = SlidingWindow(capacity=3)
        records = _records(2)
        window.insert(records[0])
        assert records[0] in window
        assert records[1] not in window
        assert window.get("r0", "s").rid == "r0"
        assert window.get("missing", "s") is None

    def test_evicted_item_not_in_lookup(self):
        window = SlidingWindow(capacity=1)
        records = _records(2)
        window.insert(records[0])
        window.insert(records[1])
        assert window.get("r0", "s") is None
        assert window.get("r1", "s") is not None

    def test_rearrival_replaces_the_earlier_entry(self):
        window = SlidingWindow(capacity=3)
        first, other = _records(2)
        again = Record(rid="r0", values={"x": "new", "y": None}, source="s")
        newest = Record(rid="r9", values={"x": "x9", "y": "y9"}, source="s")
        window.insert(first)
        window.insert(other)
        assert window.leaving("r0", "s") is first
        assert window.insert(again) is first
        assert [item.rid for item in window] == ["r1", "r0"]
        assert window.get("r0", "s") is again
        # The replacement freed a slot: nothing expires on the next insert.
        assert window.leaving("r9", "s") is None
        assert window.insert(newest) is None
        assert window.leaving("r5", "s") is other
        assert window.insert(_records(6)[5]) is other
        assert [item.rid for item in window] == ["r0", "r9", "r5"]
        assert window.get("r0", "s") is again

    def test_clear(self):
        window = SlidingWindow(capacity=2)
        window.insert(_records(1)[0])
        window.clear()
        assert len(window) == 0
        assert not window.is_full


class TestStreamSet:
    def test_requires_at_least_one_stream(self):
        with pytest.raises(ValueError):
            StreamSet(streams=[])

    def test_requires_homogeneous_schema(self):
        stream_a = build_stream("a", _records(1), SCHEMA)
        other_schema = Schema(attributes=("x", "z"))
        stream_b = IncompleteDataStream(name="b", schema=other_schema, records=[])
        with pytest.raises(ValueError):
            StreamSet(streams=[stream_a, stream_b])

    def test_round_robin_interleaving(self):
        stream_a = build_stream("a", _records(2, source="a"), SCHEMA)
        stream_b = build_stream("b", _records(3, source="b"), SCHEMA)
        streams = StreamSet(streams=[stream_a, stream_b])
        order = [(record.source, record.rid) for record in streams.interleaved()]
        assert order == [("a", "r0"), ("b", "r0"), ("a", "r1"), ("b", "r1"),
                         ("b", "r2")]

    def test_total_records_and_names(self):
        stream_a = build_stream("a", _records(2), SCHEMA)
        stream_b = build_stream("b", _records(3), SCHEMA)
        streams = StreamSet(streams=[stream_a, stream_b])
        assert streams.total_records() == 5
        assert streams.names == ["a", "b"]
        assert len(streams) == 2
        assert streams.schema == SCHEMA

    def test_reset_rewinds_all(self):
        stream_a = build_stream("a", _records(2), SCHEMA)
        stream_b = build_stream("b", _records(2), SCHEMA)
        streams = StreamSet(streams=[stream_a, stream_b])
        list(streams.interleaved())
        streams.reset()
        assert not stream_a.exhausted
        assert not stream_b.exhausted
