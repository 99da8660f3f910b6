"""Incomplete data streams and the count-based sliding window model.

Definitions 1 and 2 of the paper: an incomplete data stream ``iDS`` is an
ordered sequence of records arriving one per timestamp; the sliding window
``W_t`` holds the ``w`` most recent records.  When a new record arrives the
oldest one expires.  The paper fixes the count-based model and only
sketches a time-based variant; this package implements the count-based
model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.tuples import Record, Schema


class StreamError(RuntimeError):
    """Raised on invalid stream operations (e.g. exhausted stream)."""


@dataclass
class IncompleteDataStream:
    """An ordered sequence of (possibly incomplete) records (Definition 1).

    The stream is a thin iterator wrapper that stamps arrival timestamps on
    records as they are emitted.  It also keeps simple arrival statistics
    used by the experiment harness (counts of complete vs incomplete
    records).
    """

    name: str
    schema: Schema
    records: Sequence[Record]
    _cursor: int = field(default=0, repr=False)
    emitted: int = field(default=0, repr=False)
    incomplete_emitted: int = field(default=0, repr=False)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        while not self.exhausted:
            yield self.next_record()

    @property
    def exhausted(self) -> bool:
        """True when every record has been emitted."""
        return self._cursor >= len(self.records)

    def next_record(self) -> Record:
        """Emit the next record, stamped with the next arrival timestamp."""
        if self.exhausted:
            raise StreamError(f"stream {self.name!r} is exhausted")
        record = self.records[self._cursor]
        stamped = Record(rid=record.rid, values=dict(record.values),
                         source=self.name, timestamp=self.emitted)
        self._cursor += 1
        self.emitted += 1
        if not stamped.is_complete(self.schema):
            self.incomplete_emitted += 1
        return stamped

    def reset(self) -> None:
        """Rewind the stream to its first record."""
        self._cursor = 0
        self.emitted = 0
        self.incomplete_emitted = 0

    @property
    def missing_rate(self) -> float:
        """Fraction of emitted records that had at least one missing value."""
        if self.emitted == 0:
            return 0.0
        return self.incomplete_emitted / self.emitted


@dataclass
class SlidingWindow:
    """Count-based sliding window ``W_t`` of one stream (Definition 2)."""

    capacity: int
    _items: Deque = field(default_factory=deque, repr=False)
    _by_key: Dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"window capacity must be positive, got {self.capacity}")

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __contains__(self, item: object) -> bool:
        key = getattr(item, "rid", None), getattr(item, "source", None)
        return key in self._by_key

    @property
    def is_full(self) -> bool:
        """True when inserting one more item would evict the oldest."""
        return len(self._items) >= self.capacity

    def leaving(self, rid: str, source: str):
        """The item an insert of ``(rid, source)`` drops (None if none).

        A re-arriving key replaces its earlier entry, so that entry leaves;
        otherwise a full window expires its oldest item.
        """
        earlier = self._by_key.get((rid, source))
        if earlier is not None:
            return earlier
        return self._items[0] if self.is_full else None

    def insert(self, item) -> Optional[object]:
        """Insert a new item and return the one that left, if any
        (see :meth:`leaving`).

        ``item`` can be a :class:`Record` or an imputed record; the window
        only requires ``rid`` / ``source`` attributes for identity.
        """
        left = self.leaving(item.rid, item.source)
        if left is not None:
            del self._by_key[(left.rid, left.source)]
            position = next(index for index, resident
                            in enumerate(self._items) if resident is left)
            del self._items[position]
        self._items.append(item)
        self._by_key[(item.rid, item.source)] = item
        return left

    def get(self, rid: str, source: str):
        """Look up a window item by its record identity (None if absent)."""
        return self._by_key.get((rid, source))

    def items(self) -> List:
        """Snapshot list of the window content, oldest first."""
        return list(self._items)

    def clear(self) -> None:
        """Drop every item from the window."""
        self._items.clear()
        self._by_key.clear()


@dataclass
class StreamSet:
    """A set of ``n`` incomplete data streams processed round-robin.

    The TER-iDS problem takes ``n >= 2`` streams; the engine consumes their
    records in a round-robin interleaving (one record per stream per
    timestamp in the paper's count-based model).
    """

    streams: List[IncompleteDataStream]

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError("StreamSet needs at least one stream")
        schemas = {tuple(stream.schema.attributes) for stream in self.streams}
        if len(schemas) != 1:
            raise ValueError("all streams must share the same schema")

    @property
    def schema(self) -> Schema:
        return self.streams[0].schema

    def __len__(self) -> int:
        return len(self.streams)

    def interleaved(self) -> Iterator[Record]:
        """Round-robin interleaving of all streams until all are exhausted."""
        active = True
        while active:
            active = False
            for stream in self.streams:
                if not stream.exhausted:
                    active = True
                    yield stream.next_record()

    def interleaved_batches(self, batch_size: int) -> Iterator[List[Record]]:
        """Round-robin interleaving chunked into micro-batches.

        Emits the same record sequence as :meth:`interleaved`, grouped into
        lists of ``batch_size`` records (the final batch may be shorter).
        Feeding these batches to ``TERiDSEngine.process_batch`` is equivalent
        to processing the interleaved sequence tuple by tuple.
        """
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        batch: List[Record] = []
        for record in self.interleaved():
            batch.append(record)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    @property
    def exhausted(self) -> bool:
        """True when every member stream has emitted all of its records."""
        return all(stream.exhausted for stream in self.streams)

    def reset(self) -> None:
        """Rewind every stream."""
        for stream in self.streams:
            stream.reset()


def build_stream(name: str, records: Iterable[Record], schema: Schema) -> IncompleteDataStream:
    """Convenience constructor normalising the record source to ``name``."""
    normalised = [
        Record(rid=record.rid, values=dict(record.values), source=name,
               timestamp=record.timestamp)
        for record in records
    ]
    return IncompleteDataStream(name=name, schema=schema, records=normalised)
