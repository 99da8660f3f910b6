"""Aggregate R-tree (aR-tree) substrate [Lazaridis & Mehrotra, SIGMOD 2001].

Both imputation indexes of the paper (the per-attribute CDD-index and the
DR-index over the repository) are built on aR-trees: ordinary R-trees whose
nodes additionally carry *aggregates* summarising the entries below them
(keyword bit-vectors, distance intervals, token-size intervals, ...).

This module provides a small, dependency-free aR-tree over axis-aligned
rectangles in ``[0, 1]^d`` with:

* insertion (least-enlargement subtree choice, mid-point splits);
* a ``bulk_load`` fast path that packs a sorted-tile tree bottom-up for
  cold builds instead of paying per-entry insertion splits;
* user-defined aggregates through an :class:`Aggregator` (a pair of
  ``from_payload`` / ``merge`` callables);
* range search and a generic guided traversal with per-node pruning, which
  is what the index join of Section 5.3 needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle (a point is a degenerate rectangle)."""

    mins: Tuple[float, ...]
    maxs: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.mins) != len(self.maxs):
            raise ValueError("mins and maxs must have the same dimensionality")
        for low, high in zip(self.mins, self.maxs):
            if low > high + 1e-12:
                raise ValueError(f"invalid rectangle bounds {low} > {high}")

    @property
    def dimensions(self) -> int:
        return len(self.mins)

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        coords = tuple(float(value) for value in point)
        return cls(mins=coords, maxs=coords)

    @classmethod
    def from_intervals(cls, intervals: Sequence[Tuple[float, float]]) -> "Rect":
        return cls(mins=tuple(float(low) for low, _ in intervals),
                   maxs=tuple(float(high) for _, high in intervals))

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle enclosing both rectangles."""
        return Rect(
            mins=tuple(min(a, b) for a, b in zip(self.mins, other.mins)),
            maxs=tuple(max(a, b) for a, b in zip(self.maxs, other.maxs)),
        )

    def intersects(self, other: "Rect") -> bool:
        """True when the rectangles overlap (boundaries included)."""
        return all(low <= other_high + 1e-12 and other_low <= high + 1e-12
                   for low, high, other_low, other_high
                   in zip(self.mins, self.maxs, other.mins, other.maxs))

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when the point lies inside the rectangle (inclusive)."""
        return all(low - 1e-12 <= value <= high + 1e-12
                   for low, high, value in zip(self.mins, self.maxs, point))

    def margin(self) -> float:
        """Sum of side lengths (used as a tie-breaker during splits)."""
        return sum(high - low for low, high in zip(self.mins, self.maxs))

    def area(self) -> float:
        """Product of side lengths (enlargement metric)."""
        area = 1.0
        for low, high in zip(self.mins, self.maxs):
            area *= max(0.0, high - low)
        return area

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to absorb ``other``."""
        return self.union(other).area() - self.area()

    def min_distance_to(self, other: "Rect") -> float:
        """Sum over dimensions of the minimum per-dimension gap.

        This is the L1 lower bound used when pruning grid cells / tree nodes
        with the pivot-based similarity bound (Lemma 4.2 aggregated over
        attributes).
        """
        total = 0.0
        for low, high, other_low, other_high in zip(self.mins, self.maxs,
                                                    other.mins, other.maxs):
            if low > other_high:
                total += low - other_high
            elif other_low > high:
                total += other_low - high
        return total

    def center(self) -> Tuple[float, ...]:
        return tuple((low + high) / 2.0 for low, high in zip(self.mins, self.maxs))


@dataclass
class Aggregator:
    """User-defined aggregate semantics for an aR-tree.

    ``from_payload(rect, payload)`` builds the aggregate of a single leaf
    entry; ``merge(left, right)`` combines two aggregates.  ``None``
    aggregates are tolerated (they merge to the other side).
    """

    from_payload: Callable[[Rect, Any], Any]
    merge: Callable[[Any, Any], Any]

    def combine(self, aggregates: Iterable[Any]) -> Any:
        result = None
        for aggregate in aggregates:
            if aggregate is None:
                continue
            result = aggregate if result is None else self.merge(result, aggregate)
        return result


def _null_aggregator() -> Aggregator:
    return Aggregator(from_payload=lambda rect, payload: None,
                      merge=lambda left, right: None)


@dataclass
class ARTreeEntry:
    """A leaf entry: rectangle, payload object and its aggregate."""

    rect: Rect
    payload: Any
    aggregate: Any = None


@dataclass
class _Node:
    """Internal tree node (leaf or branch)."""

    is_leaf: bool
    rect: Optional[Rect] = None
    aggregate: Any = None
    entries: List[ARTreeEntry] = field(default_factory=list)
    children: List["_Node"] = field(default_factory=list)

    def recompute(self, aggregator: Aggregator) -> None:
        """Refresh the node MBR and aggregate from its members."""
        members: List[Tuple[Rect, Any]]
        if self.is_leaf:
            members = [(entry.rect, entry.aggregate) for entry in self.entries]
        else:
            members = [(child.rect, child.aggregate) for child in self.children
                       if child.rect is not None]
        if not members:
            self.rect = None
            self.aggregate = None
            return
        rect = members[0][0]
        for other, _ in members[1:]:
            rect = rect.union(other)
        self.rect = rect
        self.aggregate = aggregator.combine(aggregate for _, aggregate in members)


class ARTree:
    """A minimal aggregate R-tree.

    Parameters
    ----------
    dimensions:
        Dimensionality of the indexed rectangles.
    max_entries:
        Node fan-out before a split.
    aggregator:
        Aggregate semantics; defaults to "no aggregates".
    """

    def __init__(self, dimensions: int, max_entries: int = 8,
                 aggregator: Optional[Aggregator] = None) -> None:
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        self.dimensions = dimensions
        self.max_entries = max_entries
        self.aggregator = aggregator or _null_aggregator()
        self._root = _Node(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def root_rect(self) -> Optional[Rect]:
        return self._root.rect

    @property
    def root_aggregate(self) -> Any:
        return self._root.aggregate

    # -- insertion -----------------------------------------------------------
    def insert(self, rect: Rect, payload: Any) -> None:
        """Insert one rectangle with its payload."""
        if rect.dimensions != self.dimensions:
            raise ValueError(
                f"rect has {rect.dimensions} dims, tree expects {self.dimensions}")
        aggregate = self.aggregator.from_payload(rect, payload)
        entry = ARTreeEntry(rect=rect, payload=payload, aggregate=aggregate)
        self._insert_entry(self._root, entry, path=[])
        self._size += 1

    def insert_point(self, point: Sequence[float], payload: Any) -> None:
        """Insert a point payload (degenerate rectangle)."""
        self.insert(Rect.from_point(point), payload)

    def _choose_child(self, node: _Node, rect: Rect) -> _Node:
        best = None
        best_key = None
        for child in node.children:
            child_rect = child.rect if child.rect is not None else rect
            key = (child_rect.enlargement(rect), child_rect.area())
            if best_key is None or key < best_key:
                best_key = key
                best = child
        assert best is not None
        return best

    def _insert_entry(self, node: _Node, entry: ARTreeEntry,
                      path: List[_Node]) -> None:
        path.append(node)
        if node.is_leaf:
            node.entries.append(entry)
        else:
            child = self._choose_child(node, entry.rect)
            self._insert_entry(child, entry, path)
        if node.is_leaf and len(node.entries) > self.max_entries:
            self._split_leaf(node, path)
        elif not node.is_leaf and len(node.children) > self.max_entries:
            self._split_branch(node, path)
        node.recompute(self.aggregator)

    def _widest_dimension(self, rects: Sequence[Rect]) -> int:
        spans = []
        for dim in range(self.dimensions):
            lows = [rect.mins[dim] for rect in rects]
            highs = [rect.maxs[dim] for rect in rects]
            spans.append(max(highs) - min(lows))
        return max(range(self.dimensions), key=lambda dim: spans[dim])

    def _split_leaf(self, node: _Node, path: List[_Node]) -> None:
        dim = self._widest_dimension([entry.rect for entry in node.entries])
        node.entries.sort(key=lambda entry: entry.rect.center()[dim])
        half = len(node.entries) // 2
        sibling = _Node(is_leaf=True, entries=node.entries[half:])
        node.entries = node.entries[:half]
        sibling.recompute(self.aggregator)
        node.recompute(self.aggregator)
        self._attach_sibling(node, sibling, path)

    def _split_branch(self, node: _Node, path: List[_Node]) -> None:
        dim = self._widest_dimension([child.rect for child in node.children
                                      if child.rect is not None])
        node.children.sort(key=lambda child: child.rect.center()[dim]
                           if child.rect is not None else 0.0)
        half = len(node.children) // 2
        sibling = _Node(is_leaf=False, children=node.children[half:])
        node.children = node.children[:half]
        sibling.recompute(self.aggregator)
        node.recompute(self.aggregator)
        self._attach_sibling(node, sibling, path)

    def _attach_sibling(self, node: _Node, sibling: _Node,
                        path: List[_Node]) -> None:
        if node is self._root:
            new_root = _Node(is_leaf=False, children=[node, sibling])
            new_root.recompute(self.aggregator)
            self._root = new_root
            return
        # Identity scan: _Node is a dataclass, so list.index would compare
        # whole subtrees by value.
        position = next(index for index, candidate in enumerate(path)
                        if candidate is node)
        parent = path[position - 1]
        parent.children.append(sibling)

    # -- bulk loading ------------------------------------------------------------
    def bulk_load(self, items: Iterable[Tuple[Rect, Any]]) -> None:
        """Pack the tree bottom-up from scratch (sort-tile recursive).

        Much faster than repeated :meth:`insert` for cold builds: entries
        are sorted once per level along the widest dimension and chunked
        into full nodes, so no splits or re-sorts happen.  With at most
        ``max_entries`` items the resulting single leaf preserves the input
        order exactly, matching what sequential insertion would build.  The
        tree must be empty.
        """
        if self._size:
            raise ValueError("bulk_load requires an empty tree")
        entries: List[ARTreeEntry] = []
        for rect, payload in items:
            if rect.dimensions != self.dimensions:
                raise ValueError(
                    f"rect has {rect.dimensions} dims, tree expects {self.dimensions}")
            entries.append(ARTreeEntry(
                rect=rect, payload=payload,
                aggregate=self.aggregator.from_payload(rect, payload)))
        if not entries:
            return
        self._size = len(entries)
        if len(entries) <= self.max_entries:
            self._root = _Node(is_leaf=True, entries=entries)
            self._root.recompute(self.aggregator)
            return
        nodes = self._pack_level(
            [(entry.rect, entry) for entry in entries], is_leaf=True)
        while len(nodes) > 1:
            if len(nodes) <= self.max_entries:
                root = _Node(is_leaf=False, children=nodes)
                root.recompute(self.aggregator)
                nodes = [root]
            else:
                nodes = self._pack_level(
                    [(node.rect, node) for node in nodes], is_leaf=False)
        self._root = nodes[0]

    def _pack_level(self, members: List[Tuple[Rect, Any]],
                    is_leaf: bool) -> List[_Node]:
        """Chunk members into nodes of ``max_entries`` along the widest dim."""
        dim = self._widest_dimension([rect for rect, _ in members])
        ordered = sorted(members, key=lambda member: member[0].center()[dim])
        nodes: List[_Node] = []
        for start in range(0, len(ordered), self.max_entries):
            chunk = [member for _, member in ordered[start:start + self.max_entries]]
            if is_leaf:
                node = _Node(is_leaf=True, entries=chunk)
            else:
                node = _Node(is_leaf=False, children=chunk)
            node.recompute(self.aggregator)
            nodes.append(node)
        return nodes

    # -- queries -----------------------------------------------------------------
    def range_search(self, rect: Rect) -> List[ARTreeEntry]:
        """All leaf entries whose rectangle intersects ``rect``."""
        results: List[ARTreeEntry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.rect is not None and not node.rect.intersects(rect):
                continue
            if node.is_leaf:
                results.extend(entry for entry in node.entries
                               if entry.rect.intersects(rect))
            else:
                stack.extend(node.children)
        return results

    def traverse(
        self,
        node_filter: Callable[[Rect, Any], bool],
        entry_filter: Optional[Callable[[ARTreeEntry], bool]] = None,
    ) -> Tuple[List[ARTreeEntry], int]:
        """Guided traversal with aggregate-based pruning.

        ``node_filter(rect, aggregate)`` decides whether a node may contain
        qualifying entries; nodes that fail the filter are pruned together
        with their whole subtree.  Returns the qualifying entries and the
        number of visited nodes (used by the complexity experiments).
        """
        results: List[ARTreeEntry] = []
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            if node.rect is not None and not node_filter(node.rect, node.aggregate):
                continue
            if node.is_leaf:
                for entry in node.entries:
                    if entry_filter is None or entry_filter(entry):
                        results.append(entry)
            else:
                stack.extend(node.children)
        return results, visited

    def all_entries(self) -> Iterator[ARTreeEntry]:
        """Iterate over every leaf entry (unordered)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)

    def height(self) -> int:
        """Tree height (1 for a single leaf root)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            height += 1
            node = node.children[0]
        return height
