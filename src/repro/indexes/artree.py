"""R-tree substrate of the two imputation indexes.

The paper builds the per-attribute CDD-index and the DR-index over the
repository on aggregate R-trees [Lazaridis & Mehrotra, SIGMOD 2001], whose
nodes also summarise the entries below them.  No probe here reads such a
summary — both indexes filter on rectangles alone — so this module is a
plain R-tree over axis-aligned rectangles in ``[0, 1]^d`` with:

* insertion (least-enlargement subtree choice, mid-point splits);
* a ``bulk_load`` fast path that packs a sorted-tile tree bottom-up for
  cold builds instead of paying per-entry insertion splits;
* range search and a guided traversal that prunes whole subtrees on their
  bounding rectangle.
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

    def area(self) -> float:
        """Product of side lengths (enlargement metric)."""
        area = 1.0
        for low, high in zip(self.mins, self.maxs):
            area *= max(0.0, high - low)
        return area

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to absorb ``other``."""
        return self.union(other).area() - self.area()

    def center(self) -> Tuple[float, ...]:
        return tuple((low + high) / 2.0 for low, high in zip(self.mins, self.maxs))


@dataclass
class ARTreeEntry:
    """A leaf entry: rectangle and payload object."""

    rect: Rect
    payload: Any


@dataclass
class _Node:
    """Internal tree node (leaf or branch)."""

    is_leaf: bool
    rect: Optional[Rect] = None
    entries: List[ARTreeEntry] = field(default_factory=list)
    children: List["_Node"] = field(default_factory=list)

    def recompute(self) -> None:
        """Refresh the node MBR from its members."""
        if self.is_leaf:
            rects = [entry.rect for entry in self.entries]
        else:
            rects = [child.rect for child in self.children
                     if child.rect is not None]
        if not rects:
            self.rect = None
            return
        rect = rects[0]
        for other in rects[1:]:
            rect = rect.union(other)
        self.rect = rect


class ARTree:
    """A minimal R-tree.

    Parameters
    ----------
    dimensions:
        Dimensionality of the indexed rectangles.
    max_entries:
        Node fan-out before a split.
    """

    def __init__(self, dimensions: int, max_entries: int = 8) -> None:
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        self.dimensions = dimensions
        self.max_entries = max_entries
        self._root = _Node(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def root_rect(self) -> Optional[Rect]:
        return self._root.rect

    # -- insertion -----------------------------------------------------------
    def insert(self, rect: Rect, payload: Any) -> None:
        """Insert one rectangle with its payload."""
        if rect.dimensions != self.dimensions:
            raise ValueError(
                f"rect has {rect.dimensions} dims, tree expects {self.dimensions}")
        self._insert_entry(self._root, ARTreeEntry(rect=rect, payload=payload),
                           path=[])
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
        node.recompute()

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
        sibling.recompute()
        node.recompute()
        self._attach_sibling(node, sibling, path)

    def _split_branch(self, node: _Node, path: List[_Node]) -> None:
        dim = self._widest_dimension([child.rect for child in node.children
                                      if child.rect is not None])
        node.children.sort(key=lambda child: child.rect.center()[dim]
                           if child.rect is not None else 0.0)
        half = len(node.children) // 2
        sibling = _Node(is_leaf=False, children=node.children[half:])
        node.children = node.children[:half]
        sibling.recompute()
        node.recompute()
        self._attach_sibling(node, sibling, path)

    def _attach_sibling(self, node: _Node, sibling: _Node,
                        path: List[_Node]) -> None:
        if node is self._root:
            new_root = _Node(is_leaf=False, children=[node, sibling])
            new_root.recompute()
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
            entries.append(ARTreeEntry(rect=rect, payload=payload))
        if not entries:
            return
        self._size = len(entries)
        if len(entries) <= self.max_entries:
            self._root = _Node(is_leaf=True, entries=entries)
            self._root.recompute()
            return
        nodes = self._pack_level(
            [(entry.rect, entry) for entry in entries], is_leaf=True)
        while len(nodes) > 1:
            if len(nodes) <= self.max_entries:
                root = _Node(is_leaf=False, children=nodes)
                root.recompute()
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
            node.recompute()
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
        node_filter: Callable[[Rect], bool],
        entry_filter: Optional[Callable[[ARTreeEntry], bool]] = None,
    ) -> Tuple[List[ARTreeEntry], int]:
        """Guided traversal with per-node pruning.

        ``node_filter(rect)`` decides whether a node's bounding rectangle
        may contain qualifying entries; nodes that fail the filter are
        pruned together with their whole subtree.  Returns the qualifying
        entries and the number of visited nodes (used by the complexity
        experiments).
        """
        results: List[ARTreeEntry] = []
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            if node.rect is not None and not node_filter(node.rect):
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
