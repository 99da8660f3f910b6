"""Unit tests for the R-tree substrate."""

import random

import pytest

from repro.indexes.artree import ARTree, Rect


class TestRect:
    def test_point_rect(self):
        rect = Rect.from_point([0.2, 0.4])
        assert rect.mins == (0.2, 0.4)
        assert rect.maxs == (0.2, 0.4)
        assert rect.dimensions == 2

    def test_from_intervals(self):
        rect = Rect.from_intervals([(0.1, 0.3), (0.2, 0.6)])
        assert rect.mins == (0.1, 0.2)
        assert rect.maxs == (0.3, 0.6)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Rect(mins=(0.5,), maxs=(0.1,))
        with pytest.raises(ValueError):
            Rect(mins=(0.1, 0.2), maxs=(0.3,))

    def test_union(self):
        union = Rect.from_point([0.1, 0.1]).union(Rect.from_point([0.5, 0.3]))
        assert union.mins == (0.1, 0.1)
        assert union.maxs == (0.5, 0.3)

    def test_intersects(self):
        left = Rect.from_intervals([(0.0, 0.5), (0.0, 0.5)])
        right = Rect.from_intervals([(0.4, 0.9), (0.4, 0.9)])
        apart = Rect.from_intervals([(0.8, 0.9), (0.8, 0.9)])
        assert left.intersects(right)
        assert right.intersects(left)
        assert not left.intersects(apart)

    def test_boundary_touch_counts_as_intersection(self):
        left = Rect.from_intervals([(0.0, 0.5)])
        right = Rect.from_intervals([(0.5, 1.0)])
        assert left.intersects(right)

    def test_contains_point(self):
        rect = Rect.from_intervals([(0.0, 0.5), (0.0, 0.5)])
        assert rect.contains_point([0.25, 0.5])
        assert not rect.contains_point([0.6, 0.1])

    def test_area(self):
        rect = Rect.from_intervals([(0.0, 0.5), (0.0, 0.2)])
        assert rect.area() == pytest.approx(0.1)

    def test_enlargement(self):
        rect = Rect.from_intervals([(0.0, 0.5), (0.0, 0.5)])
        assert rect.enlargement(Rect.from_point([0.25, 0.25])) == pytest.approx(0.0)
        assert rect.enlargement(Rect.from_point([1.0, 0.5])) > 0.0

    def test_center(self):
        rect = Rect.from_intervals([(0.0, 0.4), (0.2, 0.6)])
        assert rect.center() == (0.2, 0.4)


class TestARTreeBasics:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            ARTree(dimensions=0)
        with pytest.raises(ValueError):
            ARTree(dimensions=2, max_entries=1)

    def test_insert_and_len(self):
        tree = ARTree(dimensions=2, max_entries=4)
        for index in range(10):
            tree.insert_point([index / 10, index / 10], payload=index)
        assert len(tree) == 10

    def test_dimension_mismatch_rejected(self):
        tree = ARTree(dimensions=2)
        with pytest.raises(ValueError):
            tree.insert_point([0.1], payload="x")

    def test_range_search_finds_expected_points(self):
        tree = ARTree(dimensions=2, max_entries=4)
        points = [(i / 20, j / 20) for i in range(10) for j in range(10)]
        for point in points:
            tree.insert_point(point, payload=point)
        query = Rect.from_intervals([(0.0, 0.1), (0.0, 0.1)])
        found = {entry.payload for entry in tree.range_search(query)}
        expected = {point for point in points
                    if point[0] <= 0.1 and point[1] <= 0.1}
        assert found == expected

    def test_range_search_is_exhaustive_random(self):
        rng = random.Random(3)
        tree = ARTree(dimensions=3, max_entries=5)
        points = [tuple(rng.random() for _ in range(3)) for _ in range(200)]
        for point in points:
            tree.insert_point(point, payload=point)
        query = Rect.from_intervals([(0.2, 0.6), (0.1, 0.9), (0.0, 0.5)])
        found = {entry.payload for entry in tree.range_search(query)}
        expected = {point for point in points if query.contains_point(point)}
        assert found == expected

    def test_all_entries_iterates_everything(self):
        tree = ARTree(dimensions=1, max_entries=3)
        for index in range(25):
            tree.insert_point([index / 25], payload=index)
        assert {entry.payload for entry in tree.all_entries()} == set(range(25))

    def test_height_grows_with_inserts(self):
        tree = ARTree(dimensions=1, max_entries=2)
        assert tree.height() == 1
        for index in range(20):
            tree.insert_point([index / 20], payload=index)
        assert tree.height() >= 2

    def test_root_rect_covers_all_points(self):
        tree = ARTree(dimensions=2, max_entries=3)
        rng = random.Random(5)
        points = [(rng.random(), rng.random()) for _ in range(50)]
        for point in points:
            tree.insert_point(point, payload=point)
        root = tree.root_rect
        assert all(root.contains_point(point) for point in points)


class TestTraverse:
    def test_traverse_prunes_subtrees(self):
        tree = ARTree(dimensions=1, max_entries=4)
        for index in range(100):
            tree.insert_point([index / 100], payload=index)
        query = Rect.from_intervals([(0.0, 0.05)])
        results, visited = tree.traverse(
            node_filter=lambda rect: rect.intersects(query),
            entry_filter=lambda entry: entry.rect.intersects(query),
        )
        assert {entry.payload for entry in results} == set(range(6))
        # An unfiltered traversal visits every node; pruning must skip some.
        _, total_nodes = tree.traverse(node_filter=lambda rect: True)
        assert visited < total_nodes

    def test_traverse_without_entry_filter_returns_leaf_entries(self):
        tree = ARTree(dimensions=1, max_entries=4)
        for index in range(10):
            tree.insert_point([index / 10], payload=index)
        results, _ = tree.traverse(node_filter=lambda rect: True)
        assert len(results) == 10


def _check_invariants(tree):
    """Every node's MBR must match its members; uniform leaf depth."""
    depths = []

    def walk(node, depth):
        if node.is_leaf:
            depths.append(depth)
            rects = [entry.rect for entry in node.entries]
        else:
            assert node.children, "empty branch node"
            rects = [walk(child, depth + 1) for child in node.children]
        if not rects:
            assert node.rect is None
            return None
        rect = rects[0]
        for member_rect in rects[1:]:
            rect = rect.union(member_rect)
        assert node.rect == rect
        return rect

    walk(tree._root, 1)
    assert len(set(depths)) == 1, f"leaves at mixed depths {depths}"


class TestBulkLoad:
    def test_bulk_load_equals_inserts_for_small_sets(self):
        items = [(Rect.from_point([index / 10]), index) for index in range(5)]
        tree = ARTree(dimensions=1, max_entries=8)
        tree.bulk_load(items)
        # With at most max_entries items the packed tree is a single leaf
        # holding the input order — identical to sequential insertion.
        assert tree.height() == 1
        assert [entry.payload for entry in tree._root.entries] == list(range(5))

    def test_bulk_load_large_set_invariants_and_search(self):
        rng = random.Random(23)
        items = [(Rect.from_point([rng.random(), rng.random()]), index)
                 for index in range(300)]
        tree = ARTree(dimensions=2, max_entries=6)
        tree.bulk_load(items)
        assert len(tree) == 300
        _check_invariants(tree)
        query = Rect.from_intervals([(0.0, 0.25), (0.0, 0.25)])
        expected = {payload for rect, payload in items
                    if rect.intersects(query)}
        assert {entry.payload
                for entry in tree.range_search(query)} == expected

    def test_bulk_load_requires_empty_tree(self):
        tree = ARTree(dimensions=1)
        tree.insert(Rect.from_point([0.1]), "x")
        with pytest.raises(ValueError):
            tree.bulk_load([(Rect.from_point([0.2]), "y")])

    def test_bulk_load_empty_iterable_is_noop(self):
        tree = ARTree(dimensions=1)
        tree.bulk_load([])
        assert len(tree) == 0 and tree.root_rect is None
