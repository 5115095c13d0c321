"""Unit tests for planar geometry helpers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.geometry import (
    GridIndex,
    bounding_box,
    euclidean,
    interpolate,
    midpoint,
    points_within_radius,
    polyline_length,
)


class TestScalarHelpers:
    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)
        assert euclidean((1, 1), (1, 1)) == 0.0

    def test_midpoint(self):
        assert midpoint((0, 0), (2, 4)) == (1.0, 2.0)

    def test_interpolate_endpoints_and_clamp(self):
        assert interpolate((0, 0), (10, 0), 0.0) == (0.0, 0.0)
        assert interpolate((0, 0), (10, 0), 1.0) == (10.0, 0.0)
        assert interpolate((0, 0), (10, 0), 0.25) == (2.5, 0.0)
        assert interpolate((0, 0), (10, 0), -0.5) == (0.0, 0.0)
        assert interpolate((0, 0), (10, 0), 1.5) == (10.0, 0.0)

    def test_bounding_box(self):
        box = bounding_box([(1, 5), (-2, 3), (4, -1)])
        assert box == (-2, -1, 4, 5)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])

    def test_polyline_length(self):
        assert polyline_length([(0, 0), (3, 4), (3, 8)]) == pytest.approx(9.0)
        assert polyline_length([(0, 0)]) == 0.0

    def test_points_within_radius(self):
        points = [(0, 0), (1, 0), (5, 5)]
        assert points_within_radius(points, (0, 0), 1.5) == [0, 1]
        assert points_within_radius(points, (0, 0), 0.5) == [0]


class TestGridIndex:
    def test_nearest_exact(self):
        points = [(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)]
        index = GridIndex(points, cell_size=1.0)
        assert index.nearest((0.1, 0.1)) == 0
        assert index.nearest((9.5, 0.4)) == 1
        assert index.nearest((5.0, 4.0)) == 2

    def test_nearest_matches_brute_force(self):
        import numpy as np

        rng = np.random.default_rng(0)
        points = [tuple(p) for p in rng.uniform(0, 20, size=(200, 2))]
        index = GridIndex(points, cell_size=0.7)
        for probe in rng.uniform(-2, 22, size=(50, 2)):
            probe_t = (float(probe[0]), float(probe[1]))
            expected = min(
                range(len(points)), key=lambda i: euclidean(points[i], probe_t)
            )
            found = index.nearest(probe_t)
            assert euclidean(points[found], probe_t) == pytest.approx(
                euclidean(points[expected], probe_t)
            )

    def test_nearest_empty_raises(self):
        with pytest.raises(ValueError):
            GridIndex([], cell_size=1.0).nearest((0, 0))

    def test_within_matches_brute_force(self):
        import numpy as np

        rng = np.random.default_rng(1)
        points = [tuple(p) for p in rng.uniform(0, 10, size=(100, 2))]
        index = GridIndex(points, cell_size=0.9)
        for probe in rng.uniform(0, 10, size=(20, 2)):
            probe_t = (float(probe[0]), float(probe[1]))
            expected = set(points_within_radius(points, probe_t, 2.0))
            assert set(index.within(probe_t, 2.0)) == expected

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex([(0, 0)], cell_size=0.0)

    def test_len(self):
        assert len(GridIndex([(0, 0), (1, 1)], cell_size=1.0)) == 2


# Coordinates on a coarse lattice (multiples of 0.25) collide often,
# which produces exact distance ties and duplicate points.
_lattice = st.integers(-40, 40).map(lambda k: k * 0.25)
_coord = st.one_of(
    _lattice,
    st.floats(-12.0, 12.0, allow_nan=False),
    st.floats(-1e4, 1e4, allow_nan=False),  # far outside the points' box
)


class TestNearestMany:
    """``nearest_many`` is a batched :meth:`GridIndex.nearest`, equal
    to it element for element (tie-breaks included)."""

    @settings(max_examples=300, deadline=None)
    @given(
        points=st.lists(st.tuples(_lattice, _lattice), min_size=1, max_size=40),
        samples=st.lists(st.tuples(_coord, _coord), max_size=60),
        cell=st.sampled_from([0.25, 0.5, 0.7, 1.0, 3.0]),
    )
    def test_equals_scalar_nearest(self, points, samples, cell):
        points = points + points[: len(points) // 3]  # duplicate points
        index = GridIndex(points, cell_size=cell)
        xs = [x for x, _ in samples]
        ys = [y for _, y in samples]
        assert index.nearest_many(xs, ys).tolist() == [
            index.nearest(p) for p in samples
        ]

    def test_exact_ties_match_scalar_order(self):
        # Every sample is equidistant from two or four points.
        points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
        index = GridIndex(points, cell_size=0.5)
        samples = [(0.5, 0.0), (0.0, 0.5), (0.5, 0.5), (1.0, 1.0), (0.5, 1.0)]
        xs, ys = zip(*samples)
        assert index.nearest_many(xs, ys).tolist() == [
            index.nearest(p) for p in samples
        ]

    def test_empty_input(self):
        index = GridIndex([(0.0, 0.0)], cell_size=1.0)
        assert index.nearest_many([], []).tolist() == []
        assert GridIndex([], cell_size=1.0).nearest_many([], []).tolist() == []

    def test_empty_index_raises(self):
        with pytest.raises(ValueError):
            GridIndex([], cell_size=1.0).nearest_many([0.0], [0.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            GridIndex([(0.0, 0.0)], cell_size=1.0).nearest_many([0.0], [])

    def test_large_batch_spans_chunks(self):
        import numpy as np

        rng = np.random.default_rng(4)
        points = [tuple(p) for p in rng.uniform(0, 10, size=(3000, 2)).tolist()]
        index = GridIndex(points, cell_size=1.0)
        xs, ys = rng.normal(5, 3, size=(2, 4000))
        assert index.nearest_many(xs, ys).tolist() == [
            index.nearest((x, y)) for x, y in zip(xs.tolist(), ys.tolist())
        ]
