"""Tests for segment/line/ray intersection routines."""

import math

import numpy as np
from hypothesis import given, strategies as st

from repro.geometry import (
    point_on_segment,
    point_segment_distance,
    segment_intersection,
)

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
points = st.tuples(coords, coords)


def test_segment_intersection_basic_cross():
    p = segment_intersection((0, 0), (2, 2), (0, 2), (2, 0))
    assert np.allclose(p, [1.0, 1.0])


def test_segment_intersection_disjoint():
    assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None


def test_segment_intersection_parallel():
    assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None
    assert segment_intersection((0, 0), (1, 1), (1, 0), (2, 1)) is None


def test_segment_intersection_at_endpoint():
    p = segment_intersection((0, 0), (1, 0), (1, 0), (1, 1))
    assert p is not None and np.allclose(p, [1.0, 0.0])


def test_segments_intersect_collinear_overlap():
    # Collinear overlap has no single intersection point: the candidate
    # extraction does not need one for this measure-zero case.
    assert segment_intersection((0, 0), (2, 0), (1, 0), (3, 0)) is None
    assert segment_intersection((0, 0), (1, 0), (2, 0), (3, 0)) is None


@given(points, points, points, points)
def test_segment_intersection_point_lies_on_both(a, b, c, d):
    p = segment_intersection(a, b, c, d)
    if p is not None:
        assert point_on_segment(p, a, b, tol=1e-6)
        assert point_on_segment(p, c, d, tol=1e-6)


def test_point_segment_distance_cases():
    # Projection inside the segment.
    assert math.isclose(point_segment_distance((1, 1), (0, 0), (2, 0)), 1.0)
    # Projection beyond an endpoint.
    assert math.isclose(point_segment_distance((3, 0), (0, 0), (2, 0)), 1.0)
    # Degenerate segment.
    assert math.isclose(point_segment_distance((3, 4), (0, 0), (0, 0)), 5.0)


@given(points, points, points)
def test_point_segment_distance_nonnegative_and_bounded(p, a, b):
    d = point_segment_distance(p, a, b)
    assert d >= 0.0
    assert d <= math.dist(p, a) + 1e-9
