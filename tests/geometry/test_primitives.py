"""Unit + property tests for repro.geometry.primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    TWO_PI,
    angle_of,
    angle_within,
    angles_of,
    cross2,
    dedupe_points,
    distance,
    distances,
    normalize_angle,
    polar_offset,
    rotate,
    signed_angle_diff,
    unit_vector,
)

angles = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(angles)
def test_normalize_angle_range(theta):
    n = normalize_angle(theta)
    assert 0.0 <= n < TWO_PI


@given(angles)
def test_normalize_angle_preserves_direction(theta):
    n = normalize_angle(theta)
    assert math.isclose(math.cos(n), math.cos(theta), abs_tol=1e-9)
    assert math.isclose(math.sin(n), math.sin(theta), abs_tol=1e-9)


@given(angles, angles)
def test_signed_angle_diff_range_and_consistency(a, b):
    d = signed_angle_diff(a, b)
    assert -math.pi < d <= math.pi + 1e-12
    # b + d should point in the same direction as a
    assert math.isclose(math.cos(b + d), math.cos(a), abs_tol=1e-9)
    assert math.isclose(math.sin(b + d), math.sin(a), abs_tol=1e-9)


@given(angles, angles)
def test_signed_angle_diff_antisymmetry(a, b):
    d1 = signed_angle_diff(a, b)
    d2 = signed_angle_diff(b, a)
    # Antisymmetric except at the +pi branch cut.
    if abs(abs(d1) - math.pi) > 1e-9:
        assert math.isclose(d1, -d2, abs_tol=1e-9)


def test_angle_within_boundary_inclusive():
    assert angle_within(0.5, 0.0, 0.5)
    assert angle_within(-0.5, 0.0, 0.5)
    assert not angle_within(0.5 + 1e-6, 0.0, 0.5)


def test_angle_within_wraparound():
    # Cone centred just below 2*pi includes directions just above 0.
    assert angle_within(0.1, TWO_PI - 0.1, 0.3)
    assert not angle_within(0.5, TWO_PI - 0.1, 0.3)


def test_angle_of_cardinal_directions():
    assert math.isclose(angle_of((0, 0), (1, 0)), 0.0, abs_tol=1e-12)
    assert math.isclose(angle_of((0, 0), (0, 1)), math.pi / 2, abs_tol=1e-12)
    assert math.isclose(angle_of((0, 0), (-1, 0)), math.pi, abs_tol=1e-12)
    assert math.isclose(angle_of((0, 0), (0, -1)), 3 * math.pi / 2, abs_tol=1e-12)


@given(coords, coords, coords, coords)
def test_angles_of_matches_scalar(px, py, qx, qy):
    p = np.array([px, py])
    qs = np.array([[qx, qy]])
    if abs(qx - px) < 1e-12 and abs(qy - py) < 1e-12:
        return
    assert math.isclose(angles_of(p, qs)[0], angle_of(p, (qx, qy)), abs_tol=1e-12)


@given(coords, coords, coords, coords)
def test_distances_matches_scalar(px, py, qx, qy):
    assert math.isclose(
        distances(np.array([px, py]), np.array([[qx, qy]]))[0],
        distance((px, py), (qx, qy)),
        rel_tol=1e-12,
        abs_tol=1e-12,
    )


@given(angles)
def test_unit_vector_is_unit(theta):
    v = unit_vector(theta)
    assert math.isclose(np.hypot(v[0], v[1]), 1.0, rel_tol=1e-12)


@given(coords, coords, angles)
def test_rotate_preserves_origin_distance(x, y, theta):
    p = rotate((x, y), theta)
    assert math.isclose(np.hypot(p[0], p[1]), np.hypot(x, y), rel_tol=1e-9, abs_tol=1e-9)


def test_rotate_about_point():
    p = rotate((2.0, 1.0), math.pi, about=(1.0, 1.0))
    assert np.allclose(p, [0.0, 1.0])


@given(coords, coords, angles, st.floats(min_value=0.0, max_value=100.0))
def test_polar_offset_distance(x, y, theta, r):
    q = polar_offset((x, y), theta, r)
    assert math.isclose(distance((x, y), q), r, rel_tol=1e-9, abs_tol=1e-9)


def test_cross2_sign():
    assert cross2((1, 0), (0, 1)) > 0  # anticlockwise
    assert cross2((0, 1), (1, 0)) < 0


def test_dedupe_points_removes_near_duplicates():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0 + 1e-9, 1.0], [2.0, 2.0]])
    out = dedupe_points(pts, tol=1e-7)
    assert len(out) == 3


def test_dedupe_points_empty():
    out = dedupe_points(np.zeros((0, 2)))
    assert out.shape == (0, 2)


def test_dedupe_points_preserves_first_occurrence_order():
    pts = np.array([[3.0, 3.0], [1.0, 1.0], [3.0, 3.0]])
    out = dedupe_points(pts)
    assert np.allclose(out, [[3.0, 3.0], [1.0, 1.0]])


def _dedupe_oracle(points, tol=1e-7, labels=None):
    """``dedupe_points`` as it was written on ``np.unique(keys, axis=0)``;
    *labels* become a leading key column."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 2)
    keys = np.round(pts / tol).astype(np.int64)
    if labels is not None:
        keys = np.column_stack([labels, keys])
    _, idx = np.unique(keys, axis=0, return_index=True)
    return pts[np.sort(idx)]


@st.composite
def near_duplicate_points(draw):
    """Points clustered within a few grid cells of pitch 1e-7 around a
    (possibly negative) origin: exact repeats, sub-cell jitter and points
    one cell apart, in random order, with a small label per point."""
    origin = draw(st.sampled_from([0.0, -1.0, -37.25, 12.5, 1e3]))
    cell = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    jitter = st.sampled_from([0.0, 0.0, 0.25, -0.25, 0.45, 1.0, -1.0])
    base = draw(st.lists(st.tuples(cell, jitter, jitter), max_size=30))
    pts = [
        (origin + (cx + jx) * 1e-7, origin + (cy + jy) * 1e-7) for (cx, cy), jx, jy in base
    ]
    repeats = draw(st.lists(st.integers(0, max(0, len(pts) - 1)), max_size=10)) if pts else []
    pts += [pts[k] for k in repeats]
    order = draw(st.permutations(range(len(pts))))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(pts), max_size=len(pts)))
    points = np.array([pts[k] for k in order], dtype=float).reshape(-1, 2)
    return points, np.array(labels, dtype=np.intp)


@given(near_duplicate_points())
def test_dedupe_points_equals_unique_oracle(case):
    pts, labels = case
    out = dedupe_points(pts)
    assert out.tobytes() == _dedupe_oracle(pts).tobytes() and out.shape == (len(out), 2)
    labelled = dedupe_points(pts, labels=labels)
    assert labelled.tobytes() == _dedupe_oracle(pts, labels=labels).tobytes()


def test_dedupe_points_labels_keep_equal_points_apart():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
    out = dedupe_points(pts, labels=np.array([0, 0, 0, 1]))
    assert out.tolist() == [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]
