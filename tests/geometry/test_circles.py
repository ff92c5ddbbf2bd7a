"""Tests for circle/arc intersection routines."""

import math

import numpy as np
from hypothesis import given, strategies as st

from repro.geometry import (
    EPS,
    circle_circle_intersections,
    circle_segment_intersections,
    distance,
    inscribed_angle_arc_centers,
)

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
radii = st.floats(min_value=0.1, max_value=30.0, allow_nan=False)


def test_circle_circle_two_points():
    pts = circle_circle_intersections((0, 0), 5.0, (6, 0), 5.0)
    assert len(pts) == 2
    for p in pts:
        assert math.isclose(distance(p, (0, 0)), 5.0, rel_tol=1e-9)
        assert math.isclose(distance(p, (6, 0)), 5.0, rel_tol=1e-9)


def test_circle_circle_tangent():
    pts = circle_circle_intersections((0, 0), 2.0, (4, 0), 2.0)
    assert len(pts) == 1
    assert np.allclose(pts[0], [2.0, 0.0])


def test_circle_circle_disjoint_and_contained():
    assert circle_circle_intersections((0, 0), 1.0, (5, 0), 1.0) == []
    assert circle_circle_intersections((0, 0), 5.0, (1, 0), 1.0) == []


def test_circle_circle_concentric():
    assert circle_circle_intersections((0, 0), 2.0, (0, 0), 3.0) == []


@given(coords, coords, radii, coords, coords, radii)
def test_circle_circle_points_on_both(c1x, c1y, r1, c2x, c2y, r2):
    pts = circle_circle_intersections((c1x, c1y), r1, (c2x, c2y), r2)
    for p in pts:
        assert math.isclose(distance(p, (c1x, c1y)), r1, rel_tol=1e-6, abs_tol=1e-6)
        assert math.isclose(distance(p, (c2x, c2y)), r2, rel_tol=1e-6, abs_tol=1e-6)


def test_circle_line_secant_tangent_miss():
    # Segments spanning the whole circle: the circle/line cases.
    assert len(circle_segment_intersections((0, 0), 2.0, (-5, 0), (5, 0))) == 2
    assert len(circle_segment_intersections((0, 0), 2.0, (-5, 2), (5, 2))) == 1
    assert circle_segment_intersections((0, 0), 2.0, (-5, 3), (5, 3)) == []


def test_circle_segment_respects_extent():
    # The full line crosses, but the segment stops short.
    assert circle_segment_intersections((0, 0), 2.0, (3, 0), (5, 0)) == []
    pts = circle_segment_intersections((0, 0), 2.0, (0, 0), (5, 0))
    assert len(pts) == 1 and np.allclose(pts[0], [2.0, 0.0])
    pts = circle_segment_intersections((0, 0), 2.0, (-5, 0), (5, 0))
    assert len(pts) == 2


@given(coords, coords, radii, coords, coords, coords, coords)
def test_circle_segment_points_lie_on_circle_and_segment(cx, cy, r, ax, ay, bx, by):
    pts = circle_segment_intersections((cx, cy), r, (ax, ay), (bx, by))
    from repro.geometry import point_on_segment

    for p in pts:
        assert math.isclose(distance(p, (cx, cy)), r, rel_tol=1e-6, abs_tol=1e-5)
        assert point_on_segment(p, (ax, ay), (bx, by), tol=1e-5)


def test_inscribed_angle_right_angle_is_diameter_circle():
    # Thales: points subtending 90 degrees over pq lie on the circle with
    # diameter pq.
    centers, radius = inscribed_angle_arc_centers((0, 0), (2, 0), math.pi / 2.0)
    assert math.isclose(radius, 1.0, rel_tol=1e-9)
    assert len(centers) == 1
    assert np.allclose(centers[0], [1.0, 0.0])


def test_inscribed_angle_sixty_degrees():
    d = 2.0
    angle = math.pi / 3.0
    centers, radius = inscribed_angle_arc_centers((0, 0), (d, 0), angle)
    assert math.isclose(radius, d / (2.0 * math.sin(angle)), rel_tol=1e-9)
    assert len(centers) == 2
    # Centers are symmetric about the chord.
    assert math.isclose(centers[0][1], -centers[1][1], rel_tol=1e-9)


def test_inscribed_angle_degenerate():
    centers, radius = inscribed_angle_arc_centers((0, 0), (2, 0), math.pi)
    assert centers == [] and radius == 0.0
    centers, radius = inscribed_angle_arc_centers((0, 0), (0, 0), 1.0)
    assert centers == []


def point_subtends_angle(x, p, q):
    """The angle ``∠pXq`` subtended at *x* by segment ``pq`` (in ``[0, pi]``)."""
    ux, uy = p[0] - x[0], p[1] - x[1]
    vx, vy = q[0] - x[0], q[1] - x[1]
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu < EPS or nv < EPS:
        return 0.0
    c = (ux * vx + uy * vy) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))


@given(
    st.floats(min_value=0.3, max_value=math.pi - 0.3),
    st.floats(min_value=0.5, max_value=20.0),
)
def test_inscribed_angle_arc_points_subtend_angle(angle, d):
    """Every point of each arc circle sees ``pq`` under *angle* on one arc
    and ``pi - angle`` on the other (inscribed angle theorem)."""
    centers, radius = inscribed_angle_arc_centers((0.0, 0.0), (d, 0.0), angle)
    assert len(centers) in (1, 2)
    for c in centers:
        subtended = []
        for theta in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False) + 0.1:
            x = (c[0] + radius * math.cos(theta), c[1] + radius * math.sin(theta))
            if min(distance(x, (0.0, 0.0)), distance(x, (d, 0.0))) < 1e-3 * d:
                continue
            subtended.append(point_subtends_angle(x, (0, 0), (d, 0)))
        assert all(
            math.isclose(a, angle, abs_tol=1e-6) or math.isclose(a, math.pi - angle, abs_tol=1e-6)
            for a in subtended
        )
        assert any(math.isclose(a, angle, abs_tol=1e-6) for a in subtended)


def test_point_subtends_angle_basics():
    assert math.isclose(point_subtends_angle((0, 1), (-1, 0), (1, 0)), math.pi / 2.0, rel_tol=1e-9)
    # Collapsed to a device position: zero angle.
    assert point_subtends_angle((0, 0), (0, 0), (1, 0)) == 0.0
