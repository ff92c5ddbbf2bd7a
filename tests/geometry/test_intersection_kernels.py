"""The broadcast intersection kernels against scalar oracles, bit for bit.

The oracles below are the per-call scalar routines the candidate extraction
used before it was batched.  The kernels must reproduce them exactly —
same points to the last bit, same slots dropped, same order — because the
candidate positions, and so every candidate set, are pinned byte for byte
(tests/core/test_extraction_digest.py).  The ``ci`` Hypothesis profile
(tests/conftest.py) re-runs this module with more examples.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, strategies as st

from repro.geometry import (
    EPS,
    Polygon,
    PolygonSet,
    circle_circle_intersections,
    circle_circle_points,
    circle_segment_intersections,
    circle_segment_points,
    cross2,
    distance,
    on_segment_mask,
    rectangle,
    regular_polygon,
    segment_intersection,
    segment_points,
)

# -- scalar oracles ------------------------------------------------------------


def _close(p, q):
    px, py = p.tolist()
    qx, qy = q.tolist()
    return abs(px - qx) <= 1e-8 + 1e-5 * abs(qx) and abs(py - qy) <= 1e-8 + 1e-5 * abs(qy)


def circle_circle_oracle(c1, r1, c2, r2):
    d = distance(c1, c2)
    if d < EPS:  # concentric
        return []
    if d > r1 + r2 + EPS or d < abs(r1 - r2) - EPS:
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    h = math.sqrt(h_sq) if h_sq > 0.0 else 0.0
    ex = (c2[0] - c1[0]) / d
    ey = (c2[1] - c1[1]) / d
    mx = c1[0] + a * ex
    my = c1[1] + a * ey
    if h < EPS:
        return [np.array([mx, my])]
    return [
        np.array([mx - h * ey, my + h * ex]),
        np.array([mx + h * ey, my - h * ex]),
    ]


def circle_segment_oracle(center, r, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm2 = dx * dx + dy * dy
    if norm2 < EPS * EPS:
        return []
    fx, fy = a[0] - center[0], a[1] - center[1]
    bb = 2.0 * (fx * dx + fy * dy)
    cc = fx * fx + fy * fy - r * r
    disc = bb * bb - 4.0 * norm2 * cc
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    out = []
    for t in ((-bb - sq) / (2.0 * norm2), (-bb + sq) / (2.0 * norm2)):
        if -EPS <= t <= 1.0 + EPS:
            out.append(np.array([a[0] + t * dx, a[1] + t * dy]))
    if len(out) == 2 and _close(out[0], out[1]):
        out.pop()
    return out


def segment_oracle(a, b, c, d):
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = cross2(r, s)
    if abs(denom) < EPS:
        return None
    ac = (c[0] - a[0], c[1] - a[1])
    t = cross2(ac, s) / denom
    u = cross2(ac, r) / denom
    if -EPS <= t <= 1.0 + EPS and -EPS <= u <= 1.0 + EPS:
        return np.array([a[0] + t * r[0], a[1] + t * r[1]])
    return None


def point_on_segment_oracle(p, a, b, tol=EPS):
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    scaled = tol * max(1.0, abs(ab[0]) + abs(ab[1]))
    if abs(cross2(ab, ap)) > scaled:
        return False
    t = ap[0] * ab[0] + ap[1] * ab[1]
    return -scaled <= t <= ab[0] * ab[0] + ab[1] * ab[1] + scaled


def _bytes(points) -> bytes:
    return np.asarray(points, dtype=float).reshape(-1, 2).tobytes()


# -- strategies ------------------------------------------------------------------

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
radius = st.floats(min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)


def rows(*fields):
    return st.lists(st.tuples(*fields), min_size=1, max_size=12)


def _columns(batch):
    return [np.array(col, dtype=float) for col in zip(*batch)]


# -- circle x circle -------------------------------------------------------------


@given(rows(point, radius, point, radius))
@example([((0.0, 0.0), 2.0, (4.0, 0.0), 2.0)])  # external tangency, h = 0
@example([((0.0, 0.0), 3.0, (1.0, 0.0), 2.0)])  # internal tangency
@example([((0.0, 0.0), 1.0, (2.0 + 5e-10, 0.0), 1.0)])  # tangent within EPS
@example([((1.0, 1.0), 2.0, (1.0, 1.0), 3.0)])  # concentric
@example([((0.0, 0.0), 5.0, (1.0, 0.0), 1.0)])  # nested
@example([((36.43, 33.105), 5.0, (42.113, 26.813999999999997), 6.0)])  # np.hypot != math.hypot
def test_circle_circle_kernel_matches_oracle(batch):
    c1x, c1y, r1, c2x, c2y, r2 = _columns([(a[0], a[1], ra, b[0], b[1], rb) for a, ra, b, rb in batch])
    d = np.array([distance(a, b) for a, _, b, _ in batch])
    pts, ok = circle_circle_points(c1x, c1y, r1, c2x, c2y, r2, d)
    for k, (a, ra, b, rb) in enumerate(batch):
        want = _bytes(circle_circle_oracle(a, ra, b, rb))
        assert pts[k][ok[k]].tobytes() == want
        assert _bytes(circle_circle_intersections(a, ra, b, rb)) == want


# -- circle x segment ------------------------------------------------------------


@given(rows(point, radius, point, point))
@example([((0.0, 0.0), 2.0, (-5.0, 2.0), (5.0, 2.0))])  # tangent line, double root
@example([((0.0, 0.0), 1.0, (-2.0, 1.0 - 1e-12), (2.0, 1.0 - 1e-12))])  # near-double root
@example([((0.0, 0.0), 1.0, (3.0, 3.0), (3.0, 3.0))])  # degenerate segment
@example([((0.0, 0.0), 1.0, (0.0, 0.0), (5e-10, 0.0))])  # |ab|² just under EPS²
@example([((0.0, 0.0), 1.0, (-3.0, 0.0), (1.0 - 4e-9, 0.0))])  # t = 1 + 1e-9: kept
@example([((0.0, 0.0), 1.0, (-3.0, 0.0), (1.0 - 8e-9, 0.0))])  # t = 1 + 2e-9: dropped
@example([((0.0, 0.0), 1.0, (1.0 + 4e-9, 0.0), (5.0, 0.0))])  # t = -1e-9: kept
@example([((0.0, 0.0), 1.0, (1.0 + 8e-9, 0.0), (5.0, 0.0))])  # t = -2e-9: dropped
def test_circle_segment_kernel_matches_oracle(batch):
    cols = _columns([(c[0], c[1], r, a[0], a[1], b[0], b[1]) for c, r, a, b in batch])
    pts, ok = circle_segment_points(*cols)
    for k, (c, r, a, b) in enumerate(batch):
        want = _bytes(circle_segment_oracle(c, r, a, b))
        assert pts[k][ok[k]].tobytes() == want
        assert _bytes(circle_segment_intersections(c, r, a, b)) == want


# -- segment x segment -----------------------------------------------------------


@given(rows(point, point, point, point))
@example([((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))])  # parallel
@example([((0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (3.0, 0.0))])  # collinear overlap
@example([((0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1e-9))])  # |denom| just under EPS
@example([((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0))])  # shared endpoint, t = 1
@example([((0.0, 0.0), (1.0, 0.0), (1.0 + 1e-9, -1.0), (1.0 + 1e-9, 1.0))])  # t = 1 + EPS
@example([((0.0, 0.0), (1.0, 0.0), (-2e-9, -1.0), (-2e-9, 1.0))])  # t = -2·EPS
@example([((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0))])  # degenerate segment
def test_segment_kernel_matches_oracle(batch):
    cols = _columns([(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1]) for a, b, c, d in batch])
    pts, ok = segment_points(*cols)
    for k, (a, b, c, d) in enumerate(batch):
        want = segment_oracle(a, b, c, d)
        if want is None:
            assert not ok[k]
            assert segment_intersection(a, b, c, d) is None
        else:
            assert ok[k] and pts[k].tobytes() == want.tobytes()
            assert segment_intersection(a, b, c, d).tobytes() == want.tobytes()


# -- point on segment ------------------------------------------------------------


@given(rows(point, point, point))
@example([((1.0, 0.0), (0.0, 0.0), (2.0, 0.0))])  # on the edge
@example([((2.0, 0.0), (0.0, 0.0), (2.0, 0.0))])  # on an end vertex
@example([((2.0 + 1e-9, 0.0), (0.0, 0.0), (2.0, 0.0))])  # just past the end
@example([((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))])  # degenerate segment
def test_on_segment_mask_matches_oracle(batch):
    cols = _columns([(p[0], p[1], a[0], a[1], b[0], b[1]) for p, a, b in batch])
    got = on_segment_mask(*cols)
    for k, (p, a, b) in enumerate(batch):
        assert bool(got[k]) == point_on_segment_oracle(p, a, b)


# -- padding ---------------------------------------------------------------------


def test_nan_inputs_give_invalid_slots():
    nan = np.nan
    _, ok = circle_circle_points(0.0, 0.0, 2.0, 3.0, 0.0, nan, 3.0)
    assert not ok.any()
    _, ok = circle_circle_points(0.0, 0.0, 2.0, 3.0, 0.0, 2.0, nan)
    assert not ok.any()
    _, ok = circle_segment_points(0.0, 0.0, nan, -5.0, 0.0, 5.0, 0.0)
    assert not ok.any()
    _, ok = circle_segment_points(0.0, 0.0, 2.0, nan, nan, nan, nan)
    assert not ok.any()
    _, ok = segment_points(-1.0, 0.0, 1.0, 0.0, nan, nan, nan, nan)
    assert not ok
    assert not on_segment_mask(0.0, 0.0, nan, nan, nan, nan)


# -- obstacle interior mask ------------------------------------------------------

OBSTACLES = (
    rectangle(-10.0, -10.0, 0.0, 0.0),
    Polygon([(0, 0), (12, 0), (12, 4), (4, 4), (4, 12), (0, 12)]),  # L-shape, shares edges
    regular_polygon((20.0, 20.0), 6.0, 7),
    Polygon([(30.0, -5.0), (40.0, -5.0), (35.0, 3.0)]),
)


@given(st.lists(point, min_size=1, max_size=40))
@example([(0.0, 0.0), (-5.0, 0.0), (6.0, 4.0), (12.0, 12.0), (2.0, 2.0), (35.0, 3.0)])
def test_interior_mask_matches_contains_many(pts):
    arr = np.array(pts, dtype=float)
    want = np.zeros(len(arr), dtype=bool)
    for h in OBSTACLES:
        want |= h.contains_many(arr, include_boundary=False)
    assert np.array_equal(PolygonSet(OBSTACLES).interior_mask(arr), want)
    for k, p in enumerate(arr):
        assert want[k] == any(h.contains(p, include_boundary=False) for h in OBSTACLES)


def test_interior_mask_empty_inputs():
    assert PolygonSet(()).interior_mask(np.ones((3, 2))).tolist() == [False] * 3
    assert PolygonSet(OBSTACLES).interior_mask(np.zeros((0, 2))).shape == (0,)
