"""The batched feeders of the position pass against their scalar sources.

The curve table computes every device's hole rays in one pass over the
obstacle vertices, and the pair pass computes the inscribed-angle arcs of
all its pairs at once.  Both must equal the per-call scalar routines they
replace — :func:`~repro.geometry.shadow_rays`,
:func:`~repro.geometry.inscribed_angle_arc_centers` and
:func:`~repro.geometry.distance` — bit for bit, and ``device_curves`` (a
row of the table) must equal the old per-device construction.  The inputs
mix quarter-lattice and arbitrary coordinates, devices on obstacle
vertices, vertices at exactly ``rmax − EPS`` from a device, and charging
angles of ``pi`` and beyond, where a pair has no arcs.

The pair pass skips (pair, segment) slots whose segment box, widened by
``candidates._segment_margins``, misses the pair's reach box.  The last
tests drive the kernels into the cases that margin must cover: pair lines
nearly parallel to a segment (``|r × s|`` just above ``EPS``) and
segments nearly tangent to a level circle.  The ``ci`` Hypothesis profile
(tests/conftest.py) re-runs this module with more examples.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, strategies as st

from repro.core import CandidateGenerator, candidates
from repro.geometry import (
    EPS,
    circle_segment_points,
    distance,
    inscribed_angle_arc_centers,
    rectangle,
    segment_points,
    shadow_rays,
)

from conftest import simple_scenario
from test_position_corpus_digest import _on_ring

QUARTER = st.integers(0, 160).map(lambda k: k / 4.0)
COORD = st.one_of(QUARTER, st.floats(0.0, 40.0, allow_nan=False))
POINT = st.tuples(COORD, COORD)
RECT = st.tuples(QUARTER, QUARTER, st.integers(1, 24), st.integers(1, 24)).map(
    lambda r: rectangle(r[0], r[1], r[0] + r[2] / 4.0, r[1] + r[3] / 4.0)
)
DMAX = st.sampled_from([6.0, 8.0, 10.0, 7.3])
DEVICE_ANGLE = st.sampled_from([math.pi / 2.0, 2.0 * math.pi / 3.0, math.pi, 2.0 * math.pi])
CHARGING_ANGLE = st.one_of(
    st.sampled_from([k * math.pi / 6.0 for k in (1, 2, 3, 6, 9, 12)]),
    st.floats(0.05, 2.0 * math.pi),
)

#: A rectangle and a device at exactly ``6 − EPS`` (``dmax − EPS`` for
#: ``dmax = 6``) from its first vertex, where ``shadow_rays`` stops making
#: a ray, and one just inside.
RING_RECT = rectangle(12.25, 10.5, 15.0, 13.75)
RING = [
    _on_ring(RING_RECT.vertices, 6.0 - EPS, 0.75 * math.pi, inside=False),
    _on_ring(RING_RECT.vertices, 6.0 - EPS, 0.0, inside=True),
]


def _scenario(devices, obstacles, dmax, device_angle=math.pi / 2.0, charging_angle=math.pi / 2.0):
    return simple_scenario(
        devices,
        device_orientations=[0.7 * k for k in range(len(devices))],
        obstacles=obstacles,
        bounds=(0.0, 0.0, 40.0, 40.0),
        charger_angle=charging_angle,
        device_angle=device_angle,
        dmax=dmax,
    )


def _bytes(segments) -> bytes:
    return np.array(segments, dtype=float).reshape(-1, 2, 2).tobytes()


@given(st.lists(POINT, min_size=1, max_size=5), st.lists(RECT, max_size=3), DMAX)
@example(RING, [RING_RECT], 6.0)
@example([(10.0, 10.0), (12.0, 12.0)], [rectangle(10.0, 10.0, 12.0, 12.0)], 6.0)
def test_table_hole_rays_equal_shadow_rays(devices, obstacles, dmax):
    scenario = _scenario(devices, obstacles, dmax)
    ct = scenario.charger_types[0]
    starts, ends, own = CandidateGenerator(scenario)._own_segments(ct)
    for i, dev in enumerate(scenario.devices):
        ray = own[i, 2:]  # the two cone-edge slots come first
        got = np.stack([starts[i, 2:][ray], ends[i, 2:][ray]], axis=1)
        expected = [s for h in scenario.obstacles for s in shadow_rays(dev.position, h, ct.dmax)]
        assert got.tobytes() == _bytes(expected)


def test_ring_example_hits_the_cut_off():
    """The ring devices lie at and just inside ``rmax − EPS``, so one makes
    no ray to the vertex and the other does."""
    (x0, y0), (x1, y1) = RING
    limit = 6.0 - EPS
    assert limit in [math.hypot(vx - x0, vy - y0) for vx, vy in RING_RECT.vertices]
    inside = [math.hypot(vx - x1, vy - y1) for vx, vy in RING_RECT.vertices]
    assert any(limit - 8e-15 < d < limit for d in inside)


@given(st.lists(POINT, min_size=1, max_size=4), st.lists(RECT, max_size=3), DMAX, DEVICE_ANGLE)
@example(RING, [RING_RECT], 6.0, math.pi / 2.0)
@example([(10.0, 10.0)], [rectangle(10.0, 10.0, 12.0, 12.0)], 6.0, 2.0 * math.pi)
def test_device_curves_equal_the_per_device_construction(devices, obstacles, dmax, device_angle):
    scenario = _scenario(devices, obstacles, dmax, device_angle=device_angle)
    ct = scenario.charger_types[0]
    gen = CandidateGenerator(scenario)
    for i, dev in enumerate(scenario.devices):
        curves = gen.device_curves(ct, i)
        radii = [float(r) for r in gen.approx.boundary_radii(ct, i)]
        assert [r for _, r in curves.circles] == radii
        for center, _ in curves.circles:
            assert center.tobytes() == np.asarray(dev.position, dtype=float).tobytes()
        segments = list(dev.receiving_ring(ct).radial_edges())
        for h in scenario.obstacles:
            segments.extend(shadow_rays(dev.position, h, ct.dmax))
        assert _bytes(curves.segments) == _bytes(segments)
        assert gen.device_curves(ct, i) is curves


@given(st.lists(st.tuples(POINT, POINT), min_size=1, max_size=6), CHARGING_ANGLE)
@example([((0.0, 0.0), (4.0, 0.0)), ((1.25, 2.5), (1.25, 2.5 + 1e-8))], math.pi / 2.0)
@example([((10.0, 10.0), (13.0, 14.0))], math.pi)
def test_batched_arcs_equal_inscribed_angle_arc_centers(pairs, angle):
    pairs = [(p, q) for p, q in pairs if distance(p, q) >= EPS]
    if not pairs or abs(math.sin(angle)) < EPS:
        return
    oi = np.array([p for p, _ in pairs], dtype=float)
    oj = np.array([q for _, q in pairs], dtype=float)
    dij = np.array([distance(p, q) for p, q in zip(oi.tolist(), oj.tolist())])
    centers, radius, d = candidates._inscribed_arcs(angle, oi, oj, dij)
    for k, (p, q) in enumerate(zip(oi.tolist(), oj.tolist())):
        arcs, r = inscribed_angle_arc_centers(p, q, angle)
        assert radius[k] == r
        assert 1 <= len(arcs) <= 2
        assert np.isnan(centers[k, len(arcs) :]).all()
        for a, ac in enumerate(arcs):
            assert centers[k, a].tobytes() == ac.tobytes()
            assert d[k, a].tolist() == [distance(ac, p), distance(ac, q)]


def _count_kernels(monkeypatch) -> list[str]:
    calls: list[str] = []
    for name in ("circle_segment_points", "circle_circle_points", "segment_points"):
        kernel = getattr(candidates, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(candidates, name, counted)
    return calls


def test_no_arc_kernels_from_pi_on(monkeypatch):
    """A pair runs the arc kernels (circles and segments, both arcs at
    once) only while ``αs < pi``."""
    calls = _count_kernels(monkeypatch)
    for angle, arc_calls in ((math.pi / 2.0, 2), (math.pi, 0), (1.5 * math.pi, 0)):
        scenario = _scenario([(10.0, 10.0), (13.0, 14.0)], [RING_RECT], 6.0, charging_angle=angle)
        calls.clear()
        CandidateGenerator(scenario).positions_for_pair(scenario.charger_types[0], 0, 1)
        assert len(calls) == 3 + arc_calls, angle


# -- the near-slot margin -------------------------------------------------------


def _margins(length, dmax, scale):
    """``candidates._segment_margins`` per element of *length* and *dmax*."""
    out = np.empty_like(length)
    for m in np.unique(dmax):
        sel = dmax == m
        out[sel] = candidates._segment_margins(length[sel], float(m), scale)
    return out


def _box_gap(px, py, ax, ay, bx, by):
    """Chebyshev distance from points to the boxes of segments a–b."""
    gx = np.maximum(np.maximum(np.minimum(ax, bx) - px, px - np.maximum(ax, bx)), 0.0)
    gy = np.maximum(np.maximum(np.minimum(ay, by) - py, py - np.maximum(ay, by)), 0.0)
    return np.maximum(gx, gy)


def test_margin_covers_near_parallel_pair_lines():
    """Pair lines crossing a segment at ``|r × s|`` from ``EPS`` up: every
    kept intersection ``segment_points`` reports lies within the margin of
    the segment's box, though many lie beyond the ``EPS`` parameter slack
    (the computed point drifts along the nearly parallel lines)."""
    rng = np.random.default_rng(20261020)
    n = 200_000
    dmax = rng.choice([6.0, 8.0, 10.0], n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    oi = rng.uniform(0.0, 40.0, (n, 2))
    heading0 = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    oj = oi + (rng.uniform(0.5, 2.0, n) * dmax)[:, None] * heading0
    dij = np.hypot(*(oj - oi).T)
    u = (oj - oi) / dij[:, None]
    a, b = oi - dmax[:, None] * u, oj + dmax[:, None] * u
    # A segment through a point of the pair line, tilted by phi off it.
    length = rng.uniform(0.01, 15.0, n)
    phi = 10.0 ** rng.uniform(-12.5, -8.0, n) * rng.choice([-1.0, 1.0], n)
    heading = theta + phi
    along = rng.uniform(-1.0, 1.0, n) * dmax
    mid = oi + along[:, None] * u
    # The crossing sits at an end of the segment, within the drift.
    jitter = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-10.0, -4.0, n)
    cross = rng.choice([0.0, 1.0], n) + jitter
    s = length[:, None] * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    c = mid - cross[:, None] * s
    d = c + s
    pts, ok = segment_points(*a.T, *b.T, *c.T, *d.T)
    bound = dmax + EPS
    ok &= (np.abs(pts - oi) <= bound[:, None]).all(axis=1)
    ok &= np.hypot(*(pts - oi).T) <= bound
    ok &= np.hypot(*(pts - oj).T) <= bound
    gap = _box_gap(pts[:, 0], pts[:, 1], c[:, 0], c[:, 1], d[:, 0], d[:, 1])[ok]
    scale = float(np.abs(np.concatenate([a, b, c, d])).max())
    margin = _margins(length[ok], dmax[ok], scale)
    assert ok.sum() > 10_000
    assert (gap > EPS * length[ok]).sum() > 100  # the drift is real ...
    assert (gap <= margin).all(), float((gap / margin).max())  # ... and covered


def test_margin_covers_near_tangent_level_circles():
    """Segments nearly tangent to a circle: every point
    ``circle_segment_points`` reports lies within the margin of the
    circle's box and of the segment's."""
    rng = np.random.default_rng(7)
    n = 200_000
    dmax = rng.choice([6.0, 8.0, 10.0], n)
    r = dmax * rng.uniform(0.2, 1.0, n)
    center = rng.uniform(0.0, 40.0, (n, 2))
    # Half the tangents touch the circle's box, where its rounding shows.
    axis = rng.integers(0, 4, n) * (math.pi / 2.0)
    phi = np.where(rng.random(n) < 0.5, axis, rng.uniform(0.0, 2.0 * math.pi, n))
    normal = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    tangent = np.stack([-normal[:, 1], normal[:, 0]], axis=1)
    offset = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16.0, -7.0, n)
    foot = center + (r + offset)[:, None] * normal
    length = rng.uniform(0.01, 15.0, n)
    a = foot - rng.uniform(0.0, 1.0, n)[:, None] * length[:, None] * tangent
    b = a + length[:, None] * tangent
    pts, ok = circle_segment_points(center[:, 0], center[:, 1], r, *a.T, *b.T)
    scale = float(np.abs(np.concatenate([center, a, b])).max())
    margin = _margins(length, dmax, scale)[:, None]
    seg_gap = _box_gap(pts[..., 0], pts[..., 1], a[:, :1], a[:, 1:], b[:, :1], b[:, 1:])
    circle_gap = np.maximum(np.abs(pts - center[:, None]).max(axis=2) - r[:, None], 0.0)
    assert ok.sum() > 50_000
    assert (circle_gap[ok] > 0.0).any()  # some roots lie outside the circle's box
    assert (seg_gap[ok] <= np.broadcast_to(margin, ok.shape)[ok]).all()
    assert (circle_gap[ok] <= np.broadcast_to(margin, ok.shape)[ok]).all()
