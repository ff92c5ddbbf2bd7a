"""Tests for line-of-sight and hole (shadow) computations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import use_backend
from repro.geometry import (
    Polygon,
    distance,
    line_of_sight,
    obstacle_boundary_segments,
    rectangle,
    shadow_rays,
    visible_mask_many,
    visible_pairs,
)

coords = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def test_line_of_sight_blocked_and_clear():
    obs = [rectangle(2, 2, 4, 4)]
    assert not line_of_sight((0, 3), (6, 3), obs)
    assert line_of_sight((0, 5), (6, 5), obs)
    assert line_of_sight((0, 0), (1, 1), obs)


def test_line_of_sight_no_obstacles():
    assert line_of_sight((0, 0), (100, 100), [])


def test_visible_mask_mixed():
    obs = [rectangle(2, 2, 4, 4)]
    targets = np.array([[6.0, 3.0], [6.0, 7.0], [1.0, 1.0]])
    mask = visible_mask_many([(0.0, 3.0)], targets, obs)
    assert mask.tolist() == [[False, True, True]]


def test_visible_mask_empty_targets():
    assert visible_mask_many([(0, 0)], np.zeros((0, 2)), [rectangle(1, 1, 2, 2)]).shape == (1, 0)


@settings(max_examples=60)
@given(
    st.lists(st.tuples(coords, coords), min_size=1, max_size=3),
    st.lists(st.tuples(coords, coords), min_size=1, max_size=12),
)
def test_visible_mask_matches_scalar_path(positions, targets):
    obs = [rectangle(2.0, 2.0, 4.5, 4.5), Polygon([(6.0, 1.0), (8.5, 2.0), (7.0, 4.0)])]
    pts = np.array(targets, dtype=float)
    out = visible_mask_many(positions, pts, obs)
    with use_backend("pyloop"):  # the scalar-loop reference
        for i, p in enumerate(positions):
            for k, t in enumerate(pts):
                assert out[i, k] == line_of_sight(p, t, obs)


def test_shadow_rays_extend_to_rmax():
    obs = rectangle(3, -1, 4, 1)
    device = (0.0, 0.0)
    rays = shadow_rays(device, obs, rmax=10.0)
    assert len(rays) == 4
    for start, end in rays:
        # Each ray starts at an obstacle vertex and ends at distance rmax.
        assert any(np.allclose(start, v) for v in obs.vertices)
        assert math.isclose(distance(device, end), 10.0, rel_tol=1e-9)
        # start, end, device are collinear with end beyond start
        assert distance(device, end) > distance(device, start)


def test_shadow_rays_skip_far_vertices():
    obs = rectangle(3, -1, 4, 1)
    rays = shadow_rays((0.0, 0.0), obs, rmax=3.05)
    # Only the two near vertices (distance ~3.16? no: (3,±1) at ~3.16) — all
    # four vertices are beyond 3.05, so no rays at all.
    assert rays == []


def test_shadow_blocks_points_behind_obstacle():
    obs = [rectangle(3, -1, 4, 1)]
    device = (0.0, 0.0)
    # A point straight behind the obstacle is in the hole.
    assert not line_of_sight(device, (6.0, 0.0), obs)
    # A point at the same distance but off-axis is visible.
    assert line_of_sight(device, (6.0, 5.0), obs)


def test_obstacle_boundary_segments_count():
    obs = [rectangle(0, 0, 1, 1), Polygon([(2, 2), (3, 2), (2.5, 3)])]
    segs = obstacle_boundary_segments(obs)
    assert len(segs) == 4 + 3


def test_visible_mask_many_matches_serial_rows():
    obs = [rectangle(3, 3, 5, 5), Polygon([(7, 1), (9, 1), (8, 3)])]
    rng = np.random.default_rng(42)
    positions = rng.uniform(0.0, 10.0, size=(23, 2))
    targets = rng.uniform(0.0, 10.0, size=(11, 2))
    out = visible_mask_many(positions, targets, obs)
    assert out.shape == (23, 11)
    for i, p in enumerate(positions):
        assert np.array_equal(out[i], visible_mask_many(p[None], targets, obs)[0])


def test_visible_mask_many_chunking_invariant():
    obs = [rectangle(2, 2, 4, 4)]
    rng = np.random.default_rng(7)
    positions = rng.uniform(0.0, 8.0, size=(17, 2))
    targets = rng.uniform(0.0, 8.0, size=(9, 2))
    full = visible_mask_many(positions, targets, obs)
    for chunk in (1, 5, 9, 1000):
        assert np.array_equal(full, visible_mask_many(positions, targets, obs, chunk_size=chunk))


def test_visible_mask_many_no_obstacles_all_true():
    out = visible_mask_many(np.zeros((3, 2)), np.ones((4, 2)), [])
    assert out.shape == (3, 4) and out.all()


def test_visible_mask_many_empty_inputs():
    obs = [rectangle(0, 0, 1, 1)]
    assert visible_mask_many(np.zeros((0, 2)), np.ones((4, 2)), obs).shape == (0, 4)
    assert visible_mask_many(np.zeros((3, 2)), np.zeros((0, 2)), obs).shape == (3, 0)


def test_visible_pairs_matches_line_of_sight():
    obs = [rectangle(3, 3, 5, 5), Polygon([(7, 1), (9, 1), (8, 3)])]
    rng = np.random.default_rng(11)
    starts = rng.uniform(0.0, 10.0, size=(60, 2))
    ends = rng.uniform(0.0, 10.0, size=(60, 2))
    out = visible_pairs(starts, ends, obs)
    assert out.shape == (60,) and out.dtype == bool
    with use_backend("pyloop"):
        assert out.tolist() == [line_of_sight(a, b, obs) for a, b in zip(starts, ends)]
    assert not out.all() and out.any()
    for chunk in (1, 7, 59):
        assert np.array_equal(out, visible_pairs(starts, ends, obs, chunk_size=chunk))


def test_visible_pairs_rejects_mismatched_endpoints():
    with pytest.raises(ValueError, match="3 segment starts but 2 ends"):
        visible_pairs(np.zeros((3, 2)), np.zeros((2, 2)), [])


def test_chunk_size_validated_before_any_shortcut():
    obs = [rectangle(0, 0, 1, 1)]
    for fn in (visible_pairs, visible_mask_many):
        for args in (
            (np.zeros((3, 2)), np.ones((3, 2)), []),  # no obstacles
            (np.zeros((0, 2)), np.zeros((0, 2)), obs),  # empty inputs
            (np.zeros((3, 2)), np.ones((3, 2)), obs),
        ):
            with pytest.raises(ValueError, match="chunk_size must be positive"):
                fn(*args, chunk_size=0)
