"""Tests for the workload generators."""

import numpy as np
import pytest

from repro.experiments import (
    clustered_devices,
    cluttered_scenario,
    random_convex_obstacle,
    random_star_obstacle,
)
from repro.geometry import cross2


def is_convex(poly):
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
        if cross2((b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])) < -1e-9:
            return False
    return True


def test_random_convex_obstacle_is_convex(rng):
    for _ in range(10):
        poly = random_convex_obstacle(rng, (10.0, 10.0), 3.0)
        assert is_convex(poly)
        assert poly.area > 0.0
        # Stays within the sampling disk.
        for v in poly.vertices:
            assert np.hypot(v[0] - 10.0, v[1] - 10.0) <= 3.0 + 1e-9


def test_random_convex_obstacle_validation(rng):
    with pytest.raises(ValueError):
        random_convex_obstacle(rng, (0, 0), 0.0)


def test_random_star_obstacle_simple_and_bounded(rng):
    for _ in range(10):
        poly = random_star_obstacle(rng, (5.0, 5.0), 1.0, 3.0, vertices=9)
        assert poly.area > 0.0
        # Star-shaped about its center: every vertex within [rmin, rmax].
        for v in poly.vertices:
            r = np.hypot(v[0] - 5.0, v[1] - 5.0)
            assert 1.0 - 1e-9 <= r <= 3.0 + 1e-9
        # The center is inside (star-shaped about it).
        assert poly.contains((5.0, 5.0))


def test_random_star_obstacle_validation(rng):
    with pytest.raises(ValueError):
        random_star_obstacle(rng, (0, 0), 3.0, 1.0)


def test_clustered_devices_counts_and_feasibility(rng):
    from repro.geometry import rectangle

    obstacles = (rectangle(15.0, 15.0, 25.0, 25.0),)
    devices = clustered_devices(rng, clusters=3, per_cluster=5, obstacles=obstacles)
    assert len(devices) == 15
    for d in devices:
        assert 0.0 <= d.position[0] <= 40.0 and 0.0 <= d.position[1] <= 40.0
        assert not any(h.contains(d.position) for h in obstacles)


def test_clustered_devices_actually_cluster(rng):
    devices = clustered_devices(rng, clusters=2, per_cluster=10, spread=1.5)
    pts = np.array([d.position for d in devices])
    # Mean nearest-neighbour distance should be far below the uniform
    # expectation (~half the region scale here).
    d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    np.fill_diagonal(d, np.inf)
    assert d.min(axis=1).mean() < 3.0


def test_cluttered_scenario_structure(rng):
    sc = cluttered_scenario(rng, num_obstacles=3, clusters=2, per_cluster=4)
    assert len(sc.obstacles) == 3
    assert sc.num_devices == 8
    assert sc.num_chargers == 18
    for d in sc.devices:
        assert not any(h.contains(d.position) for h in sc.obstacles)


def test_cluttered_scenario_solvable(rng):
    from repro import solve_hipo

    sc = cluttered_scenario(rng, num_obstacles=2, clusters=2, per_cluster=3, charger_multiple=1)
    sol = solve_hipo(sc)
    assert 0.0 <= sol.utility <= 1.0


# ----------------------------------------------- seeds and the registry --


def test_as_generator_coercions():
    from repro.experiments.generators import as_generator

    g = as_generator(7)
    assert isinstance(g, np.random.Generator)
    # Integer seeds are deterministic shorthand for default_rng(seed).
    assert as_generator(7).random() == np.random.default_rng(7).random()
    passthrough = np.random.default_rng(1)
    assert as_generator(passthrough) is passthrough
    with pytest.raises(TypeError):
        as_generator(1.5)
    with pytest.raises(TypeError):
        as_generator(True)  # bools are not seeds


def test_generators_accept_plain_int_seeds():
    s1 = cluttered_scenario(99, num_obstacles=2, clusters=2, per_cluster=2)
    s2 = cluttered_scenario(99, num_obstacles=2, clusters=2, per_cluster=2)
    assert [d.position for d in s1.devices] == [d.position for d in s2.devices]
