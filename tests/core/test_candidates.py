"""Tests for candidate position generation (Algorithms 2/4 geometry)."""

import math

import numpy as np
import pytest

from repro.core import CandidateGenerator
from repro.geometry import distance, rectangle

from conftest import simple_scenario


def make_gen(sc, **kw):
    return CandidateGenerator(sc, **kw)


def test_device_curves_structure():
    sc = simple_scenario([(10.0, 10.0)], device_angle=math.pi, obstacles=[rectangle(3, 3, 5, 5)])
    gen = make_gen(sc)
    ct = sc.charger_types[0]
    curves = gen.device_curves(ct, 0)
    # Level circles all centered at the device, radii within [dmin, dmax].
    assert len(curves.circles) >= 2
    for c, r in curves.circles:
        assert np.allclose(c, [10.0, 10.0])
        assert sc.charger_types[0].dmin - 1e-9 <= r <= sc.charger_types[0].dmax + 1e-9
    # Cone edges present (receiving angle < 2*pi) plus hole rays.
    assert len(curves.segments) >= 2
    # Cached
    assert gen.device_curves(ct, 0) is curves


def test_device_curves_full_circle_receiver_has_no_cone_edges():
    sc = simple_scenario([(10.0, 10.0)], device_angle=2.0 * math.pi)
    gen = make_gen(sc)
    curves = gen.device_curves(sc.charger_types[0], 0)
    assert curves.segments == []  # no obstacles, no cone edges


def test_neighbor_indices_radius():
    sc = simple_scenario([(0.0, 0.0), (5.0, 0.0), (19.0, 19.0)], dmax=6.0)
    gen = make_gen(sc)
    ct = sc.charger_types[0]
    nb = gen.neighbor_indices(ct, 0)
    assert 1 in nb and 2 not in nb and 0 not in nb


def test_positions_feasible_and_in_region():
    obs = [rectangle(6.0, 6.0, 9.0, 9.0)]
    sc = simple_scenario([(4.0, 4.0), (12.0, 12.0), (4.0, 12.0)], obstacles=obs)
    gen = make_gen(sc)
    pts = gen.positions(sc.charger_types[0])
    assert len(pts) > 0
    for p in pts:
        assert sc.in_region(p)
        assert not obs[0].contains(p, include_boundary=False)


def test_positions_nonempty_for_single_device():
    sc = simple_scenario([(10.0, 10.0)])
    pts = make_gen(sc).positions(sc.charger_types[0])
    assert len(pts) > 0
    # All single-device candidates lie within the device's reach band.
    d = np.hypot(pts[:, 0] - 10.0, pts[:, 1] - 10.0)
    assert np.all(d <= sc.charger_types[0].dmax + 1e-6)


def test_pair_positions_within_reach_of_both():
    sc = simple_scenario([(8.0, 10.0), (12.0, 10.0)])
    gen = make_gen(sc)
    ct = sc.charger_types[0]
    pts = gen.positions_for_pair(ct, 0, 1)
    assert len(pts) > 0
    for p in pts:
        assert distance(p, (8.0, 10.0)) <= ct.dmax + 1e-6
        assert distance(p, (12.0, 10.0)) <= ct.dmax + 1e-6


def test_pair_positions_empty_when_far_apart():
    sc = simple_scenario([(1.0, 1.0), (19.0, 19.0)], dmax=6.0)
    gen = make_gen(sc)
    assert gen.positions_for_pair(sc.charger_types[0], 0, 1) == []


def test_pair_loci_cover_joint_coverage_positions():
    """Somewhere among the pair candidates there must be a strategy position
    from which BOTH devices are coverable (they are 4 m apart, well within
    the ring)."""
    sc = simple_scenario([(8.0, 10.0), (12.0, 10.0)], charger_angle=math.pi / 2)
    gen = make_gen(sc)
    ct = sc.charger_types[0]
    ev = sc.evaluator()
    pts = gen.positions_for_task(ct, 0)
    found = False
    for p in pts:
        mask, _d, _b = ev.coverable(ct, p)
        if mask.all():
            found = True
            break
    assert found


def test_eps_validation():
    sc = simple_scenario([(10.0, 10.0)])
    with pytest.raises(ValueError):
        CandidateGenerator(sc, eps=0.6)


def test_finer_eps_more_positions():
    sc = simple_scenario([(6.0, 10.0), (10.0, 10.0)])
    coarse = make_gen(sc, eps=0.3).positions(sc.charger_types[0])
    fine = make_gen(sc, eps=0.05).positions(sc.charger_types[0])
    assert len(fine) > len(coarse)


def test_obstacle_adds_hole_ray_candidates():
    base = simple_scenario([(4.0, 10.0), (16.0, 10.0)])
    with_obs = simple_scenario(
        [(4.0, 10.0), (16.0, 10.0)], obstacles=[rectangle(9.0, 9.5, 11.0, 10.5)]
    )
    n_base = len(make_gen(base).positions(base.charger_types[0]))
    n_obs = len(make_gen(with_obs).positions(with_obs.charger_types[0]))
    # Obstacles forbid some area but add boundary/hole candidates; the
    # generator must still produce a healthy candidate set.
    assert n_obs > 0 and n_base > 0
