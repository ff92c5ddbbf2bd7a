"""Boundary families: coverability on degenerate but legal layouts.

Each fixture below is a scene whose devices or obstacles sit exactly on a
boundary — a device on an obstacle edge, a device at an obstacle vertex,
two devices at one point, an obstacle flush with the arena boundary.
Charger positions come from a quarter-unit lattice over the arena, so they
too land exactly on edges, vertices, ring radii and cone boundaries.  For
every (position, device) pair the batched ``coverable_many`` mask must
agree with the scalar conditions of Eq. (1): the distance ring, the
device's receiving cone and :func:`repro.geometry.line_of_sight` on the
``pyloop`` reference kernels.

*Grazing* segments, which touch an obstacle boundary between their
endpoints without properly crossing an edge, are where the contact rule
of DESIGN.md §6 matters; on those the kernels are also held to an exact
rational reference of the rule.

Zero budgets are a boundary of the discrete problem: a type with budget 0
is dropped from extraction, and with every budget 0 the candidate set is
empty.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.backend import use_backend
from repro.core import (
    CandidateSetCache,
    build_candidate_set,
    deserialize_candidate_set,
    serialize_candidate_set,
    solve_hipo,
)
from repro.geometry import EPS, Polygon, line_of_sight, point_on_segment, rectangle
from repro.model import ChargerType, Device, DeviceType, PowerEvaluator, Scenario

from conftest import make_table

CT = ChargerType("ct", math.pi / 2.0, 1.0, 4.0)
OMNI = DeviceType("omni", 2.0 * math.pi)
HALF = DeviceType("half", math.pi)
NARROW = DeviceType("narrow", math.pi / 2.0)
TABLE = make_table([CT], [OMNI, HALF, NARROW])

BOX = rectangle(4.0, 4.0, 6.0, 6.0)
WEDGE = Polygon([(4.0, 1.0), (7.0, 2.0), (5.0, 3.5)])

#: name → (arena bounds, devices, obstacles)
FAMILIES = {
    "device-on-obstacle-edge": (
        (0.0, 0.0, 10.0, 10.0),
        [
            Device((5.0, 4.0), -math.pi / 2.0, HALF, 0.1),  # bottom edge, facing out
            Device((4.0, 5.0), math.pi, NARROW, 0.1),  # left edge, facing out
            Device((6.0, 4.5), 0.0, OMNI, 0.1),  # right edge, omni
            Device((4.5, 2.25), math.pi, OMNI, 0.1),  # on a slanted edge
        ],
        [BOX, WEDGE],
    ),
    "device-at-obstacle-vertex": (
        (0.0, 0.0, 10.0, 10.0),
        [
            Device((4.0, 4.0), 5.0 * math.pi / 4.0, OMNI, 0.1),
            Device((6.0, 6.0), math.pi / 4.0, HALF, 0.1),
            Device((4.0, 6.0), 3.0 * math.pi / 4.0, NARROW, 0.1),
            Device((7.0, 2.0), 0.0, OMNI, 0.1),  # the wedge's sharp vertex
        ],
        [BOX, WEDGE],
    ),
    "coincident-devices": (
        (0.0, 0.0, 10.0, 10.0),
        [
            Device((3.0, 5.0), math.pi, OMNI, 0.1),
            Device((3.0, 5.0), math.pi, NARROW, 0.1),
            Device((3.0, 5.0), 0.0, NARROW, 0.1),  # same point, facing the box
            Device((8.0, 8.0), 0.0, HALF, 0.1),
            Device((8.0, 8.0), 0.0, HALF, 0.1),  # exact duplicate
        ],
        [BOX],
    ),
    "obstacle-touching-arena-boundary": (
        (0.0, 0.0, 10.0, 10.0),
        [
            Device((3.0, 1.0), 0.0, OMNI, 0.1),
            Device((0.0, 5.0), 0.0, HALF, 0.1),  # on the arena boundary
            Device((2.0, 3.0), math.pi / 2.0, NARROW, 0.1),  # on the obstacle's top edge
            Device((8.5, 8.0), -math.pi / 2.0, HALF, 0.1),  # on the corner obstacle's edge
        ],
        [rectangle(0.0, 0.0, 2.5, 3.0), rectangle(7.0, 8.0, 10.0, 10.0)],
    ),
}


def _scalar_coverable(p, device: Device, obstacles) -> bool:
    """Eq. (1) without the charger cone, one pair at a time."""
    (sx, sy), (ox, oy) = p, device.position
    d = math.hypot(ox - sx, oy - sy)
    if d < CT.dmin - EPS or d > CT.dmax + EPS or d < EPS:
        return False
    bearing_os = math.atan2(sy - oy, sx - ox)
    diff = abs(math.remainder(bearing_os - device.orientation, 2.0 * math.pi))
    if diff > device.dtype.half_angle + EPS:
        return False
    with use_backend("pyloop"):
        return line_of_sight(p, device.position, obstacles)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _grazing(p, q, obstacles) -> bool:
    """Whether segment ``pq`` properly crosses no obstacle edge but meets
    some obstacle's boundary strictly between its endpoints (through a
    vertex, or along an edge).  Exact on the lattice."""
    for h in obstacles:
        for c, d in h.edges():
            r, s = _sub(q, p), _sub(d, c)
            if _cross(r, _sub(c, p)) * _cross(r, _sub(d, p)) < 0 and (
                _cross(s, _sub(p, c)) * _cross(s, _sub(q, c)) < 0
            ):
                return False
    mid = ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)
    return any(
        h.on_boundary(mid)
        or any(
            point_on_segment(v, p, q) and tuple(v) != tuple(p) and tuple(v) != tuple(q)
            for v in h.vertices
        )
        for h in obstacles
    )


def _enters_interior(p, q, obstacles) -> bool:
    """The contact rule in exact rational arithmetic: whether some point of
    the open segment ``pq`` lies strictly inside an obstacle.  The segment
    is cut wherever it meets an edge's line and at the vertices on its own
    line; each piece then lies inside, outside or on the boundary as a
    whole, so its midpoint decides."""
    a, b = (tuple(map(Fraction, x)) for x in (p, q))
    r = _sub(b, a)
    for h in obstacles:
        verts = [tuple(map(Fraction, v)) for v in h.vertices]
        edges = list(zip(verts, verts[1:] + verts[:1]))
        ts = {Fraction(0), Fraction(1)}
        for c, d in edges:
            s, ca = _sub(d, c), _sub(c, a)
            if _cross(r, s):
                ts.add(_cross(ca, s) / _cross(r, s))
            if _cross(r, ca) == 0 and any(r):
                ts.add((ca[0] * r[0] + ca[1] * r[1]) / (r[0] * r[0] + r[1] * r[1]))
        ts = sorted(t for t in ts if 0 <= t <= 1)
        for t0, t1 in zip(ts, ts[1:]):
            tm = (t0 + t1) / 2
            x, y = a[0] + tm * r[0], a[1] + tm * r[1]
            on_edge = any(
                _cross(_sub(d, c), _sub((x, y), c)) == 0
                and min(c[0], d[0]) <= x <= max(c[0], d[0])
                and min(c[1], d[1]) <= y <= max(c[1], d[1])
                for c, d in edges
            )
            odd = sum(
                (c[1] > y) != (d[1] > y) and x < (d[0] - c[0]) * (y - c[1]) / (d[1] - c[1]) + c[0]
                for c, d in edges
            ) % 2
            if odd and not on_edge:
                return True
    return False


def _lattice(bounds) -> np.ndarray:
    xmin, ymin, xmax, ymax = bounds
    xs = np.arange(xmin, xmax + 0.125, 0.25)
    ys = np.arange(ymin, ymax + 0.125, 0.25)
    return np.array([(x, y) for x in xs for y in ys], dtype=float)


@functools.cache
def _scalar_masks(family: str) -> tuple[np.ndarray, np.ndarray]:
    """``(scalar coverability, grazing)`` masks over the family's lattice."""
    bounds, devices, obstacles = FAMILIES[family]
    positions = _lattice(bounds)
    expected = [[_scalar_coverable(p, dev, obstacles) for dev in devices] for p in positions]
    grazing = [[_grazing(p, dev.position, obstacles) for dev in devices] for p in positions]
    return np.array(expected), np.array(grazing)


def _compare(family: str, backend: str):
    """``(coverable_many mask, scalar mask, grazing pairs)`` over the lattice."""
    bounds, devices, obstacles = FAMILIES[family]
    ev = PowerEvaluator(devices, obstacles, TABLE, [CT])
    with use_backend(backend):
        mask, _dists, _bearings = ev.coverable_many(CT, _lattice(bounds))
    return (mask, *_scalar_masks(family))


@pytest.mark.parametrize("backend", ["numpy", "pyloop"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coverable_many_matches_scalar_conditions(family, backend):
    mask, expected, _ = _compare(family, backend)
    bounds, devices, obstacles = FAMILIES[family]
    positions = _lattice(bounds)
    mismatches = [(tuple(positions[i]), j) for i, j in zip(*np.nonzero(mask != expected))]
    assert mismatches == []
    # the lattice reaches every device, and obstacles block some of it
    assert mask.any(axis=0).all()
    ev = PowerEvaluator(devices, [], TABLE, [CT])
    assert (ev.coverable_many(CT, positions)[0] & ~mask).any()


@pytest.mark.parametrize("backend", ["numpy", "pyloop"])
def test_grazing_pairs_match_line_of_sight(backend):
    """Every grazing pair of every family gets the exact contact rule.  The
    lattice must keep at least 54 grazing pairs: the midpoint-only kernel
    that this rule replaced got 54 of them wrong."""
    grazing_pairs = 0
    for family in sorted(FAMILIES):
        bounds, devices, obstacles = FAMILIES[family]
        positions = _lattice(bounds)
        grazing = _scalar_masks(family)[1]
        with use_backend(backend):
            for i, j in zip(*np.nonzero(grazing)):
                p, q = positions[i], devices[j].position
                assert line_of_sight(p, q, obstacles) != _enters_interior(p, q, obstacles), (p, q)
        grazing_pairs += int(grazing.sum())
    assert grazing_pairs >= 54


WIDE = ChargerType("wide", math.pi, 0.5, 3.0)
FAR = ChargerType("far", math.pi / 3.0, 2.0, 6.0)


def _budget_scene(budgets: dict[str, int]) -> Scenario:
    """The edge and vertex devices of the first two families around the box
    and the wedge, with three charger types."""
    devices = FAMILIES["device-on-obstacle-edge"][1] + FAMILIES["device-at-obstacle-vertex"][1]
    return Scenario(
        bounds=(0.0, 0.0, 10.0, 10.0),
        devices=tuple(dataclasses.replace(d, threshold=2.0) for d in devices),
        obstacles=(BOX, WEDGE),
        charger_types=(CT, WIDE, FAR),
        budgets=budgets,
        table=make_table([CT, WIDE, FAR], [OMNI, HALF, NARROW]),
    )


def _placement(solution) -> list:
    return [(s.position, s.orientation, s.ctype.name) for s in solution.strategies]


@pytest.mark.parametrize("backend", ["numpy", "pyloop"])
@pytest.mark.parametrize("zero", [CT.name, WIDE.name, FAR.name])
def test_zero_budget_type_is_left_out(zero, backend):
    """A type with budget 0 has no candidates, no position count and no
    charger in the placement, which equals the placement (and utility) of
    the scenario without that type."""
    budgets = {CT.name: 2, WIDE.name: 1, FAR.name: 1}
    scenario = _budget_scene({**budgets, zero: 0})
    q = [ct.name for ct in scenario.charger_types].index(zero)
    del budgets[zero]
    without = scenario.with_charger_types(
        [ct for ct in scenario.charger_types if ct.name != zero], budgets
    )
    with use_backend(backend):
        solution = solve_hipo(scenario, keep_candidates=True)
        reference = solve_hipo(without)
    cs = solution.candidate_set
    assert cs.num_candidates > 0
    assert q not in cs.part_of
    assert zero not in cs.positions_per_type
    assert zero not in {name for _, _, name in _placement(solution)}
    assert _placement(solution) == _placement(reference)
    assert solution.utility == reference.utility > 0.0


@pytest.mark.parametrize("backend", ["numpy", "pyloop"])
def test_all_budgets_zero_give_an_empty_set(backend):
    """All budgets 0: an empty candidate set that round-trips the codec,
    hits the cache and solves to utility 0 with no strategies."""
    scenario = _budget_scene({CT.name: 0, WIDE.name: 0, FAR.name: 0})
    n = scenario.num_devices
    with use_backend(backend):
        cs = build_candidate_set(scenario)
        cache = CandidateSetCache()
        cold = solve_hipo(scenario, candidate_cache=cache)
        warm = solve_hipo(scenario, candidate_cache=cache, keep_candidates=True)
    blob = serialize_candidate_set(cs)
    for got in (cs, deserialize_candidate_set(blob), deserialize_candidate_set(blob, scenario)):
        assert got.approx_power.shape == got.exact_power.shape == (0, n)
        assert got.positions.shape == (0, 2) and got.orientations.shape == (0,)
        assert got.part_of == [] and got.strategies == []
        assert got.positions_per_type == {}
        assert serialize_candidate_set(got) == blob
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
    assert warm.candidate_set.num_candidates == 0
    for solution in (cold, warm):
        assert solution.utility == solution.approx_utility == 0.0
        assert solution.strategies == []
