"""Cross-backend bit-equality: the pyloop kernels must match numpy's.

The seam's contract is *bitwise* interchangeability — candidate sets,
cache blobs and placements may not depend on the kernel set.  Hypothesis
drives the kernels over lattice coordinates (quarter-integer grid) so
degenerate configurations — collinear touches, vertex-grazing rays,
segments lying exactly along edges, zero-aperture sectors — occur with
high probability instead of almost never.  Lattice segments are never
shorter than 0.25, so line of sight is also driven with float segments
whose ends lie within 1e-6 of an obstacle vertex, where every cross
product falls below ``EPS`` and only the grazing split's cuts decide.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.backend import use_backend
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.pyloop_backend import PyLoopBackend
from repro.geometry import Polygon, rectangle, visible_mask_many, visible_pairs
from repro.geometry.visibility import DEFAULT_LOS_CHUNK
from repro.geometry.primitives import TWO_PI
from repro.model import (
    ChargerType,
    CoefficientTable,
    Device,
    DeviceType,
    PairCoefficients,
    PowerEvaluator,
    Scenario,
)

ALTS = [PyLoopBackend()]


@pytest.fixture(scope="session")
def numpy_backend() -> NumpyBackend:
    return NumpyBackend()


def alt_ids():
    return [b.name for b in ALTS]


# Quarter-integer lattice coordinates: exact in binary floating point, so
# collinearity and on-boundary cases are *exact*, not approximate.
coord = st.integers(min_value=-20, max_value=20).map(lambda k: k / 4.0)
point = st.tuples(coord, coord)


@st.composite
def lattice_polygon(draw):
    """A valid (positive-area) axis-aligned rectangle on the lattice."""
    x0 = draw(st.integers(min_value=-16, max_value=12))
    y0 = draw(st.integers(min_value=-16, max_value=12))
    w = draw(st.integers(min_value=1, max_value=8))
    h = draw(st.integers(min_value=1, max_value=8))
    return rectangle(x0 / 2.0, y0 / 2.0, (x0 + w) / 2.0, (y0 + h) / 2.0)


@st.composite
def lattice_triangle(draw):
    """A positive-area triangle on the lattice (degenerate draws rejected)."""
    pts = draw(st.lists(point, min_size=3, max_size=3, unique=True))
    (ax, ay), (bx, by), (cx, cy) = pts
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    assume(area2 != 0)  # reject collinear triples
    return Polygon(pts if area2 > 0 else list(reversed(pts)))


@st.composite
def lattice_l_shape(draw):
    """A non-convex L-shaped hexagon on the lattice: a rectangle with one
    corner cut away, so its reflex vertex can be grazed."""
    x0 = draw(st.integers(min_value=-16, max_value=10))
    y0 = draw(st.integers(min_value=-16, max_value=10))
    w = draw(st.integers(min_value=2, max_value=8))
    h = draw(st.integers(min_value=2, max_value=8))
    a = draw(st.integers(min_value=1, max_value=w - 1))  # foot width
    b = draw(st.integers(min_value=1, max_value=h - 1))  # foot height
    pts = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + b), (x0 + a, y0 + b), (x0 + a, y0 + h), (x0, y0 + h)]
    return Polygon([(x / 2.0, y / 2.0) for x, y in pts])


obstacle = st.one_of(lattice_polygon(), lattice_triangle(), lattice_l_shape())


#: Offsets of at most 1e-6 in steps of 1e-9: a segment between two points
#: this close to one vertex has every cross product with it below ``EPS``.
tiny = st.integers(min_value=-1000, max_value=1000).map(lambda k: k * 1e-9)


@st.composite
def near_vertex_segment(draw, poly: Polygon):
    """A float segment whose ends lie within 1e-6 of one vertex of *poly*,
    each on one of the vertex's two edge lines or off both."""
    verts = np.asarray(poly.vertices, dtype=float)
    k = draw(st.integers(min_value=0, max_value=len(verts) - 1))
    v = verts[k]
    lines = [verts[k - 1] - v, verts[(k + 1) % len(verts)] - v]

    def end() -> tuple[float, float]:
        along = draw(st.sampled_from([*lines, None]))
        if along is None:
            return (float(v[0] + draw(tiny)), float(v[1] + draw(tiny)))
        u = draw(tiny) / float(np.hypot(*along))
        return (float(v[0] + u * along[0]), float(v[1] + u * along[1]))

    return end(), end()


def assert_bits_equal(expected: np.ndarray, got: np.ndarray, label: str) -> None:
    assert got.dtype == expected.dtype, f"{label}: dtype {got.dtype} != {expected.dtype}"
    assert got.shape == expected.shape, f"{label}: shape {got.shape} != {expected.shape}"
    assert got.tobytes() == expected.tobytes(), f"{label}: payload bits differ"


@pytest.mark.parametrize("alt", ALTS, ids=alt_ids())
@settings(max_examples=150, deadline=None)
@given(
    segs=st.lists(st.tuples(point, point), min_size=1, max_size=12),
    poly=obstacle,
)
def test_blocked_segments_bitwise_equal(numpy_backend, alt, segs, poly):
    starts = np.array([s for s, _ in segs], dtype=float)
    ends = np.array([e for _, e in segs], dtype=float)
    c, d, s = poly.edge_arrays()
    expected = numpy_backend.blocked_segments(starts, ends, c, d, s)
    got = alt.blocked_segments(starts, ends, c, d, s)
    assert_bits_equal(expected, np.asarray(got), "blocked_segments")


@pytest.mark.parametrize("alt", ALTS, ids=alt_ids())
@settings(max_examples=150, deadline=None)
@given(poly=obstacle, data=st.data())
def test_blocked_segments_near_vertices_bitwise_equal(numpy_backend, alt, poly, data):
    """Short segments at a vertex: a kernel set that cut them only at the
    vertex, not also where they meet the edge lines, would let some through
    the corner; about one such segment in ten."""
    segs = data.draw(st.lists(near_vertex_segment(poly), min_size=1, max_size=12))
    starts = np.array([s for s, _ in segs], dtype=float)
    ends = np.array([e for _, e in segs], dtype=float)
    c, d, s = poly.edge_arrays()
    expected = numpy_backend.blocked_segments(starts, ends, c, d, s)
    got = alt.blocked_segments(starts, ends, c, d, s)
    assert_bits_equal(expected, np.asarray(got), "blocked_segments")


@pytest.mark.parametrize("alt", ALTS, ids=alt_ids())
@settings(max_examples=100, deadline=None)
@given(
    positions=st.lists(point, min_size=1, max_size=6),
    targets=st.lists(point, min_size=1, max_size=6),
    polys=st.lists(obstacle, min_size=0, max_size=2),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_visible_mask_many_bitwise_equal(numpy_backend, alt, positions, targets, polys, chunk):
    pos = np.array(positions, dtype=float)
    tgt = np.array(targets, dtype=float)
    with use_backend(numpy_backend):
        expected = visible_mask_many(pos, tgt, polys, chunk_size=chunk)
    with use_backend(alt):
        got = visible_mask_many(pos, tgt, polys, chunk_size=chunk)
    assert_bits_equal(expected, got, "visible_mask_many")


@pytest.mark.parametrize("backend", ["numpy", "pyloop"])
@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
@settings(deadline=None)
@given(
    positions=st.lists(point, min_size=0, max_size=6),
    targets=st.lists(point, min_size=1, max_size=6),
    polys=st.lists(obstacle, min_size=0, max_size=2),
    data=st.data(),
)
def test_los_mask_many_pairs_bitwise_equal(backend, chunk, positions, targets, polys, data):
    """Testing only the *pairs* gives the full mask ``& pairs``, bit for bit."""
    pos = np.array(positions, dtype=float).reshape(-1, 2)
    dt = DeviceType("dt", 2.0 * math.pi)
    ev = PowerEvaluator([Device(t, 0.0, dt, 0.1) for t in targets], polys, CoefficientTable({}), [])
    shape = (len(pos), len(targets))
    n = shape[0] * shape[1]
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    all_false = np.zeros(shape, dtype=bool)
    size = DEFAULT_LOS_CHUNK if chunk is None else chunk
    full = visible_mask_many(pos, ev.positions, polys)  # numpy, default chunk: the reference
    # los_mask_many takes no chunk size: run it at *size* through the
    # default of the visible_pairs call it makes.
    with use_backend(backend), pytest.MonkeyPatch.context() as mp:
        mp.setitem(visible_pairs.__kwdefaults__, "chunk_size", size)
        for pairs in (np.array(flags, dtype=bool).reshape(shape), all_false):
            assert_bits_equal(full & pairs, ev.los_mask_many(pos, pairs), "los_mask_many(pairs)")


@settings(deadline=None)
@given(
    segs=st.lists(st.tuples(point, point), min_size=0, max_size=16),
    polys=st.lists(obstacle, min_size=0, max_size=2),
    chunk=st.integers(min_value=1, max_value=16),
)
def test_visible_pairs_chunk_invariant(segs, polys, chunk):
    starts = np.array([s for s, _ in segs], dtype=float).reshape(-1, 2)
    ends = np.array([e for _, e in segs], dtype=float).reshape(-1, 2)
    whole = visible_pairs(starts, ends, polys)
    assert_bits_equal(whole, visible_pairs(starts, ends, polys, chunk_size=chunk), "visible_pairs")
    with use_backend("pyloop"):
        assert_bits_equal(whole, visible_pairs(starts, ends, polys, chunk_size=chunk), "pyloop")


# Bearings on an exact lattice of angles so cone boundaries are grazed.
bearing = st.integers(min_value=0, max_value=63).map(lambda k: k * (TWO_PI / 64.0))
# Half-angles include 0.0 — the zero-area sector — and π (omni cone edge).
half_angle = st.sampled_from(
    [0.0, TWO_PI / 64.0, TWO_PI / 8.0, math.pi / 2.0, math.pi - 1e-9, math.pi]
)


@pytest.mark.parametrize("alt", ALTS, ids=alt_ids())
@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.lists(bearing, min_size=1, max_size=12), min_size=1, max_size=4),
    half=half_angle,
)
@example(rows=[[TWO_PI / 64.0]], half=TWO_PI / 8.0)  # one device (M = 1)
@example(rows=[[0.0, math.pi, TWO_PI / 8.0], [math.pi / 2.0]], half=math.pi / 2.0)  # padded row
def test_sweep_coverage_bitwise_equal(numpy_backend, alt, rows, half):
    # Rows of different lengths, padded with a real bearing: the kernels
    # must ignore padding and leave it 0.0 / False.
    width = max(len(r) for r in rows)
    b = np.array([r + [r[0]] * (width - len(r)) for r in rows], dtype=float)
    m = np.array([len(r) for r in rows])
    thetas_e, cov_e = numpy_backend.sweep_coverage(b, m, half, 1e-9)
    thetas_g, cov_g = alt.sweep_coverage(b, m, half, 1e-9)
    assert_bits_equal(thetas_e, np.asarray(thetas_g), "sweep thetas")
    assert_bits_equal(cov_e, np.asarray(cov_g), "sweep coverage")
    assert thetas_e.shape == (len(rows), width) and cov_e.shape == (len(rows), width, width)
    for r, n in enumerate(m):
        # A device always sits on its own clockwise boundary: diagonal covered.
        assert bool(np.all(np.diagonal(cov_g[r])[:n]))
        assert not np.any(thetas_e[r, n:])
        assert not np.any(cov_e[r, n:]) and not np.any(cov_e[r, :, n:])
        # A row's result does not depend on the rest of the batch.
        one_t, one_c = alt.sweep_coverage(b[r : r + 1, :n], m[r : r + 1], half, 1e-9)
        assert_bits_equal(thetas_e[r : r + 1, :n], np.asarray(one_t), "sweep thetas (one row)")
        assert_bits_equal(cov_e[r : r + 1, :n, :n], np.asarray(one_c), "sweep coverage (one row)")



positive = st.integers(min_value=1, max_value=400).map(lambda k: k / 8.0)


@pytest.mark.parametrize("alt", ALTS, ids=alt_ids())
@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_power_fill_bitwise_equal(numpy_backend, alt, rows, cols, data):
    a = np.array(data.draw(st.lists(positive, min_size=cols, max_size=cols)))
    b = np.array(data.draw(st.lists(positive, min_size=cols, max_size=cols)))
    flat = np.array(data.draw(st.lists(positive, min_size=cols, max_size=cols)))
    grid = np.array(
        data.draw(
            st.lists(
                st.lists(positive, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )
    assert_bits_equal(
        numpy_backend.power_fill(a, b, flat), np.asarray(alt.power_fill(a, b, flat)), "1d"
    )
    assert_bits_equal(
        numpy_backend.power_fill(a, b, grid), np.asarray(alt.power_fill(a, b, grid)), "2d"
    )


# ---------------------------------------------------------------- solves --


def _solve_scenario() -> Scenario:
    """A small obstacle-rich instance for end-to-end byte-equality tests."""
    ct = ChargerType("ct", math.pi / 2.0, 1.0, 6.0)
    dt = DeviceType("dt", 2.0 * math.pi)
    table = CoefficientTable({("ct", "dt"): PairCoefficients(100.0, 5.0)})
    positions = [(4.0, 4.0), (8.0, 11.0), (12.0, 10.0), (16.0, 14.0), (5.0, 15.0)]
    devices = tuple(Device(p, 0.0, dt, 0.5) for p in positions)
    return Scenario(
        bounds=(0.0, 0.0, 20.0, 20.0),
        devices=devices,
        obstacles=(rectangle(6.0, 6.0, 9.0, 9.0), rectangle(12.0, 3.0, 14.0, 5.0)),
        charger_types=(ct,),
        budgets={"ct": 2},
        table=table,
    )


def test_candidates_and_solutions_byte_identical_across_backends():
    """The acceptance criterion, end to end: candidate blobs and placements
    from different backends are byte-for-byte the same."""
    from repro.core import build_candidate_set, solve_hipo
    from repro.core.reuse import serialize_candidate_set

    sc = _solve_scenario()
    backends = ["numpy", "pyloop"]
    blobs = {}
    solutions = {}
    for name in backends:
        with use_backend(name):
            blobs[name] = serialize_candidate_set(build_candidate_set(sc))
            solutions[name] = solve_hipo(sc)
    reference = blobs["numpy"]
    for name in backends[1:]:
        assert blobs[name] == reference, f"candidate blob differs on {name}"
        assert solutions[name].utility == solutions["numpy"].utility
        assert solutions[name].approx_utility == solutions["numpy"].approx_utility
        assert [s.position for s in solutions[name].strategies] == [
            s.position for s in solutions["numpy"].strategies
        ]
        assert [s.orientation for s in solutions[name].strategies] == [
            s.orientation for s in solutions["numpy"].strategies
        ]


def test_cache_key_excludes_backend():
    """Candidate-cache keys are backend-independent: a set extracted on one
    backend warm-starts a solve on another, byte-identically."""
    from repro.core import solve_hipo
    from repro.core.reuse import CandidateSetCache, extraction_cache_key

    sc = _solve_scenario()
    key = extraction_cache_key(sc)
    cache = CandidateSetCache()
    cold = solve_hipo(sc, candidate_cache=cache)
    assert cache.stats()["misses"] == 1
    with use_backend("pyloop"):
        warm = solve_hipo(sc, candidate_cache=cache)
    assert cache.stats()["hits"] == 1
    assert extraction_cache_key(sc) == key  # key is a pure content address
    assert warm.utility == cold.utility
    assert [s.position for s in warm.strategies] == [s.position for s in cold.strategies]


def test_solve_span_records_backend():
    from repro.core import solve_hipo

    for name in ("numpy", "pyloop"):
        with use_backend(name):
            sol = solve_hipo(_solve_scenario())
        assert sol.trace.find_all("solve")[-1].attrs["backend"] == name
        assert sol.trace.find_all("extraction")[-1].attrs["backend"] == name
