"""Workload generators beyond the paper's uniform topology.

§6 samples device positions uniformly over the free area.  Real deployments
are rarely uniform — sensors cluster around assets and obstacles come in
many shapes — so the benchmark harness and examples also exercise:

* random convex and star-shaped polygonal obstacles,
* clustered device topologies (Gaussian blobs around hotspots),
* fully cluttered scenarios combining both.

All generators take an explicit ``numpy.random.Generator`` and compose with
the Tables 2–4 hardware defaults.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import TWO_PI, Polygon, convex_hull
from ..model import Device, Scenario
from .scenarios import (
    DEFAULT_THRESHOLD,
    default_budgets,
    default_charger_types,
    default_coefficients,
    default_device_types,
)

__all__ = [
    "as_generator",
    "random_convex_obstacle",
    "random_star_obstacle",
    "clustered_devices",
    "cluttered_scenario",
]


def as_generator(rng: np.random.Generator | int) -> np.random.Generator:
    """Coerce an explicit seed into a ``numpy.random.Generator``.

    Every generator in this module takes its randomness explicitly — there
    is no module-level RNG to leak state between calls (rule DET101).  This
    helper lets callers pass either a ready ``Generator`` or a plain integer
    seed; anything else raises ``TypeError``.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return np.random.default_rng(int(rng))
    raise TypeError(f"expected np.random.Generator or int seed, got {type(rng).__name__}")


def random_convex_obstacle(
    rng: np.random.Generator | int,
    center: tuple[float, float],
    radius: float,
    *,
    points: int = 8,
) -> Polygon:
    """Convex obstacle: hull of random points in a disk around *center*."""
    rng = as_generator(rng)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    for _ in range(32):
        thetas = rng.uniform(0.0, TWO_PI, size=max(points, 4))
        radii = rng.uniform(0.35 * radius, radius, size=len(thetas))
        pts = np.column_stack(
            [center[0] + radii * np.cos(thetas), center[1] + radii * np.sin(thetas)]
        )
        try:
            return convex_hull(pts)
        except ValueError:
            continue  # collinear draw; retry
    raise RuntimeError("could not build a convex obstacle")


def random_star_obstacle(
    rng: np.random.Generator | int,
    center: tuple[float, float],
    rmin: float,
    rmax: float,
    *,
    vertices: int = 8,
) -> Polygon:
    """Star-shaped (possibly non-convex) simple polygon around *center*.

    Angles are sorted so consecutive vertices never cross — the polygon is
    simple by construction, matching the paper's "arbitrary shapes".
    """
    rng = as_generator(rng)
    if not (0.0 < rmin <= rmax):
        raise ValueError("need 0 < rmin <= rmax")
    n = max(vertices, 3)
    # Stratified angles: one per sector, so the largest angular gap stays
    # below 2 * (2*pi/n) and the polygon is star-shaped about the center.
    thetas = (np.arange(n) + rng.uniform(0.0, 1.0, size=n)) * (TWO_PI / n)
    radii = rng.uniform(rmin, rmax, size=len(thetas))
    pts = np.column_stack(
        [center[0] + radii * np.cos(thetas), center[1] + radii * np.sin(thetas)]
    )
    return Polygon(pts)


def clustered_devices(
    rng: np.random.Generator | int,
    *,
    clusters: int = 3,
    per_cluster: int = 6,
    spread: float = 3.0,
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 40.0, 40.0),
    obstacles: tuple[Polygon, ...] = (),
    threshold: float = DEFAULT_THRESHOLD,
) -> list[Device]:
    """Devices in Gaussian blobs around random hotspot centers.

    Draws falling outside the region or inside obstacles are re-sampled;
    device types cycle through the Table 3 catalogue.
    """
    rng = as_generator(rng)
    xmin, ymin, xmax, ymax = bounds
    dtypes = default_device_types()
    centers = [
        (rng.uniform(xmin + spread, xmax - spread), rng.uniform(ymin + spread, ymax - spread))
        for _ in range(clusters)
    ]
    devices: list[Device] = []
    k = 0
    for cx, cy in centers:
        for _ in range(per_cluster):
            for _attempt in range(1000):
                p = (rng.normal(cx, spread), rng.normal(cy, spread))
                if xmin <= p[0] <= xmax and ymin <= p[1] <= ymax and not any(
                    h.contains(p) for h in obstacles
                ):
                    break
            else:  # pragma: no cover - pathological geometry
                raise RuntimeError("could not place a clustered device")
            devices.append(Device(p, rng.uniform(0.0, TWO_PI), dtypes[k % len(dtypes)], threshold))
            k += 1
    return devices


def cluttered_scenario(
    rng: np.random.Generator | int,
    *,
    num_obstacles: int = 4,
    clusters: int = 3,
    per_cluster: int = 6,
    charger_multiple: int = 3,
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 40.0, 40.0),
    threshold: float = DEFAULT_THRESHOLD,
) -> Scenario:
    """A clutter-heavy instance: random star/convex obstacles + clustered
    devices + the Tables 2–4 hardware defaults."""
    rng = as_generator(rng)
    xmin, ymin, xmax, ymax = bounds
    obstacles: list[Polygon] = []
    for i in range(num_obstacles):
        center = (rng.uniform(xmin + 6, xmax - 6), rng.uniform(ymin + 6, ymax - 6))
        if i % 2 == 0:
            obstacles.append(random_star_obstacle(rng, center, 1.5, 3.5, vertices=7))
        else:
            obstacles.append(random_convex_obstacle(rng, center, 3.0, points=7))
    devices = clustered_devices(
        rng,
        clusters=clusters,
        per_cluster=per_cluster,
        bounds=bounds,
        obstacles=tuple(obstacles),
        threshold=threshold,
    )
    return Scenario(
        bounds=bounds,
        devices=tuple(devices),
        obstacles=tuple(obstacles),
        charger_types=tuple(default_charger_types()),
        budgets=default_budgets(charger_multiple),
        table=default_coefficients(),
    )
