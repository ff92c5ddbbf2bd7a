"""Planar geometry substrate for the HIPO reproduction.

Built from scratch (no shapely dependency): primitives, segment/circle
intersections, simple polygons (obstacles), sector rings (charging and
receiving areas), line-of-sight / hole computations, and grid generators.
"""

from .circles import (
    circle_circle_intersections,
    circle_circle_points,
    circle_segment_intersections,
    circle_segment_points,
    inscribed_angle_arc_centers,
)
from .grid import grid_length_for_radius, square_grid, triangular_grid
from .polygon import Polygon, PolygonSet, convex_hull, rectangle, regular_polygon
from .primitives import (
    EPS,
    TWO_PI,
    angle_of,
    angle_within,
    angles_of,
    cross2,
    dedupe_points,
    distance,
    distances,
    dot2,
    normalize_angle,
    polar_offset,
    rotate,
    signed_angle_diff,
    unit_vector,
)
from .sector import SectorRing
from .segments import (
    on_segment_mask,
    point_on_segment,
    point_segment_distance,
    segment_intersection,
    segment_points,
)
from .visibility import (
    line_of_sight,
    obstacle_boundary_segments,
    shadow_rays,
    visible_mask_many,
    visible_pairs,
)

__all__ = [
    "EPS",
    "TWO_PI",
    "Polygon",
    "PolygonSet",
    "SectorRing",
    "angle_of",
    "angle_within",
    "angles_of",
    "circle_circle_intersections",
    "circle_circle_points",
    "circle_segment_intersections",
    "circle_segment_points",
    "convex_hull",
    "cross2",
    "dedupe_points",
    "distance",
    "distances",
    "dot2",
    "grid_length_for_radius",
    "inscribed_angle_arc_centers",
    "line_of_sight",
    "normalize_angle",
    "obstacle_boundary_segments",
    "on_segment_mask",
    "point_on_segment",
    "point_segment_distance",
    "polar_offset",
    "rectangle",
    "regular_polygon",
    "rotate",
    "segment_intersection",
    "segment_points",
    "shadow_rays",
    "signed_angle_diff",
    "square_grid",
    "triangular_grid",
    "unit_vector",
    "visible_mask_many",
    "visible_pairs",
]
