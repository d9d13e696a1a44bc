"""Shadow and coverage decisions for families of pairwise disjoint balls.

A point is shadowed by a family of balls when every straight line through
it meets at least one ball.  The package decides that question exactly in
every dimension from 2 up through one polar reduction (an arc cover for two
free directions, a convex-hull test for three or more), decides cap coverage
of the unit sphere, searches for avoiding affine planes in any dimension,
and ships the reference constructions used by the bundled verification
suites.
"""

from .circlecover import Arc, ArcSet, CircleCoverage, cover_circle, uncovered_arcs
from .constructions import (
    Cube14Config,
    LemmaConfig,
    build_cube14,
    build_lemma,
    random_disjoint_balls,
    random_equal_balls,
)
from .geometry import (
    CLOSED,
    OPEN,
    Ball,
    Cap,
    DimensionUnsupported,
    GeometryError,
    PointInsideBall,
    Scene,
    ball_sphere_cap,
)
from .sceneio import dump_scene, load_scene_file, load_scene_text, scene_from_dict, scene_to_dict
from .shadow import (
    NOT_SHADOWED,
    SHADOWED,
    PlaneFrame,
    ShadowVerdict,
    find_avoiding_plane,
    point_shadow,
    tangent_shadow,
)
from .spherecover import CapSet, SphereCoverage, cover_sphere, falsify

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArcSet",
    "Ball",
    "Cap",
    "CapSet",
    "CircleCoverage",
    "CLOSED",
    "Cube14Config",
    "DimensionUnsupported",
    "GeometryError",
    "LemmaConfig",
    "NOT_SHADOWED",
    "OPEN",
    "PlaneFrame",
    "PointInsideBall",
    "Scene",
    "ShadowVerdict",
    "SHADOWED",
    "SphereCoverage",
    "__version__",
    "ball_sphere_cap",
    "build_cube14",
    "build_lemma",
    "cover_circle",
    "cover_sphere",
    "dump_scene",
    "falsify",
    "find_avoiding_plane",
    "load_scene_file",
    "load_scene_text",
    "point_shadow",
    "random_disjoint_balls",
    "random_equal_balls",
    "scene_from_dict",
    "scene_to_dict",
    "tangent_shadow",
]
