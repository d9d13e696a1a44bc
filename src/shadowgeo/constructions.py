"""Builders for the reference configurations and seeded random scenes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CLOSED,
    OPEN,
    Ball,
    GenerationFailed,
    InvariantViolation,
    Scene,
    flat_clearances,
)
from .sampling import sample_sphere

_CONSTRUCTION_TOL = 1e-12
_MAX_REJECTIONS = 100_000
_MIN_GAP = 0.01     # least surface gap between two sampled balls
_STANDOFF = 0.05    # least clearance of a sampled exterior point
_CENTER_BOX = 5.0   # half-width of the box random_disjoint_balls draws centers from
_POINT_BOX = 6.0    # half-width of the box random_exterior_point draws from


@dataclass(eq=False)
class LemmaConfig:
    """Equilateral triangle with a disc of half the altitude at each vertex.

    With side s the discs have radius s*sqrt(3)/4 < s/2, so they are
    pairwise disjoint, while the circumscribed circle (radius s/sqrt(3))
    stays inside the convex hull of the three discs.
    """

    side: float
    vertices: np.ndarray
    disc_radius: float
    scene: Scene

    @property
    def circumradius(self) -> float:
        return self.side / math.sqrt(3.0)

    @property
    def circumcenter(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


def build_lemma(side: float = 1.0) -> LemmaConfig:
    """Three closed discs of radius side*sqrt(3)/4 at the vertices of an equilateral triangle."""
    if not (math.isfinite(side) and side > 0):
        raise ValueError("triangle side must be positive")
    s = float(side)
    vertices = np.array([
        [0.0, 0.0],
        [s, 0.0],
        [s / 2.0, s * math.sqrt(3.0) / 2.0],
    ])
    rho = s * math.sqrt(3.0) / 4.0
    balls = [Ball(v, rho, CLOSED) for v in vertices]
    scene = Scene(2, balls, label=f"lemma-triangle-side-{s:g}")
    if scene.disjointness_violations(_CONSTRUCTION_TOL):
        raise InvariantViolation("vertex discs must be pairwise disjoint")
    return LemmaConfig(side=s, vertices=vertices, disc_radius=rho, scene=scene)


@dataclass(eq=False)
class Cube14Config:
    """Fourteen balls centered on the unit sphere: cube vertices plus face centers.

    The eight vertex balls have radius 1/sqrt(3), half the cube edge, so
    adjacent ones are exactly tangent; each face ball's radius
    sqrt(2 - 2/sqrt(3)) - 1/sqrt(3) makes it tangent to the four vertex
    balls of its face.  That yields 12 + 24 tangent pairs and no overlaps.
    ``pairs`` is the self-check's census of all 91 pairs: tangent, disjoint
    and overlapping at 1e-12.
    """

    scene: Scene
    vertex_radius: float
    face_radius: float
    tangent_vertex_pairs: int
    tangent_face_pairs: int
    pairs: dict


def build_cube14(topology: str = OPEN) -> Cube14Config:
    """The 8 + 6 tangent ball configuration, self-checked at 1e-12."""
    r = 1.0 / math.sqrt(3.0)
    r1 = math.sqrt(2.0 - 2.0 / math.sqrt(3.0)) - r
    balls = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                balls.append(Ball(np.array([sx, sy, sz]) * r, r, topology))
    for axis in range(3):
        for sign in (1.0, -1.0):
            c = np.zeros(3)
            c[axis] = sign
            balls.append(Ball(c, r1, topology))
    scene = Scene(3, balls, label="cube14")
    i, j = np.triu_indices(14, 1)
    gaps = scene.pair_gaps()[i, j]
    # number of vertex balls (0, 1 or 2) in each tangent pair
    ff, vf, vv = np.bincount(((i < 8).astype(int) + (j < 8))[np.abs(gaps) <= _CONSTRUCTION_TOL],
                             minlength=3).tolist()
    overlapping = int(np.count_nonzero(gaps < -_CONSTRUCTION_TOL))
    counts = {"vv_tangent": vv, "vf_tangent": vf, "ff_tangent": ff, "overlapping": overlapping}
    if counts != {"vv_tangent": 12, "vf_tangent": 24, "ff_tangent": 0, "overlapping": 0}:
        raise InvariantViolation(f"unexpected tangency structure: {counts}")
    tangent = vv + vf + ff
    pairs = {"tangent": tangent, "disjoint": len(gaps) - tangent - overlapping,
             "overlapping": overlapping}
    return Cube14Config(scene=scene, vertex_radius=r, face_radius=r1,
                        tangent_vertex_pairs=12, tangent_face_pairs=24, pairs=pairs)


def _place_disjoint(k: int, dim: int, draw, failure: str) -> tuple[np.ndarray, list[float]]:
    """Rejection-sample k balls, one ``draw() -> (radius, centre)`` per attempt.

    An attempt is kept when it keeps a surface gap of _MIN_GAP to every kept ball.
    """
    centers, radii = np.empty((k, dim)), np.empty(k)
    placed = rejections = 0
    while placed < k:
        r, c = draw()
        if (flat_clearances(centers[:placed], radii[:placed], c) >= r + _MIN_GAP).all():
            centers[placed], radii[placed] = c, r
            placed += 1
        else:
            rejections += 1
            if rejections > _MAX_REJECTIONS:
                raise GenerationFailed(failure)
    return centers, radii.tolist()


def random_equal_balls(dim: int, k: int, radius: float, seed: int,
                       topology: str = CLOSED, box: float = 5.0) -> Scene:
    """k disjoint equal balls with centers drawn uniformly from [-box, box]^dim.

    Rejection sampling keeps center separations at least 2*radius + 0.01;
    the same seed always returns the same scene.  The radius must be finite
    and positive.
    """
    if k < 0 or dim < 1 or not (math.isfinite(radius) and radius > 0):
        raise ValueError("need dim >= 1, k >= 0 and a finite positive radius")
    rng = np.random.default_rng(seed)
    centers, radii = _place_disjoint(
        k, dim, lambda: (radius, rng.uniform(-box, box, dim)),
        f"could not place {k} balls of radius {radius} in a box of half-width {box}")
    balls = [Ball(c, r, topology) for c, r in zip(centers, radii)]
    return Scene(dim, balls, label=f"random-equal-{dim}d-k{k}-seed{seed}")


def random_disjoint_balls(dim: int, k: int, seed: int,
                          radius_range: tuple[float, float] = (0.2, 1.5)) -> Scene:
    """k disjoint closed balls with radii drawn uniformly from radius_range = (lo, hi).

    Centers are drawn from [-5, 5]^dim and rejection sampling keeps surface
    gaps of at least 0.01; the range must satisfy 0 < lo <= hi < inf.
    """
    lo, hi = radius_range
    if k < 0 or dim < 1 or not (0 < lo <= hi and math.isfinite(hi)):
        raise ValueError("need dim >= 1, k >= 0 and a finite 0 < lo <= hi")
    rng = np.random.default_rng(seed)
    # radius first, then centre: the order every seeded scene was drawn in
    centers, radii = _place_disjoint(
        k, dim, lambda: (rng.uniform(lo, hi), rng.uniform(-_CENTER_BOX, _CENTER_BOX, dim)),
        f"could not place {k} balls with radii in {radius_range}")
    balls = [Ball(c, r, CLOSED) for c, r in zip(centers, radii)]
    return Scene(dim, balls, label=f"random-{dim}d-k{k}-seed{seed}")


def boundary_sample(scene: Scene, ball_index: int, count: int, seed: int) -> list[np.ndarray]:
    """Seeded points on one ball's boundary sphere, outside all other closed balls.

    Points falling inside or on another ball are filtered out, so two
    tangent balls lose each other's tangency point.  May return fewer than
    ``count`` points.
    """
    if not 0 <= ball_index < len(scene.balls):
        raise IndexError(f"ball index {ball_index} out of range")
    dirs = sample_sphere(count, seed, scene.dim)
    pts = scene.centers[ball_index] + scene.radii[ball_index] * dirs
    clear = flat_clearances(scene.centers, scene.radii, pts)
    clear[:, ball_index] = math.inf
    return list(pts[clear.min(axis=1) > 0.0])


def random_exterior_point(scene: Scene, seed: int) -> np.ndarray:
    """A seeded point of [-6, 6]^dim at clearance >= 0.05 from every ball in the scene."""
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_REJECTIONS):
        x = rng.uniform(-_POINT_BOX, _POINT_BOX, scene.dim)
        if not scene.balls or float(scene.clearances(x).min()) >= _STANDOFF:
            return x
    raise GenerationFailed("could not find an exterior point clear of every ball")
