"""Verification harnesses for the coverage and shadow claims.

Each ``check_*`` function runs seeded randomized trials of one property
and returns a :class:`PropertyReport` whose failures carry everything
needed to replay them: the seed, the scene, the point, and the verdict.
``verify_lemma`` sweeps a grid over the convex hull of the three-disc
configuration, ``analyze_example2`` works through the 14-ball
configuration end to end, and ``slice_connectivity`` rasterizes a planar
slice to count complement components.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .constructions import (
    build_cube14,
    build_lemma,
    random_disjoint_balls,
    random_equal_balls,
    random_exterior_point,
    boundary_sample,
)
from .geometry import (
    OPEN,
    TOL,
    BadDimension,
    Scene,
    ball_sphere_cap,
    flat_clearances,
)
from .sampling import fibonacci_sphere
from .sceneio import scene_to_dict
from .shadow import (
    INDETERMINATE,
    NOT_SHADOWED,
    SHADOWED,
    PlaneFrame,
    point_shadow,
    tangent_shadow,
)
from .spherecover import (
    CapSet,
    SphereCoverage,
    cover_sphere,
    margin,
    uncovered_area_estimate,
)

PASS = "pass"
FAIL = "fail"
INDETERMINATE_ONLY = "indeterminate-only"


@dataclass(eq=False)
class PropertyReport:
    """Tally of one randomized property suite.

    passes + len(failures) + indeterminates == trials.  A failure entry
    records enough to replay the offending trial by hand.
    """

    name: str
    trials: int
    passes: int
    failures: list[dict] = field(default_factory=list)
    indeterminates: int = 0
    details: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.failures:
            return FAIL
        if self.indeterminates:
            return INDETERMINATE_ONLY
        return PASS

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "indeterminates": self.indeterminates,
            "details": self.details,
        }


def _trial_seeds(seed: int, trials: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=trials)]


def _witness_entry(verdict) -> dict:
    return {
        "direction": None if verdict.witness_direction is None
        else [float(c) for c in verdict.witness_direction],
        "margin": verdict.margin,
    }


def _run_trials(report: PropertyReport, seed: int, tol: float, draw) -> int:
    """Run ``report.trials`` seeded trials of "no point is shadowed" into ``report``.

    ``draw(s)`` gives the scene and the points of the trial with seed s.
    A point passes with a not_shadowed verdict whose margin exceeds tol;
    the first point that neither passes nor is indeterminate fails the
    trial, and its replay record is kept.  A trial with no failure but
    some indeterminate point counts as indeterminate.  Returns the
    number of points decided.
    """
    tested = 0
    for trial, s in enumerate(_trial_seeds(seed, report.trials)):
        scene, points = draw(s)
        failed = None
        saw_indeterminate = False
        for p in points:
            tested += 1
            verdict = point_shadow(scene, p, tol)
            if verdict.verdict == NOT_SHADOWED and verdict.margin is not None \
                    and verdict.margin > tol:
                continue
            if verdict.verdict == INDETERMINATE:
                saw_indeterminate = True
                continue
            failed = {
                "trial": trial,
                "seed": s,
                "scene": scene_to_dict(scene),
                "point": [float(c) for c in p],
                "verdict": verdict.verdict,
                "witness": _witness_entry(verdict),
            }
            break
        if failed:
            report.failures.append(failed)
        elif saw_indeterminate:
            report.indeterminates += 1
        else:
            report.passes += 1
    return tested


def check_theorem3(trials: int, seed: int = 0, tol: float = TOL,
                   points_per_trial: int = 20) -> PropertyReport:
    """Boundary points of three equal disjoint open balls are never shadowed.

    Each trial draws a random scene of three equal open balls in R^3 and
    samples boundary points of their union; at every point the exact
    decision must produce a witness line that misses the two other balls
    with positive clearance (the touching ball is met tangentially, which
    open semantics counts as a miss).
    """
    report = PropertyReport(name="three-equal-open-balls-boundary",
                            trials=trials, passes=0)
    per_ball = math.ceil(points_per_trial / 3)

    def draw(s):
        scene = random_equal_balls(3, 3, 1.0, s, topology=OPEN)
        return scene, (p for i in range(3)
                       for p in boundary_sample(scene, i, per_ball, seed=s + i + 1))

    report.details["boundary_points_tested"] = _run_trials(report, seed, tol, draw)
    return report


def check_theorem4(trials: int, seed: int = 0, tol: float = TOL) -> PropertyReport:
    """Three equal disjoint balls in R^3 never shadow an exterior point."""
    report = PropertyReport(name="three-equal-balls-exterior", trials=trials, passes=0)

    def draw(s):
        scene = random_equal_balls(3, 3, 1.0, s)
        return scene, [random_exterior_point(scene, seed=s + 1)]

    _run_trials(report, seed, tol, draw)
    return report


def check_lower_bound(k: int, dim: int, trials: int, seed: int = 0,
                      tol: float = TOL) -> PropertyReport:
    """Fewer balls than the dimension never shadow any exterior point.

    Radii are arbitrary here; only the count matters.  The exact decision
    covers every dimension, so an indeterminate verdict only records a
    configuration too degenerate to decide.
    """
    if k >= dim:
        raise BadDimension(f"lower-bound check needs k < dim, got k={k}, dim={dim}")
    report = PropertyReport(name=f"lower-bound-k{k}-dim{dim}", trials=trials, passes=0)

    def draw(s):
        scene = random_disjoint_balls(dim, k, s)
        return scene, [random_exterior_point(scene, seed=s + 1)]

    _run_trials(report, seed, tol, draw)
    return report


def _point_triangle_distances(points: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Distance from each 2-D point to a filled triangle (0 inside)."""
    d_min = np.full(len(points), np.inf)
    inside = np.ones(len(points), dtype=bool)
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        edge = b - a
        rel = points - a
        cross = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
        inside &= cross >= 0
        t = np.clip((rel @ edge) / float(edge @ edge), 0.0, 1.0)
        d_min = np.minimum(d_min, np.linalg.norm(rel - t[:, None] * edge[None, :], axis=1))
    return np.where(inside, 0.0, d_min)


def verify_lemma(side: float = 1.0, grid_step: float = 0.01, eps: float = 1e-6,
                 tol: float = TOL) -> PropertyReport:
    """Grid check: the hull of the three discs is shadowed outside the discs.

    Every grid point inside the convex hull of the discs and at least eps
    outside each disc must be shadowed; additionally 360 points of the
    circumscribed circle must stay within disc reach of the triangle,
    which places that circle inside the hull.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError("grid_step must be finite and positive")
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError("eps must be finite and non-negative")
    cfg = build_lemma(side)
    tri = cfg.vertices
    rho = cfg.disc_radius
    center = cfg.circumcenter
    failures: list[dict] = []

    phis = np.arange(360) * (2.0 * math.pi / 360.0)
    ring = center[None, :] + cfg.circumradius * np.column_stack([np.cos(phis), np.sin(phis)])
    ring_dist = _point_triangle_distances(ring, tri)
    circum_bad = int(np.count_nonzero(ring_dist > rho + tol))
    for idx in np.flatnonzero(ring_dist > rho + tol):
        failures.append({
            "kind": "circumcircle",
            "point": [float(c) for c in ring[idx]],
            "distance_to_triangle": float(ring_dist[idx]),
            "allowed": rho,
        })

    lo = tri.min(axis=0) - rho
    hi = tri.max(axis=0) + rho
    xs = np.arange(lo[0], hi[0] + grid_step / 2, grid_step)
    ys = np.arange(lo[1], hi[1] + grid_step / 2, grid_step)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    in_hull = _point_triangle_distances(pts, tri) <= rho
    vert_dist = np.linalg.norm(pts[:, None, :] - tri[None, :, :], axis=2)
    outside_discs = (vert_dist >= rho + eps).all(axis=1)
    test_pts = pts[in_hull & outside_discs]
    shadow_bad = 0
    for p in test_pts:
        verdict = point_shadow(cfg.scene, p, tol)
        if verdict.verdict != SHADOWED:
            shadow_bad += 1
            failures.append({
                "kind": "grid",
                "point": [float(c) for c in p],
                "verdict": verdict.verdict,
                "witness": _witness_entry(verdict),
            })
    trials = len(test_pts) + len(ring)
    passes = trials - shadow_bad - circum_bad
    return PropertyReport(
        name=f"lemma-hull-shadow-side-{side:g}",
        trials=trials,
        passes=passes,
        failures=failures,
        details={
            "grid_points": int(len(test_pts)),
            "grid_failures": shadow_bad,
            "circumcircle_points": int(len(ring)),
            "circumcircle_failures": circum_bad,
            "grid_step": grid_step,
            "eps": eps,
        },
    )


@dataclass(eq=False)
class Example2Report:
    """End-to-end analysis of the 14-ball configuration.

    Covers the tangency census, the sphere coverage verdict (with a Monte
    Carlo area cross-check), and the tangent-shadow sweep over the sphere
    points outside all balls.  ``failure_points`` are sweep points where
    some tangent line misses every ball.  ``doubled_grid_verdict`` is kept
    for compatibility only: it named a re-run on a doubled falsifier grid,
    and since the falsifier is exact it always equals the verdict.
    """

    tangency: dict
    sphere_coverage: SphereCoverage
    doubled_grid_verdict: str
    uncovered_area: float
    uncovered_sample_count: int
    area_samples: int
    tangent_entries: list[dict]
    failure_points: list[dict]
    tangent_grid: int
    seed: int

    def to_dict(self) -> dict:
        cov = self.sphere_coverage
        return {
            "tangency": self.tangency,
            "sphere_coverage": {
                "verdict": cov.verdict,
                "witness": None if cov.witness is None else [float(c) for c in cov.witness],
                "margin": cov.margin,
                "stage": cov.stage,
            },
            "doubled_grid_verdict": self.doubled_grid_verdict,
            "uncovered_area": self.uncovered_area,
            "uncovered_sample_count": self.uncovered_sample_count,
            "area_samples": self.area_samples,
            "tangent_grid": self.tangent_grid,
            "tangent_points_outside": len(self.tangent_entries),
            "tangent_failures": len(self.failure_points),
            "failure_points": self.failure_points,
            "seed": self.seed,
        }

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["px", "py", "pz", "verdict", "gap"])
            for e in self.tangent_entries:
                writer.writerow([repr(e["point"][0]), repr(e["point"][1]),
                                 repr(e["point"][2]), e["verdict"],
                                 "" if e["gap"] is None else repr(e["gap"])])


def analyze_example2(tangent_grid: int = 20000, area_samples: int = 1_000_000,
                     seed: int = 0, tol: float = TOL,
                     falsifier_grid: int = 20000) -> Example2Report:
    """Work through the 14-ball configuration end to end.

    ``falsifier_grid`` is ignored and kept for compatibility: the sphere
    coverage falsifier is exact and samples no grid.
    """
    if tangent_grid < 100:
        raise ValueError("tangent_grid must be at least 100")
    cfg = build_cube14()
    scene = cfg.scene
    gaps = scene.pair_gaps()[np.triu_indices(len(scene), 1)]
    tangent = int(np.count_nonzero(np.abs(gaps) <= 1e-12))
    overlapping = int(np.count_nonzero(gaps < -1e-12))
    tangency = {
        "pairs": {"tangent": tangent, "disjoint": len(gaps) - tangent - overlapping,
                  "overlapping": overlapping},
        "vertex_vertex_tangent": cfg.tangent_vertex_pairs,
        "vertex_face_tangent": cfg.tangent_face_pairs,
        "vertex_radius": cfg.vertex_radius,
        "face_radius": cfg.face_radius,
    }
    caps = CapSet([ball_sphere_cap(b) for b in scene.balls])
    coverage = cover_sphere(caps, tol)
    area = uncovered_area_estimate(caps, area_samples, seed)
    sample_count = int(round(area * area_samples / (4.0 * math.pi)))

    pts = fibonacci_sphere(tangent_grid)
    outside = pts[flat_clearances(scene.centers, scene.radii, pts).min(axis=1) > 0.0]
    entries = []
    failures = []
    for p in outside:
        verdict = tangent_shadow(scene, p, tol)
        entry = {
            "point": [float(c) for c in p],
            "verdict": verdict.verdict,
            "gap": verdict.gap,
        }
        entries.append(entry)
        if verdict.verdict == NOT_SHADOWED:
            failures.append(entry)
    return Example2Report(
        tangency=tangency,
        sphere_coverage=coverage,
        doubled_grid_verdict=coverage.verdict,
        uncovered_area=area,
        uncovered_sample_count=sample_count,
        area_samples=area_samples,
        tangent_entries=entries,
        failure_points=failures,
        tangent_grid=tangent_grid,
        seed=seed,
    )


def slice_connectivity(scene: Scene, plane: PlaneFrame, window: float,
                       resolution: int) -> int:
    """Number of connected components of the plane minus the balls.

    The plane is rasterized on [-window, window]^2 at resolution^2 cells;
    free cells are flood-filled with 4-connectivity and every component
    touching the raster edge counts as the single unbounded component.
    """
    # imported here, its only user, to keep it out of every other command's start-up
    from scipy import ndimage

    if resolution < 32:
        raise ValueError("resolution must be at least 32")
    if not (math.isfinite(window) and window > 0):
        raise ValueError("window must be finite and positive")
    if scene.dim != 3 or plane.m != 2:
        raise BadDimension("slice probing needs a 2-plane in a 3-dimensional scene")
    h = flat_clearances(scene.centers, 0.0, plane.point, plane.basis)
    cut = h < scene.radii
    disc_centers = (scene.centers[cut] - plane.point) @ plane.basis.T
    disc_radii = np.sqrt(scene.radii[cut] ** 2 - h[cut] ** 2)
    step = 2.0 * window / resolution
    axis = -window + step * (np.arange(resolution) + 0.5)
    gx, gy = np.meshgrid(axis, axis)
    blocked = np.zeros((resolution, resolution), dtype=bool)
    for (cx, cy), r in zip(disc_centers.tolist(), disc_radii.tolist()):
        blocked |= (gx - cx) ** 2 + (gy - cy) ** 2 <= r * r
    labels, count = ndimage.label(~blocked)
    if count == 0:
        return 0
    border = np.unique(np.concatenate([
        labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]]))
    border = border[border > 0]
    return int(count - max(len(border) - 1, 0))
