"""Brute-force cross-checks, implemented independently of the library.

Everything here works from raw coordinates and dense sampling or scalar
minimization, deliberately avoiding the closed-form reductions under
test.  Slow is fine; agreement is the point.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar


def line_ball_min_distance(x, d, center, radius) -> float:
    """Distance from the line x + t d to the sphere of the ball, by 1-d search."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    d = d / np.linalg.norm(d)
    c = np.asarray(center, dtype=float)

    def dist(t):
        return np.linalg.norm(x + t * d - c)

    span = np.linalg.norm(c - x) + radius + 1.0
    res = minimize_scalar(dist, bounds=(-span, span), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun) - radius


def flat_ball_clearances(x, basis, centers, radii) -> np.ndarray:
    """Distance from the flat x + span(basis rows) to each ball's sphere, by least squares.

    The foot of each centre on the flat comes from lstsq on the basis
    columns, so the basis need not be orthonormal; no basis (or no rows)
    measures from the point x.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for c, r in zip(np.asarray(centers, dtype=float), radii):
        w = c - x
        if basis is not None and len(basis):
            a = np.asarray(basis, dtype=float).T
            w = w - a @ np.linalg.lstsq(a, w, rcond=None)[0]
        out.append(float(np.sqrt(np.sum(w * w))) - float(r))
    return np.array(out)


def line_hits(x, d, center, radius, closed=True, tol=0.0) -> bool:
    clear = line_ball_min_distance(x, d, center, radius)
    if closed:
        return clear <= tol
    return clear < -tol


def circle_point_margins(ts, arcs_data, period) -> np.ndarray:
    """Signed distance of each angle to its nearest arc (positive = outside all)."""
    ts = np.asarray(ts, dtype=float) % period
    if not arcs_data:
        return np.full(ts.shape, np.inf)
    out = np.full(ts.shape, np.inf)
    for center, half in arcs_data:
        diff = np.abs((ts - center + period / 2) % period - period / 2)
        out = np.minimum(out, diff - half)
    return out


def circle_cover_sampled(arcs_data, period, n=100_000):
    """(all covered?, worst angle, worst margin) by uniform dense sampling."""
    ts = (np.arange(n) + 0.5) * (period / n)
    margins = circle_point_margins(ts, arcs_data, period)
    i = int(np.argmax(margins))
    return bool(margins.max() <= 0.0), float(ts[i]), float(margins[i])


def sphere_point_margins(points, caps_data) -> np.ndarray:
    """min over caps of (cos beta - p . axis); positive = outside every cap."""
    points = np.asarray(points, dtype=float)
    if not caps_data:
        return np.full(len(points), np.inf)
    axes = np.array([a for a, _ in caps_data], dtype=float)
    cosb = np.array([np.cos(b) for _, b in caps_data], dtype=float)
    return (cosb[None, :] - points @ axes.T).min(axis=1)


def sphere_cover_sampled(caps_data, n=200_000, seed=0):
    """(all covered?, worst direction, worst margin) over random directions."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    margins = sphere_point_margins(pts, caps_data)
    i = int(np.argmax(margins))
    return bool(margins.max() <= 0.0), pts[i], float(margins[i])


def tangent_gap_angles(scene, x, n=2000, closed=None):
    """Angles t in [0, pi) whose tangent direction misses every ball, by sweep."""
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(x)))] = 1.0
    e1 = np.cross(helper, x)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(x, e1)
    misses = []
    for t in (np.arange(n) + 0.5) * (np.pi / n):
        d = np.cos(t) * e1 + np.sin(t) * e2
        hit = False
        for b in scene.balls:
            is_closed = (b.topology == "closed") if closed is None else closed
            if line_hits(x, d, b.center, b.radius, closed=is_closed):
                hit = True
                break
        if not hit:
            misses.append(float(t))
    return misses


def point_shadow_sampled(scene, x, n=4000, seed=0):
    """(shadowed?, missing direction or None) by random direction sampling."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    dim = scene.dim
    for _ in range(n):
        d = rng.normal(size=dim)
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            continue
        d /= nd
        hit = False
        for b in scene.balls:
            if line_hits(x, d, b.center, b.radius, closed=b.topology == "closed"):
                hit = True
                break
        if not hit:
            return False, d
    return True, None


def tangent_shadow_sampled(scene, x, n=400, seed=0):
    """(shadowed?, missing direction or None) over random unit directions orthogonal to x.

    The tangent lines of the unit sphere at x / |x| in any dimension: each
    Gaussian draw loses its component along x before it is normalized.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    for _ in range(n):
        d = rng.normal(size=x.size)
        d -= (d @ x) * x
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            continue
        d /= nd
        if not any(line_hits(x, d, b.center, b.radius, closed=b.topology == "closed")
                   for b in scene.balls):
            return False, d
    return True, None
