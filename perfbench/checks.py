"""Independent re-checks of shadowgeo answers, from raw coordinates only.

Nothing here imports shadowgeo: witnesses are re-verified with the
closed-form distance from a ball's centre to a line, and shadowed
verdicts are spot-checked by dense sampling of line directions.  A
sampled direction can only refute a shadowed verdict, never prove it.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
# slack for float error in the re-computed clearances
SLACK = 1e-12


def random_directions(n: int, dim: int, seed: int) -> np.ndarray:
    """n uniform unit vectors in R^dim (numpy's generator, not the library's)."""
    v = np.random.default_rng(seed).standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def line_clearances(x, d, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Distance from each centre to the line x + t d, minus the radius."""
    d = np.asarray(d, dtype=float)
    d = d / np.linalg.norm(d)
    w = centers - np.asarray(x, dtype=float)
    perp = w - np.outer(w @ d, d)
    return np.linalg.norm(perp, axis=1) - radii


def witness_misses(x, d, centers, radii, open_mask, tol: float = TOL) -> bool:
    """Whether the line (x, d) misses every ball, as a not-shadowed witness must.

    A ball whose sphere passes through x is missed only if it is open and
    the line is tangent there; every other ball must clear by more than tol.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (centers.shape[1],) or not np.all(np.isfinite(d)):
        return False
    d = d / np.linalg.norm(d)
    w = centers - np.asarray(x, dtype=float)
    dist = np.linalg.norm(w, axis=1)
    on_sphere = np.abs(dist - radii) <= tol
    if np.any(on_sphere & ~open_mask):
        return False
    tangent = np.abs(w[on_sphere] @ d) <= tol * np.maximum(dist[on_sphere], 1.0)
    clear = line_clearances(x, d, centers[~on_sphere], radii[~on_sphere])
    return bool(np.all(tangent) and np.all(clear > tol - SLACK))


def best_direction(x, centers, radii, directions: np.ndarray):
    """The sampled direction whose line through x clears the balls most, and that clearance.

    Clearance is min over balls of |w - (w.d) d| - r with w = c - x,
    evaluated for all directions at once.  A positive value refutes
    "shadowed"; a value <= 0 is consistent with it but proves nothing.
    """
    w = centers - np.asarray(x, dtype=float)
    proj = directions @ w.T
    perp2 = np.maximum((w * w).sum(axis=1)[None, :] - proj * proj, 0.0)
    worst = (np.sqrt(perp2) - radii[None, :]).min(axis=1)
    i = int(np.argmax(worst))
    return directions[i], float(worst[i])


def frame_avoids(x, basis, centers, radii, tol: float = TOL) -> bool:
    """Whether the flat through x spanned by orthonormal rows of basis misses every ball."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.shape[1] != centers.shape[1] or not np.all(np.isfinite(basis)):
        return False
    if np.max(np.abs(basis @ basis.T - np.eye(basis.shape[0]))) > 1e-9:
        return False
    w = centers - np.asarray(x, dtype=float)
    perp = w - (w @ basis.T) @ basis
    return bool(np.all(np.linalg.norm(perp, axis=1) - radii > tol - SLACK))


def sphere_cap_margins(points: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """min over balls of cos(beta) - p . axis for the caps balls cut from S^2.

    Positive means p lies outside every cap.  cos(beta) comes from the law
    of cosines, (|c|^2 + 1 - r^2) / (2 |c|).
    """
    norms = np.linalg.norm(centers, axis=1)
    axes = centers / norms[:, None]
    cosb = (norms * norms + 1.0 - radii * radii) / (2.0 * norms)
    return (cosb[None, :] - points @ axes.T).min(axis=1)
