"""Point-shadow, tangent-shadow, and avoiding-plane decision procedures.

A point x is "shadowed" by a family of pairwise-disjoint balls when every
line through it meets at least one ball.  Every shadow question goes
through one reduction.  Seen from x, ball i has the polar point
p_i = (c_i - x) / sqrt(pow_i(x)), where pow_i(x) = |c_i - x|^2 - r_i^2,
and the line x + t d misses the closed ball iff |d . p_i| < 1.  The
directions still allowed form a subspace with m orthonormal basis rows B:

- all of R^n for a point outside every ball;
- the tangent space T_x S^{n-1} for the tangent-line question;
- for a point on the boundary of open balls, the directions orthogonal
  to the touching axes, since a line through x misses a touching open
  ball only when it is tangent to it.  A touching closed ball shadows x
  trivially, and a ball centred at x (radius at most tol) leaves no line.

Each is the null space, taken from one SVD, of the axes a candidate line
must be orthogonal to: none outside the balls, x for tangent lines, and
the touching axes on a boundary.  With q_i = B p_i, x is shadowed iff
every unit u in R^m has some |u . q_i| >= 1, i.e. iff conv{+-q_i}
contains the unit ball.  The decision depends only on m:

- m = 0: no line is left ("boundary-pinched");
- m = 1: the single candidate line is checked ball by ball, a tangent
  line hitting closed balls only ("boundary-candidate", or "tangent" for
  the tangent question in R^2 with no touching ball);
- m = 2: an arc cover on the period-pi circle, the arc of q_i centred at
  its polar angle with half-width acos(1/|q_i|) ("arc-union",
  "boundary-circle", "tangent");
- m >= 3: the polar-hull test ("polar-hull").  x is shadowed iff the
  facet of conv{+-q_i} nearest the origin lies at distance
  h_min >= 1 - tol, and else that facet's normal is the witness.  A qhull
  failure gives "indeterminate" unless some normal is known to escape.

Arc gaps and facet distances within tol of closing count as closed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circlecover import PERIOD_LINE, _cover_pairs, _threshold_intervals
from .geometry import (
    TOL,
    BadDimension,
    DimensionUnsupported,
    PointInsideBall,
    Scene,
    _offset_clearances,
    as_vector,
    unit,
)

SHADOWED = "shadowed"
NOT_SHADOWED = "not_shadowed"
INDETERMINATE = "indeterminate"

_SAME_AXIS = math.sqrt(1e-9)
"""Touching axes whose pair has 1 - |cos| <= 1e-9 constrain as one axis.

The smaller singular value of two unit axes is sqrt(1 - |cos|)."""


@dataclass(eq=False)
class ShadowVerdict:
    """Outcome of a shadow decision.

    For a not-shadowed verdict the witness line (witness_point,
    witness_direction) misses every ball and ``margin`` is its smallest
    line-to-surface clearance (length units, tangencies at a boundary
    viewpoint excluded).  ``gap`` is the largest angular gap for the
    circle-based tests.  ``search_margin`` is the polar-hull test's
    dimensionless 1 - max_i |u . q_i| at its best direction u: positive
    for a witness, at most tol otherwise.
    """

    verdict: str
    witness_point: np.ndarray | None = None
    witness_direction: np.ndarray | None = None
    margin: float | None = None
    gap: float | None = None
    trivial: bool = False
    boundary_index: int | None = None
    method: str = ""
    search_margin: float | None = None

    @property
    def shadowed(self) -> bool | None:
        return {SHADOWED: True, NOT_SHADOWED: False}.get(self.verdict)


@dataclass(eq=False)
class PlaneFrame:
    """An affine m-plane given by a point and m orthonormal basis rows."""

    point: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        self.point = as_vector(self.point)
        self.basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if self.basis.shape[1] != self.point.size:
            raise ValueError("basis rows must match the point's dimension")
        gram = self.basis @ self.basis.T
        if np.max(np.abs(gram - np.eye(self.basis.shape[0]))) > 1e-9:
            raise ValueError("plane basis must be orthonormal")

    @property
    def m(self) -> int:
        return self.basis.shape[0]


def witness_clearance(scene: Scene, x, d) -> float:
    """Smallest clearance of the line x + t d from the scene's balls."""
    return float(np.min(scene.clearances(x, d), initial=math.inf))


def _ball_vectors(scene: Scene, x: np.ndarray, tol: float):
    """Centre offsets c_i - x, their lengths (one per offset) and the point clearances.

    x is an already validated vector.  Raises PointInsideBall when x is
    inside some ball by more than tol.
    """
    v = scene.centers - x
    dist = np.sqrt((v * v).sum(axis=1))  # np.linalg.norm's sum, bit for bit
    clear = dist - scene.radii
    inside = clear < -tol
    if inside.any():
        raise PointInsideBall(int(np.argmax(inside)))
    return v, dist, clear


def _polar_hull(q: np.ndarray, tol: float) -> tuple[np.ndarray, float] | None:
    """The unit u in R^m of least h = max_i |u . q_i|, and h, or None when qhull fails.

    A set flat within tol answers with its normal w of least spread.  For
    m independent q_i, the rows of Q, h = 1 / max_s |Q^-1 s| over the
    sign vectors s, with no hull; otherwise u is the outward normal of
    qhull's facet of conv{+-q_i} nearest the origin.  When qhull fails,
    w still answers if its spread is below 1 - tol.
    """
    w = np.linalg.svd(q)[2][-1]
    spread = float(np.max(np.abs(q @ w), initial=0.0))
    if spread <= tol:
        return w, spread
    k, m = q.shape
    if k == m:
        # s and -s give the same facet pair, so the first sign stays +1
        signs = np.array([(1.0, *s) for s in itertools.product((1.0, -1.0), repeat=m - 1)])
        y = np.linalg.solve(q, signs.T)
        norms = np.linalg.norm(y, axis=0)
        j = int(np.argmax(norms))
        return y[:, j] / norms[j], 1.0 / float(norms[j])
    # imported on first use: scipy.spatial adds about 0.4 s to start-up
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(np.vstack([q, -q]))
    except QhullError:
        return (w, spread) if spread < 1.0 - tol else None
    # rows are (normal, offset) with offset = -distance from the origin
    i = int(np.argmax(hull.equations[:, -1]))
    return hull.equations[i, :-1], -float(hull.equations[i, -1])


def _free_directions(axes: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal rows spanning the directions of R^n orthogonal to every unit axis.

    The null space of the stacked axes, from their SVD; singular values
    at most _SAME_AXIS count as zero, so nearly parallel axes constrain
    as one.
    """
    if not len(axes):
        return np.eye(n)
    _, s, vt = np.linalg.svd(axes)
    return vt[int(np.count_nonzero(s > _SAME_AXIS)):]


def _decide(scene: Scene, x: np.ndarray, axes: np.ndarray, tol: float) -> ShadowVerdict:
    """Shadow decision over the lines through x orthogonal to every row of ``axes``.

    The method label follows from ``axes`` and the touching balls; the
    witness margin, taken on the offsets formed here, leaves those balls out.
    """
    if scene.dim < 2:
        raise DimensionUnsupported(f"shadow decisions need dimension 2 or more, not {scene.dim}")
    v, dist, clear = _ball_vectors(scene, x, tol)
    touch = np.abs(clear) <= tol
    touching = np.flatnonzero(touch).tolist() if touch.any() else []
    boundary = touching[0] if touching else None
    circle = "tangent" if len(axes) else "boundary-circle" if touching else "arc-union"
    if touching:
        closed = touch & scene.closed
        if closed.any():
            return ShadowVerdict(SHADOWED, trivial=True, boundary_index=int(np.argmax(closed)),
                                 method="boundary-closed")
        d = dist[touch]
        if not d.all():  # every line through a ball's centre meets it: no line is left
            return ShadowVerdict(SHADOWED, boundary_index=touching[int(np.argmin(d))],
                                 method="boundary-pinched")
        axes = np.vstack([axes, v[touch] / d[:, None]])
    basis = _free_directions(axes, scene.dim)
    m = len(basis)
    # one free direction and no touching ball: the tangent question in R^2
    method = {0: "boundary-pinched", 1: "boundary-candidate" if touching else circle,
              2: circle}.get(m, "polar-hull")
    free = ~touch if touching else slice(None)  # a view, not a masked copy
    # the power |c_i - x|^2 - r_i^2 of x with respect to each free ball
    pw = (dist[free] - scene.radii[free]) * (dist[free] + scene.radii[free])
    q = v[free] / np.sqrt(pw)[:, None]
    if len(axes):  # else the basis is the identity and q the polar points themselves
        q = q @ basis.T
    gap = search_margin = None
    if m == 0:
        return ShadowVerdict(SHADOWED, boundary_index=boundary, method=method)
    if m == 1:
        c = _offset_clearances(v, scene.radii, basis)[free]
        if np.any((c < -tol) | ((c <= tol) & scene.closed[free])):
            return ShadowVerdict(SHADOWED, boundary_index=boundary, method=method)
        u = np.ones(1)
    elif m == 2:
        cov = _cover_pairs(_threshold_intervals(q, np.ones(len(q)), PERIOD_LINE), PERIOD_LINE, tol)
        if cov.covered:
            return ShadowVerdict(SHADOWED, gap=0.0, boundary_index=boundary, method=method)
        u, gap = np.array([math.cos(cov.witness), math.sin(cov.witness)]), cov.largest_gap
    else:
        found = _polar_hull(q, tol)
        if found is None:
            return ShadowVerdict(INDETERMINATE, boundary_index=boundary, method=method)
        u, h = found
        search_margin = 1.0 - h
        if h >= 1.0 - tol:
            return ShadowVerdict(SHADOWED, boundary_index=boundary, method=method,
                                 search_margin=search_margin)
    d = u @ basis
    c = _offset_clearances(v[free], scene.radii[free], d[None, :])
    return ShadowVerdict(NOT_SHADOWED, witness_point=np.array(x, dtype=float),
                         witness_direction=d, margin=float(np.min(c, initial=math.inf)),
                         gap=gap, boundary_index=boundary, method=method,
                         search_margin=search_margin)


def point_shadow(scene: Scene, x, tol: float = TOL) -> ShadowVerdict:
    """Exact shadow decision for a point in any dimension from 2 up.

    Every line through x is a candidate; on the boundary of open balls,
    only the lines tangent to each touching ball.
    """
    x = as_vector(x, scene.dim)
    return _decide(scene, x, np.empty((0, scene.dim)), tol)


def tangent_shadow(scene: Scene, x, tol: float = TOL) -> ShadowVerdict:
    """Exact shadow decision for the lines tangent to S^{n-1} at a sphere point x.

    The point question with one more axis, in any dimension n from 2 up:
    x is normalized onto the unit sphere and must be outside every ball,
    and the candidates are the lines through x orthogonal to x (one line
    in R^2, a circle of lines in R^3, the polar-hull test beyond).  A ball
    whose sphere passes through x follows its topology, as in
    :func:`point_shadow`.
    """
    x = unit(as_vector(x, scene.dim))
    return _decide(scene, x, x[None, :], tol)


def heuristic_shadow(scene: Scene, x, restarts: int = 64, seed: int = 0,
                     tol: float = TOL) -> ShadowVerdict:
    """Alias of :func:`point_shadow`, kept for existing callers.

    The exact decision covers every dimension from 2 up, so nothing is
    left to search: ``restarts`` and ``seed`` are ignored.
    """
    return point_shadow(scene, x, tol)


def find_avoiding_plane(scene: Scene, x, m: int, restarts: int = 64, seed: int = 0,
                        tol: float = TOL) -> PlaneFrame | None:
    """Search for an affine m-plane through x avoiding every ball.

    For lines (m = 1) the exact shadow decision answers directly.  For
    m >= 2, when the offsets v_i = c_i - x leave at least m free
    directions, the flat through x along m of them is orthogonal to every
    v_i, so each ball keeps its point clearance |v_i| - r_i, the most any
    flat through x can give it.  Otherwise, or when that flat fails the
    re-check, a seeded multi-start ascent (the only user of ``restarts``
    and ``seed``) maximizes the worst squared clearance
    min_i (|v_i|^2 - |proj v_i|^2 - r_i^2) over orthonormal frames.  A
    returned frame is always re-verified (every center farther from the
    plane than its radius plus tol), and None means no avoiding plane was
    found, which for the ascent is not a proof that none exists.
    """
    x = as_vector(x, scene.dim)
    n = scene.dim
    if not 1 <= m <= n - 1:
        raise BadDimension(f"plane dimension m must satisfy 1 <= m <= {n - 1}, got {m}")
    if m == 1:
        verdict = _decide(scene, x, np.empty((0, n)), tol)
        if verdict.verdict == NOT_SHADOWED:
            return PlaneFrame(x, verdict.witness_direction[None, :])
        return None
    v, dist, clear = _ball_vectors(scene, x, tol)
    # a point clearance at most tol leaves no flat; a non-finite one is left to the ascent
    if np.all((tol < clear) & (clear < math.inf)):
        free = _free_directions(v / dist[:, None], n)[:m]
        if len(free) == m and _offset_clearances(v, scene.radii, free).min(initial=math.inf) > tol:
            return PlaneFrame(x, free)
    norm2 = (v * v).sum(axis=1)
    r2 = scene.radii * scene.radii

    def objective(w: np.ndarray) -> tuple[float, int]:
        proj = v @ w
        vals = norm2 - (proj * proj).sum(axis=1) - r2
        i = int(np.argmin(vals))
        return float(vals[i]), i

    rng = np.random.default_rng(seed)
    best_w, best_f = None, -math.inf
    for _ in range(max(restarts, 1)):
        w, _ = np.linalg.qr(rng.standard_normal((n, m)))
        f, i = objective(w)
        step = 0.1
        for _ in range(200):
            if step < 1e-12:
                break
            grad = -2.0 * np.outer(v[i], v[i] @ w)
            g_n = float(np.linalg.norm(grad))
            if g_n < 1e-15:
                break
            cand, _ = np.linalg.qr(w + (step / g_n) * grad)
            f_c, i_c = objective(cand)
            if f_c > f:
                w, f, i = cand, f_c, i_c
            else:
                step /= 2.0
        if f > best_f:
            best_w, best_f = w, f
    # every restart scores NaN when the squared offsets overflow (|c_i - x| above about 1e154)
    if best_w is None:
        return None
    frame = PlaneFrame(x, best_w.T)
    if _offset_clearances(v, scene.radii, frame.basis).min() > tol:
        return frame
    return None
