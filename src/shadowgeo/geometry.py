"""Primitives for line-transversal geometry of ball families.

Vectors are 1-D float numpy arrays and angles are radians throughout.
Seen from a point x strictly outside a ball with center c and radius r,
the unit directions d whose line through x meets the ball are
|d . u| >= cos(alpha), where u = (c - x)/|c - x| and
alpha = arcsin(r / |c - x|).  The shadow decisions in ``shadow`` use this
in polar form, |d . p| >= 1 with p = u / cos(alpha).  ``ball_sphere_cap``
gives the spherical cap a ball cuts out of the unit sphere, what
``spherecover`` covers.  ``Band``, ``ball_band``, ``tangent_arcs`` and
``line_ball_clearance`` are a compatibility layer that no decision calls
and the package does not export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9
"""Default predicate tolerance; scene coordinates are assumed |x| <~ 1e2."""

OPEN = "open"
CLOSED = "closed"
_TOPOLOGIES = (OPEN, CLOSED)


class GeometryError(Exception):
    """A geometric precondition does not hold."""


class PointInsideBall(GeometryError):
    """The query point lies strictly inside a ball."""

    def __init__(self, index: int | None = None):
        self.index = index
        where = f" (ball {index})" if index is not None else ""
        super().__init__(f"point lies strictly inside a ball{where}")


class DimensionUnsupported(GeometryError):
    """The operation has no exact implementation in this dimension."""


class BadDimension(GeometryError):
    """A dimension or codimension argument is out of range."""


class GenerationFailed(GeometryError):
    """A rejection sampler exhausted its budget."""


class InvariantViolation(GeometryError):
    """A construction failed its own self-check."""


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected {dim} coordinates, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("coordinates must be finite")
    return v


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def orthonormal_basis(axis) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis of the plane normal to a unit 3-vector.

    e1 = normalize(k x axis) where k is the coordinate axis least aligned
    with ``axis`` (ties broken by lowest index), e2 = axis x e1.  Fixing
    the rule keeps every arc angle in the package reproducible.
    """
    axis = as_vector(axis, 3)
    k = np.zeros(3)
    k[int(np.argmin(np.abs(axis)))] = 1.0
    e1 = unit(np.cross(k, axis))
    return e1, np.cross(axis, e1)


@dataclass(frozen=True, eq=False)
class Ball:
    """A ball with an open or closed topology flag.

    The flag only matters on the boundary sphere: tangency counts as a hit
    for a closed ball and as a miss for an open one.
    """

    center: np.ndarray
    radius: float
    topology: str = CLOSED

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_vector(self.center))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"ball radius must be positive, got {self.radius!r}")
        if self.topology not in _TOPOLOGIES:
            raise ValueError(f"topology must be 'open' or 'closed', got {self.topology!r}")

    @property
    def dim(self) -> int:
        return self.center.size


def flat_clearances(centers: np.ndarray, radii, x: np.ndarray,
                    basis: np.ndarray | None = None) -> np.ndarray:
    """Clearance |v_i - B^T B v_i| - r_i, v_i = c_i - x, of each ball from the flat through x.

    ``basis`` holds the flat's orthonormal direction rows B: none for the
    point x, one for a line, m for an m-flat.  Negative where the flat cuts
    into a ball.  Points x of shape (p, n) give a (p, k) table.  Each
    ball's projection and length are one matrix-vector and one
    vector-vector product, so every entry rounds as that ball alone would.
    """
    return _offset_clearances(centers - x[..., None, :], radii, basis)


def _offset_clearances(v: np.ndarray, radii, basis: np.ndarray | None = None) -> np.ndarray:
    """:func:`flat_clearances` from the offsets v_i = c_i - x."""
    if basis is not None:
        v = v - (basis.T @ (basis @ v[..., None]))[..., 0]
    return np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0]) - radii


@dataclass(eq=False)
class Scene:
    """A finite family of same-dimension balls, expected pairwise disjoint.

    The balls are fixed at construction, which stacks them into
    ``centers`` (k, n), ``radii`` (k,) and the ``closed`` mask (k,) that
    every clearance question reads.  Disjointness is checked, not
    enforced: callers decide what to do with the offending pairs reported
    by :meth:`disjointness_violations`.
    """

    dim: int
    balls: list[Ball]
    label: str = ""
    centers: np.ndarray = field(init=False, repr=False)
    radii: np.ndarray = field(init=False, repr=False)
    closed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("scene dimension must be >= 1")
        for i, b in enumerate(self.balls):
            if b.dim != self.dim:
                raise ValueError(f"ball {i} has dimension {b.dim}, scene has {self.dim}")
        self.centers = np.array([b.center for b in self.balls], dtype=float).reshape(-1, self.dim)
        self.radii = np.array([b.radius for b in self.balls], dtype=float)
        self.closed = np.array([b.topology == CLOSED for b in self.balls], dtype=bool)

    def __len__(self) -> int:
        return len(self.balls)

    def clearances(self, x, basis=None) -> np.ndarray:
        """Per-ball clearance from the flat through x spanned by ``basis``.

        No basis measures from the point x, one row from a line, m
        orthonormal rows from an m-flat; see :func:`flat_clearances`.
        """
        x = as_vector(x, self.dim)
        return flat_clearances(self.centers, self.radii, x,
                               None if basis is None else np.atleast_2d(np.asarray(basis, float)))

    def pair_gaps(self) -> np.ndarray:
        """(k, k) table of |c_i - c_j| - (r_i + r_j): 0 when tangent, negative when overlapping."""
        c = self.centers
        return np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1) \
            - (self.radii[:, None] + self.radii[None, :])

    def disjointness_violations(self, tol: float = TOL) -> list[tuple[int, int]]:
        """Index pairs i < j whose balls overlap by more than tol."""
        i, j = np.nonzero(np.triu(self.pair_gaps() < -tol, 1))
        return list(zip(i.tolist(), j.tolist()))


@dataclass(frozen=True, eq=False)
class Band:
    """Directions whose line through the viewpoint meets one ball.

    The set {d : |d . axis| >= cos(half_angle)} on the unit direction
    sphere, built by ``ball_band`` and read by no decision.  ``boundary``
    marks a viewpoint sitting on the ball's sphere, where half_angle
    degenerates to pi/2 and the caller must apply the ball's topology.
    """

    axis: np.ndarray
    half_angle: float
    boundary: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", as_vector(self.axis))
        if not 0.0 <= self.half_angle <= math.pi / 2:
            raise ValueError(f"band half_angle out of [0, pi/2]: {self.half_angle!r}")


@dataclass(frozen=True, eq=False)
class Cap:
    """Spherical cap {p in S^2 : p . axis >= cos(angular_radius)}.

    angular_radius 0 means empty, pi means the whole sphere.  ``topology``
    is validated and carried but read nowhere: ``CapSet``, ``falsify`` and
    the boundary arrangement all treat every cap as closed (ROADMAP item 4).
    """

    axis: np.ndarray
    angular_radius: float
    topology: str = CLOSED

    def __post_init__(self) -> None:
        axis = as_vector(self.axis, 3)
        n = float(np.linalg.norm(axis))
        if not math.isclose(n, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError("cap axis must be a unit vector")
        if not -1e-12 <= self.angular_radius <= math.pi + 1e-12:
            raise ValueError(f"cap angular_radius out of [0, pi]: {self.angular_radius!r}")
        if self.topology not in _TOPOLOGIES:
            raise ValueError(f"topology must be 'open' or 'closed', got {self.topology!r}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angular_radius", min(max(self.angular_radius, 0.0), math.pi))

    @property
    def is_empty(self) -> bool:
        return self.angular_radius <= 0.0

    @property
    def is_full(self) -> bool:
        return self.angular_radius >= math.pi


def ball_band(x, ball: Ball, tol: float = TOL) -> Band:
    """Band of directions through x whose line meets the ball.

    Raises PointInsideBall when x is inside by more than tol; a viewpoint
    on the sphere (within tol) yields the degenerate half_angle pi/2 with
    the boundary flag set.
    """
    x = as_vector(x, ball.dim)
    v = ball.center - x
    d = float(np.linalg.norm(v))
    if d < ball.radius - tol:
        raise PointInsideBall()
    if abs(d - ball.radius) <= tol:
        return Band(axis=v / d, half_angle=math.pi / 2, boundary=True)
    return Band(axis=v / d, half_angle=math.asin(min(ball.radius / d, 1.0)))


def ball_sphere_cap(ball: Ball) -> Cap:
    """Intersection of a ball with the unit sphere about the origin, as a cap.

    cos(beta) = (|c|^2 + 1 - r^2) / (2 |c|); values above 1 give the empty
    cap, below -1 the full sphere.  A centre that rounds to the origin
    (1 + |c| == 1) counts as the origin, where the ball meets the sphere
    iff its radius reaches 1: :func:`flat_clearances` cannot tell its
    sphere from the unit sphere, and below about 1e-154 c / |c| underflows.
    """
    if ball.dim != 3:
        raise DimensionUnsupported("caps are defined on the unit sphere in R^3")
    n = float(np.linalg.norm(ball.center))
    if 1.0 + n == 1.0:
        reaches = ball.radius > 1.0 or (ball.radius >= 1.0 and ball.topology == CLOSED)
        return Cap(np.array([0.0, 0.0, 1.0]), math.pi if reaches else 0.0, ball.topology)
    q = (n * n + 1.0 - ball.radius * ball.radius) / (2.0 * n)
    if q > 1.0:
        return Cap(ball.center / n, 0.0, ball.topology)
    if q < -1.0:
        return Cap(ball.center / n, math.pi, ball.topology)
    return Cap(ball.center / n, math.acos(q), ball.topology)


def tangent_arcs(x, ball: Ball, tol: float = TOL) -> list:
    """Tangent directions at a unit-sphere point x whose line meets the ball, as ``Arc``s.

    x must be a point of the unit sphere outside the ball.  With v = c - x
    and (e1, e2) = ``orthonormal_basis(x)``, the tangent line along
    e1 cos(theta) + e2 sin(theta) meets the closed ball iff its |. v| reaches
    sqrt(|v|^2 - r^2): one period-pi :func:`threshold_arcs` row, giving one
    arc or none (a ball centred on the normal axis through x gives none).
    """
    # imported here, its only user in this module: circlecover reads TOL from
    # geometry, so a module-level import would be circular
    from .circlecover import PERIOD_LINE, threshold_arcs

    x = as_vector(x, 3)
    v = ball.center - x
    nv2 = float(v @ v)
    r = ball.radius
    if nv2 < (r - tol) * (r - tol):
        raise PointInsideBall()
    w = (np.stack(orthonormal_basis(x)) @ v)[None, :]
    return threshold_arcs(w, np.array([math.sqrt(max(nv2 - r * r, 0.0))]), PERIOD_LINE).arcs


def line_ball_clearance(x, d, ball: Ball) -> float:
    """Distance from the line through x with unit direction d to the ball surface.

    Negative when the line cuts into the ball.
    """
    x = as_vector(x, ball.dim)
    d = as_vector(d, ball.dim)
    return float(flat_clearances(ball.center[None, :], ball.radius, x, d[None, :])[0])
