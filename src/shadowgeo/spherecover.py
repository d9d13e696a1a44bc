"""Coverage of the unit sphere by spherical caps, with certified witnesses.

The decision runs in three stages.  Trivial checks handle empty and
whole-sphere cap sets.  An exact falsifier finds the direction that lies
deepest outside every cap, in closed form: a point with positive margin
certifies "uncovered".  Finally a boundary arrangement test certifies
"covered": if the closed caps miss any region, the region's boundary
contains an arc of some cap's boundary circle that no other cap covers,
so checking every boundary circle against the other caps decides
coverage exactly (up to the tolerance fuzz shared with the circle merge).

Margins are in dot-product units: mu(d) = min_i cos(beta_i) - d . a_i is
positive exactly when d lies strictly outside every closed cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circlecover import PERIOD_CIRCLE, Arc, ArcSet, cover_circle, uncovered_arcs
from .geometry import TOL, Cap, orthonormal_basis
from .sampling import sample_sphere

COVERED = "covered"
UNCOVERED = "uncovered"
INDETERMINATE = "indeterminate"

_CONTAIN_TOL = 1e-12
# rows of the (first index) x (pair) table scored at once by ``falsify``
_TRIPLE_BLOCK = 4096


def _cap_contains_cap(outer: Cap, inner: Cap) -> bool:
    if outer.is_full:
        return True
    (a1, a2, a3), (b1, b2, b3) = outer.axis.tolist(), inner.axis.tolist()
    # atan2(|a x b|, a . b) is exact near 0, where acos(a . b) is off by about 1e-8
    ang = math.atan2(math.hypot(a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1),
                     a1 * b1 + a2 * b2 + a3 * b3)
    return ang + inner.angular_radius <= outer.angular_radius + _CONTAIN_TOL


@dataclass(eq=False)
class CapSet:
    """A family of caps, normalized on construction.

    Empty caps are dropped, and so is any cap contained in another: it
    adds nothing to the union, and keeping an exact duplicate would let a
    boundary circle vacuously certify itself in the arrangement test.
    """

    caps: list[Cap]
    _axes: np.ndarray = field(init=False, repr=False)
    _cosb: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        live = [c for c in self.caps if not c.is_empty]
        drop = [False] * len(live)
        for i, ci in enumerate(live):
            for j, cj in enumerate(live):
                if i == j or drop[j]:
                    continue
                if _cap_contains_cap(cj, ci) and (not _cap_contains_cap(ci, cj) or j < i):
                    drop[i] = True
                    break
        self.caps = [c for c, d in zip(live, drop) if not d]
        if self.caps:
            self._axes = np.stack([c.axis for c in self.caps])
            self._cosb = np.array([math.cos(c.angular_radius) for c in self.caps])
        else:
            self._axes = np.zeros((0, 3))
            self._cosb = np.zeros(0)

    def __len__(self) -> int:
        return len(self.caps)


@dataclass(eq=False)
class SphereCoverage:
    """Outcome of a sphere coverage decision.

    ``margin`` is the largest mu over S^2, attained at the witness for an
    uncovered verdict; for covered and indeterminate verdicts it is at
    most tol and no witness is given.  ``boundary_report``
    lists, per cap, the arcs of its boundary circle that the other caps
    leave uncovered; it is populated whenever the arrangement stage ran.
    """

    verdict: str
    witness: np.ndarray | None
    margin: float
    boundary_report: list[list[Arc]] | None = None
    stage: str = ""

    @property
    def covered(self) -> bool | None:
        return {COVERED: True, UNCOVERED: False}.get(self.verdict)


def margin(d, caps: CapSet) -> float:
    """mu(d) = min over caps of cos(beta) - d . axis (inf for no caps)."""
    if not caps.caps:
        return math.inf
    d = np.asarray(d, dtype=float)
    return float(np.min(caps._cosb - caps._axes @ d))


def _grid_margins(points: np.ndarray, caps: CapSet) -> np.ndarray:
    return (caps._cosb[None, :] - points @ caps._axes.T).min(axis=1)


def _candidate_block(cands: np.ndarray, caps: CapSet) -> tuple[np.ndarray | None, float]:
    """The best of a block of candidate directions, normalised and scored by mu."""
    cands = cands[np.isfinite(cands).all(axis=1)]
    if not len(cands):
        return None, -math.inf
    cands = cands / np.linalg.norm(cands, axis=1)[:, None]
    mus = _grid_margins(cands, caps)
    best = int(np.argmax(mus))
    return cands[best], float(mus[best])


def _pair_candidates(a: np.ndarray, c: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per pair (i, j), the point of {d . a_i - c_i = d . a_j - c_j} nearest -a_i."""
    u = a[i] - a[j]
    u_len = np.linalg.norm(u, axis=1)
    n = u / u_len[:, None]
    h = np.clip((c[i] - c[j]) / u_len, -1.0, 1.0)
    # a_i + a_j is orthogonal to a_i - a_j; project away the rounding anyway
    t = a[i] + a[j]
    t -= np.einsum("ij,ij->i", t, n)[:, None] * n
    t_len = np.linalg.norm(t, axis=1)
    flat = t_len < 1e-12
    if flat.any():
        # antipodal axes: d . a_i is constant on the circle, any point of it serves
        e = np.eye(3)[np.argmin(np.abs(n[flat]), axis=1)]
        t[flat] = e - np.einsum("ij,ij->i", e, n[flat])[:, None] * n[flat]
        t_len = np.linalg.norm(t, axis=1)
    return h[:, None] * n - np.sqrt(1.0 - h * h)[:, None] * (t / t_len[:, None])


def _triple_candidates(a: np.ndarray, c: np.ndarray, i: np.ndarray, j: np.ndarray,
                       k: np.ndarray) -> np.ndarray:
    """Per triple (i, j, k), the two points of S^2 where the three margins agree."""
    u1, u2 = a[i] - a[j], a[i] - a[k]
    r1, r2 = (c[i] - c[j])[:, None], (c[i] - c[k])[:, None]
    m = np.cross(u1, u2)
    mm = np.einsum("ij,ij->i", m, m)[:, None]
    # the point of the line {d . u1 = r1, d . u2 = r2} nearest the origin
    p = (r1 * np.cross(u2, m) + r2 * np.cross(m, u1)) / mm
    off = np.sqrt(np.clip(1.0 - np.einsum("ij,ij->i", p, p)[:, None], 0.0, None) / mm) * m
    return np.concatenate([p - off, p + off])


def falsify(caps: CapSet, tol: float = TOL) -> tuple[np.ndarray, float]:
    """The exact maximiser of mu over S^2, as (direction, mu).

    By the KKT conditions the maximiser has one, two or three active caps
    (caps whose margin there equals mu), so it is one of these candidates:
    the antipode -a_i of each axis; for each pair, the point of the circle
    where both margins agree that lies deepest outside cap i (any point of
    it for antipodal axes, where the margin is constant along the circle);
    for each triple, the two points where the line of equal margins meets
    S^2.  No three distinct unit axes are collinear, so that line is defined
    unless two axes coincide, and they do not: ``CapSet`` drops every cap
    contained in another, so two kept caps lie more than 1e-12 rad apart.
    Candidates that still come out non-finite are skipped, and the rest
    still contain the optimum.
    Candidates whose circle or line misses S^2 are clipped onto it; every
    candidate is normalised and scored by mu itself, so none can report
    more than its true margin.  The caller decides whether mu > tol
    certifies an uncovered verdict; ``tol`` is not used here.

    Cost is O(k^3) in the number k of caps: about 1 ms at 14 caps, 6 ms
    at 30 and 0.3 s at 95.  Triples are scored in blocks of consecutive
    first indices, so memory stays O(k^2).  Ties keep the first candidate
    in the fixed order, so reruns are reproducible.  No caps: (+z, inf).
    """
    a, c = caps._axes, caps._cosb
    n = len(c)
    if n == 0:
        return np.array([0.0, 0.0, 1.0]), math.inf
    pi, pj = np.triu_indices(n, 1)
    step = max(1, _TRIPLE_BLOCK // (n * n))
    with np.errstate(divide="ignore", invalid="ignore"):
        best = _candidate_block(np.concatenate([-a, _pair_candidates(a, c, pi, pj)]), caps)
        for lo in range(0, n - 2, step):
            # triples i < j < k whose first index lies in [lo, lo + step)
            row, col = np.nonzero(np.arange(lo, lo + step)[:, None] < pi[None, :])
            cand = _candidate_block(_triple_candidates(a, c, row + lo, pi[col], pj[col]), caps)
            if cand[1] > best[1]:
                best = cand
    return best


def cap_boundary_cover_arcs(caps: CapSet, i: int, tol: float = TOL) -> ArcSet:
    """Arcs of cap i's boundary circle covered by the other closed caps.

    The circle is d(t) = cos(b_i) a_i + sin(b_i) (e1 cos t + e2 sin t);
    cap j covers the t-set where A + R cos(t - phi) >= cos(b_j), an arc
    recovered from A = cos(b_i) a_i . a_j and the tangential component of
    a_j.  A slack of tol keeps coincident boundary circles counted as
    covered: closed caps meeting along a shared circle genuinely cover it.
    """
    cap_i = caps.caps[i]
    b = cap_i.angular_radius
    e1, e2 = orthonormal_basis(cap_i.axis)
    cos_b, sin_b = math.cos(b), math.sin(b)
    arcs: list[Arc] = []
    for j, cap_j in enumerate(caps.caps):
        if j == i:
            continue
        if cap_j.is_full:
            arcs.append(Arc(0.0, math.pi, PERIOD_CIRCLE))
            continue
        a_j = cap_j.axis
        big_a = cos_b * float(cap_i.axis @ a_j)
        c1, c2 = float(e1 @ a_j), float(e2 @ a_j)
        big_r = sin_b * math.hypot(c1, c2)
        target = math.cos(cap_j.angular_radius) - tol
        if big_r < 1e-15:
            if big_a >= target:
                arcs.append(Arc(0.0, math.pi, PERIOD_CIRCLE))
            continue
        w = (target - big_a) / big_r
        if w <= -1.0:
            arcs.append(Arc(0.0, math.pi, PERIOD_CIRCLE))
        elif w < 1.0:
            arcs.append(Arc(math.atan2(c2, c1), math.acos(w), PERIOD_CIRCLE))
    return ArcSet(PERIOD_CIRCLE, arcs)


def boundary_arrangement(caps: CapSet, tol: float = TOL) -> list[list[Arc]]:
    """Per cap, the arcs of its boundary circle left uncovered by the others."""
    return [
        uncovered_arcs(cap_boundary_cover_arcs(caps, i, tol), tol)
        for i in range(len(caps.caps))
    ]


def cover_sphere(caps: CapSet, tol: float = TOL) -> SphereCoverage:
    """Decide whether the caps cover S^2.

    Uncovered verdicts carry the exact maximiser of mu as the witness, with
    mu > tol.  Otherwise the boundary arrangement decides: covered when
    every boundary circle is covered by the other caps, indeterminate when
    some arc is left open but no direction clears the tolerance (the
    configuration sits within tol of tangency; never guessed).  ``falsify``
    costs O(k^3) in the number of caps; see there.
    """
    if not caps.caps:
        return SphereCoverage(UNCOVERED, np.array([0.0, 0.0, 1.0]), math.inf, stage="trivial")
    if any(c.is_full for c in caps.caps):
        return SphereCoverage(COVERED, None, 0.0, stage="trivial")
    d, mu = falsify(caps, tol)
    if mu > tol:
        return SphereCoverage(UNCOVERED, d, mu, stage="falsifier")
    report = boundary_arrangement(caps, tol)
    verdict = COVERED if all(not gaps for gaps in report) else INDETERMINATE
    return SphereCoverage(verdict, None, mu, boundary_report=report, stage="arrangement")


def uncovered_area_estimate(caps: CapSet, samples: int, seed: int) -> float:
    """Monte Carlo estimate of the area where mu(d) > 0 (4*pi when no caps)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if not caps.caps:
        return 4.0 * math.pi
    pts = sample_sphere(samples, seed)
    frac = float(np.count_nonzero(_grid_margins(pts, caps) > 0.0)) / samples
    return 4.0 * math.pi * frac
