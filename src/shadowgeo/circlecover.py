"""Arc unions on a circle: one arc rule, and coverage with gap witnesses.

Arcs live on a circle of period pi (undirected line directions) or 2*pi
(oriented directions, boundary-circle parameters).  Every arc the package
builds, for shadow decisions, tangent lines and cap boundary circles,
comes from one rule, :func:`threshold_arcs`, and one merge decides
coverage, both on (center, half_width) float pairs that ``Arc`` wraps.
Coverage fuses gaps shorter than ``tol`` so that exact-tangency unions
count as covered instead of leaking hairline float gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TOL

PERIOD_LINE = math.pi
PERIOD_CIRCLE = math.tau

_PERIODS = (PERIOD_LINE, PERIOD_CIRCLE)


def _snap_period(p: float) -> float:
    for q in _PERIODS:
        if p == q or math.isclose(p, q, rel_tol=1e-12):
            return q
    raise ValueError(f"period must be pi or 2*pi, got {p!r}")


@dataclass(frozen=True)
class Arc:
    """Closed angular interval [center - half_width, center + half_width] mod period."""

    center: float
    half_width: float
    period: float = PERIOD_LINE

    def __post_init__(self) -> None:
        period = _snap_period(self.period)
        if not (math.isfinite(self.center) and math.isfinite(self.half_width)):
            raise ValueError("arc parameters must be finite")
        if self.half_width < 0:
            raise ValueError("arc half_width must be >= 0")
        # a tiny negative centre rounds up to the period itself, which is 0 again
        center = self.center % period
        object.__setattr__(self, "center", 0.0 if center == period else center)
        # a half-width of period/2 or more is the whole circle
        object.__setattr__(self, "half_width", min(self.half_width, period / 2))
        object.__setattr__(self, "period", period)


@dataclass
class ArcSet:
    """A finite family of arcs sharing one period."""

    period: float
    arcs: list[Arc]

    def __post_init__(self) -> None:
        self.period = _snap_period(self.period)
        for a in self.arcs:
            if a.period != self.period:
                raise ValueError("mixed arc periods in one ArcSet")


def _threshold_intervals(w: np.ndarray, s: np.ndarray, period: float) -> list[tuple[float, float]]:
    """:func:`threshold_arcs` as (center mod period, min(half_width, period / 2)) pairs."""
    # np.linalg.norm's sum of squares, bit for bit, without its dispatch cost
    norms = np.sqrt((w * w).sum(axis=1)).tolist()
    return [(0.0, period / 2) if sj <= -n
            else (math.atan2(w2, w1) % period, min(math.acos(sj / n), period / 2))
            for (w1, w2), n, sj in zip(w.tolist(), norms, s.tolist()) if sj <= n]


def threshold_arcs(w: np.ndarray, s: np.ndarray, period: float) -> ArcSet:
    """One arc per row j: the angles t with (cos t, sin t) . w_j >= s_j.

    ``w`` is (k, 2), ``s`` is (k,).  The arc is centred at atan2(w_j) with
    half-width acos(s_j / |w_j|): the whole circle if s_j <= -|w_j|, none
    if s_j > |w_j|, so w_j = 0 never divides.  On the period-pi circle t
    and t + pi are one direction.  Angles come from ``math``: numpy's
    arctan2 and arccos can differ in the last bit and move printed gaps.
    The arcs wrap ``_threshold_intervals``' pairs; shadow decisions use the pairs.
    """
    return ArcSet(period, [Arc(c, h, period) for c, h in _threshold_intervals(w, s, period)])


@dataclass(frozen=True)
class CircleCoverage:
    """Outcome of a circle coverage decision.

    ``witness`` is the midpoint of the largest gap when uncovered, and
    ``largest_gap`` its angular length (0 when covered, the full period
    when there are no arcs at all).
    """

    covered: bool
    witness: float | None
    largest_gap: float


def _gaps(arcs: list[tuple[float, float]], period: float, tol: float) -> list[tuple[float, float]]:
    """Complement of the arc union as (start, end) pairs, each longer than tol.

    Ends may exceed the period for the single gap that wraps through 0.
    """
    intervals: list[tuple[float, float]] = []
    for center, half_width in arcs:
        if half_width >= period / 2:
            return []
        lo = (center - half_width) % period
        hi = lo + 2.0 * half_width
        if hi <= period:
            intervals.append((lo, hi))
        else:
            intervals.append((lo, period))
            intervals.append((0.0, hi - period))
    if not intervals:
        return [(0.0, period)]
    intervals.sort()
    merged = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1] + tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    gaps = [
        (first[1], second[0])
        for first, second in zip(merged, merged[1:])
        if second[0] - first[1] > tol
    ]
    wrap = merged[0][0] + period - merged[-1][1]
    if wrap > tol:
        gaps.append((merged[-1][1], merged[0][0] + period))
    return gaps


def _cover_pairs(arcs: list[tuple[float, float]], period: float, tol: float) -> CircleCoverage:
    """:func:`cover_circle` on (center, half_width) pairs."""
    if not arcs:
        return CircleCoverage(covered=False, witness=0.0, largest_gap=period)
    gaps = _gaps(arcs, period, tol)
    if not gaps:
        return CircleCoverage(covered=True, witness=None, largest_gap=0.0)
    start, end = max(gaps, key=lambda g: g[1] - g[0])
    witness = ((start + end) / 2.0) % period
    return CircleCoverage(covered=False, witness=witness, largest_gap=end - start)


def cover_circle(arcs: ArcSet, tol: float = TOL) -> CircleCoverage:
    """Decide whether the arcs cover the whole circle.

    Gaps of length ``tol`` or less are fused shut, so unions that close up
    by exact tangency are reported as covered.  When uncovered, the witness
    is the midpoint of the largest surviving gap and sits clear of every
    arc by at least half that gap.
    """
    return _cover_pairs([(a.center, a.half_width) for a in arcs.arcs], arcs.period, tol)


def uncovered_arcs(arcs: ArcSet, tol: float = TOL) -> list[Arc]:
    """The complement of the union, reported as arcs of the same period."""
    return [
        Arc(((s + e) / 2.0) % arcs.period, (e - s) / 2.0, arcs.period)
        for s, e in _gaps([(a.center, a.half_width) for a in arcs.arcs], arcs.period, tol)
    ]
