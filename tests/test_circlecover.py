import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shadowgeo.circlecover import (
    PERIOD_CIRCLE,
    PERIOD_LINE,
    Arc,
    ArcSet,
    _cover_pairs,
    _threshold_intervals,
    cover_circle,
    threshold_arcs,
    uncovered_arcs,
)

from oracles import circle_point_margins


def uncovered_length(arcs):
    """Total angular length the union leaves uncovered: the summed uncovered arcs."""
    return sum(2.0 * h.half_width for h in uncovered_arcs(arcs))


def test_arc_normalizes_center_and_caps_half_width():
    a = Arc(center=math.pi + 0.5, half_width=10.0, period=PERIOD_LINE)
    assert a.center == pytest.approx(0.5)
    assert a.half_width == PERIOD_LINE / 2
    for period in (PERIOD_LINE, PERIOD_CIRCLE):
        # -1e-20 % period rounds up to the period itself
        for tiny in (-1e-20, -1e-300, -5e-324):
            assert Arc(tiny, 0.1, period).center == 0.0
        for k in (1, 2, 3, 5, 1024):
            assert Arc(-k * period, 0.1, period).center == 0.0
        assert Arc(-0.5 * period, 0.1, period).center == 0.5 * period


@given(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([PERIOD_LINE, PERIOD_CIRCLE]))
@example(-1e-20, PERIOD_LINE)
@example(-5e-324, PERIOD_CIRCLE)
def test_arc_center_lies_in_one_period(center, period):
    assert 0.0 <= Arc(center, 0.1, period).center < period


def test_arc_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Arc(0.0, -0.1)
    with pytest.raises(ValueError):
        Arc(math.nan, 0.1)
    with pytest.raises(ValueError):
        Arc(0.0, 0.1, period=1.5)


def test_arcset_rejects_mixed_periods():
    with pytest.raises(ValueError):
        ArcSet(PERIOD_LINE, [Arc(0.0, 0.1, PERIOD_LINE), Arc(0.0, 0.1, PERIOD_CIRCLE)])


def test_empty_set_is_uncovered_with_full_gap():
    cov = cover_circle(ArcSet(PERIOD_LINE, []))
    assert not cov.covered
    assert cov.witness == 0.0
    assert cov.largest_gap == PERIOD_LINE


def test_single_full_arc_covers():
    cov = cover_circle(ArcSet(PERIOD_CIRCLE, [Arc(1.0, math.pi, PERIOD_CIRCLE)]))
    assert cov.covered
    assert cov.largest_gap == 0.0
    assert cov.witness is None


def test_half_arc_leaves_half_gap():
    cov = cover_circle(ArcSet(PERIOD_LINE, [Arc(0.0, math.pi / 4)]))
    assert not cov.covered
    assert cov.largest_gap == pytest.approx(math.pi / 2)
    assert cov.witness == pytest.approx(math.pi / 2)


def test_exact_tangency_counts_as_covered():
    # [
    #   -pi/4, pi/4] and [pi/4, 3pi/4] close the period-pi circle exactly
    arcs = ArcSet(PERIOD_LINE, [Arc(0.0, math.pi / 4), Arc(math.pi / 2, math.pi / 4)])
    assert cover_circle(arcs).covered
    assert uncovered_length(arcs) == pytest.approx(0.0, abs=1e-12)


def test_hairline_gap_is_fused_but_real_gap_is_not():
    eps = 1e-12
    arcs = ArcSet(PERIOD_LINE, [Arc(0.0, math.pi / 4 - eps), Arc(math.pi / 2, math.pi / 4)])
    assert cover_circle(arcs, tol=1e-9).covered
    # shrinking one half-width by 0.05 opens a 0.05 gap at each end
    wide = ArcSet(PERIOD_LINE, [Arc(0.0, math.pi / 4 - 0.05), Arc(math.pi / 2, math.pi / 4)])
    cov = cover_circle(wide, tol=1e-9)
    assert not cov.covered
    assert cov.largest_gap == pytest.approx(0.05, abs=1e-9)
    assert uncovered_length(wide) == pytest.approx(0.1, abs=1e-9)


def test_wrap_around_gap_reported_once():
    # covers [0.2, 2pi - 0.2]; the only gap straddles zero
    arcs = ArcSet(PERIOD_CIRCLE, [Arc(math.pi, math.pi - 0.2, PERIOD_CIRCLE)])
    cov = cover_circle(arcs)
    assert not cov.covered
    assert cov.largest_gap == pytest.approx(0.4)
    assert cov.witness == pytest.approx(0.0, abs=1e-12) or cov.witness == pytest.approx(
        PERIOD_CIRCLE, abs=1e-12
    )


def test_witness_picks_largest_gap():
    arcs = ArcSet(
        PERIOD_CIRCLE,
        [Arc(0.0, 0.5, PERIOD_CIRCLE), Arc(2.0, 0.5, PERIOD_CIRCLE), Arc(4.0, 0.4, PERIOD_CIRCLE)],
    )
    cov = cover_circle(arcs)
    # gaps: (0.5,1.5) len 1.0, (2.5,3.6) len 1.1, (4.4, 2pi-0.5) len ~1.38
    assert not cov.covered
    assert cov.largest_gap == pytest.approx(2 * math.pi - 4.9)
    assert cov.witness == pytest.approx((4.4 + 2 * math.pi - 0.5) / 2)


def test_uncovered_arcs_complement_the_union():
    arcs = ArcSet(PERIOD_LINE, [Arc(0.3, 0.2), Arc(1.8, 0.3)])
    holes = uncovered_arcs(arcs)
    together = ArcSet(PERIOD_LINE, arcs.arcs + holes)
    assert cover_circle(together).covered


def test_uncovered_measure_of_empty_set_is_period():
    assert uncovered_length(ArcSet(PERIOD_CIRCLE, [])) == PERIOD_CIRCLE


@st.composite
def arc_sets(draw, period=PERIOD_CIRCLE, max_arcs=8):
    n = draw(st.integers(0, max_arcs))
    arcs = [
        Arc(
            draw(st.floats(0.0, period, allow_nan=False)),
            draw(st.floats(0.0, period / 2, allow_nan=False)),
            period,
        )
        for _ in range(n)
    ]
    return ArcSet(period, arcs)


def _raw(arcset):
    return [(a.center, a.half_width) for a in arcset.arcs]


@given(arc_sets())
def test_uncovered_witness_is_certified(arcset):
    cov = cover_circle(arcset)
    if cov.covered:
        return
    margin = circle_point_margins([cov.witness], _raw(arcset), arcset.period)[0]
    assert margin >= cov.largest_gap / 2 - 1e-9


@given(arc_sets())
def test_covered_verdict_agrees_with_dense_sampling(arcset):
    cov = cover_circle(arcset)
    if not cov.covered:
        return
    ts = [i * arcset.period / 4096 for i in range(4096)]
    margins = circle_point_margins(ts, _raw(arcset), arcset.period)
    # fused gaps never hide a point deeper than the fusion tolerance
    assert margins.max() <= 1e-9 or not _raw(arcset)


@given(arc_sets(max_arcs=6), st.floats(0.0, PERIOD_CIRCLE, allow_nan=False))
def test_adding_an_arc_never_uncovers(arcset, extra_center):
    before = cover_circle(arcset)
    arcset.arcs.append(Arc(extra_center, 0.3, arcset.period))
    after = cover_circle(arcset)
    if before.covered:
        assert after.covered
    assert uncovered_length(arcset) <= before.largest_gap * len(arcset.arcs) + 1e-9


@given(arc_sets(max_arcs=6), st.floats(-10.0, 10.0, allow_nan=False))
def test_rotation_preserves_verdict_and_measure(arcset, shift):
    base = cover_circle(arcset)
    measure = uncovered_length(arcset)
    rotated = ArcSet(
        arcset.period,
        [Arc(a.center + shift, a.half_width, a.period) for a in arcset.arcs],
    )
    rot = cover_circle(rotated)
    assert rot.covered == base.covered
    assert rot.largest_gap == pytest.approx(base.largest_gap, abs=1e-9)
    assert uncovered_length(rotated) == pytest.approx(measure, abs=1e-9)


@st.composite
def threshold_rows(draw):
    """Rows (w, s) of the threshold rule: zero w, whole circle, no arc and partial arcs."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        w = draw(st.one_of(
            st.just((0.0, 0.0)),
            st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        ))
        n = math.hypot(*w)
        ratio = draw(st.one_of(st.sampled_from([-1.0, -0.9995, 0.9995, 1.0]),
                               st.floats(-2.0, 2.0)))
        s = ratio * n if n > 0.0 else draw(st.sampled_from([-1.0, 0.0, 1.0]))
        rows.append((w, s))
    return rows


@pytest.mark.parametrize("period", [PERIOD_LINE, PERIOD_CIRCLE])
@given(rows=threshold_rows())
def test_threshold_arcs_match_the_raw_predicate(period, rows):
    w = np.array([r[0] for r in rows]).reshape(-1, 2)
    s = np.array([r[1] for r in rows])
    together = threshold_arcs(w, s, period)
    assert together.period == period
    singles = [threshold_arcs(w[j:j + 1], s[j:j + 1], period).arcs for j in range(len(s))]
    assert together.arcs == [a for arcs in singles for a in arcs]
    ts = np.arange(2048) * (period / 2048)
    # on the period-pi circle t and t + pi are one direction
    lifts = [0.0] if period == PERIOD_CIRCLE else [0.0, math.pi]
    for (w1, w2), sj, arcs in zip(w.tolist(), s.tolist(), singles):
        assert len(arcs) <= 1
        if sj > math.hypot(w1, w2):
            assert not arcs
        # the oracle's circular distance from each t to the arc, negative inside
        margins = circle_point_margins(ts, [(a.center, a.half_width) for a in arcs], period)
        for t, margin in zip(ts.tolist(), margins.tolist()):
            values = [math.cos(t + lift) * w1 + math.sin(t + lift) * w2 - sj for lift in lifts]
            want = max(values) >= 0.0
            got = margin <= 0.0
            if want != got:
                # only within float fuzz of a crossing
                fuzz = 1e-9 * (1.0 + abs(w1) + abs(w2) + abs(sj))
                assert min(abs(v) for v in values) <= fuzz or abs(margin) <= 1e-7


@st.composite
def cover_rows(draw):
    """(k, 2) rows w and thresholds s: |w| below, at and above s, very long, duplicated, antipodal."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        w1, w2 = draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
        scale = draw(st.sampled_from([1.0, 1.0, 1e-12, 1e12]))
        w1, w2 = w1 * scale, w2 * scale
        # the norm exactly as the arc rule computes it, so a ratio of +-1 is an exact tie
        n = float(np.sqrt(np.array([w1 * w1 + w2 * w2]))[0])
        ratio = draw(st.one_of(st.sampled_from([-1.5, -1.0, 1.0, 1.5]), st.floats(-1.0, 1.0)))
        rows.append((w1, w2, ratio * n if n > 0.0 else draw(st.sampled_from([-1.0, 0.0, 1.0]))))
    if rows:
        for j in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
            rows.append(rows[j])
        for j in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
            w1, w2, sj = rows[j]
            rows.append((-w1, -w2, sj))
    return np.array(rows, dtype=float).reshape(-1, 3)


@pytest.mark.parametrize("period", [PERIOD_LINE, PERIOD_CIRCLE])
@settings(max_examples=400)
@given(rows=cover_rows())
def test_pair_cover_equals_the_arc_set_cover_bit_for_bit(period, rows):
    w, s = rows[:, :2], rows[:, 2]
    want = cover_circle(threshold_arcs(w, s, period))
    got = _cover_pairs(_threshold_intervals(w, s, period), period, 1e-9)
    assert got.covered == want.covered
    assert repr(got.witness) == repr(want.witness)
    assert got.largest_gap.hex() == want.largest_gap.hex()
