import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from shadowgeo.geometry import (
    CLOSED,
    OPEN,
    Ball,
    Band,
    Cap,
    DimensionUnsupported,
    PointInsideBall,
    Scene,
    as_vector,
    ball_band,
    ball_sphere_cap,
    flat_clearances,
    line_ball_clearance,
    orthonormal_basis,
    tangent_arcs,
    unit,
)

from oracles import flat_ball_clearances, line_ball_min_distance, line_hits, sphere_point_margins

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def test_as_vector_validation():
    assert as_vector([1, 2, 3]).dtype == float
    with pytest.raises(ValueError):
        as_vector([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        as_vector([1.0, math.inf])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3)


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        unit([0.0, 0.0, 0.0])
    assert np.allclose(unit([3.0, 4.0]), [0.6, 0.8])


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball([0, 0], 0.0)
    with pytest.raises(ValueError):
        Ball([0, 0], -1.0)
    with pytest.raises(ValueError):
        Ball([0, 0], 1.0, topology="clopen")


def test_ball_contains_respects_topology():
    sc = Scene(2, [Ball([0.0, 0.0], 1.0, OPEN), Ball([0.0, 0.0], 1.0, CLOSED)])
    # the topology is carried as the scene's closed mask; clearances ignore it
    np.testing.assert_array_equal(sc.closed, [False, True])
    np.testing.assert_array_equal(sc.clearances([1.0, 0.0]), [0.0, 0.0])
    np.testing.assert_array_equal(sc.clearances([2.0, 0.0]), [1.0, 1.0])
    np.testing.assert_array_equal(sc.clearances([0.5, 0.0]), [-0.5, -0.5])


def test_scene_checks_dimensions_and_overlaps():
    with pytest.raises(ValueError):
        Scene(2, [Ball([0, 0, 0], 1.0)])
    sc = Scene(2, [Ball([0, 0], 1.0), Ball([1.5, 0], 1.0), Ball([9, 9], 1.0)])
    assert sc.disjointness_violations() == [(0, 1)]
    assert len(sc) == 3
    np.testing.assert_allclose(sc.clearances([0.0, 0.0]), [-1.0, 0.5, math.hypot(9, 9) - 1])


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_scene_clearances_match_least_squares(dim, m):
    rng = np.random.default_rng(100 * dim + m)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        centers = rng.normal(size=(k, dim)) * 5.0
        radii = rng.uniform(0.1, 2.0, k)
        sc = Scene(dim, [Ball(c, r) for c, r in zip(centers, radii)])
        x = rng.normal(size=dim)
        basis = np.linalg.qr(rng.normal(size=(dim, m)))[0].T if m else None
        got = sc.clearances(x, basis)
        want = flat_ball_clearances(x, basis, centers, radii)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * (1 + np.abs(want).max()))
        # the batch rounds exactly as the same formula for each ball alone
        for b, g in zip(sc.balls, got):
            w = b.center - x
            if m:
                w = w - basis.T @ (basis @ w)
            assert g == np.linalg.norm(w) - b.radius
            assert flat_clearances(b.center[None, :], b.radius, x, basis)[0] == g
            if m == 1:
                assert line_ball_clearance(x, basis[0], b) == g


def test_pair_gaps_and_violations_with_overlap_and_exact_tangency():
    # balls 0 and 1 touch exactly, 2 and 3 overlap by 0.5
    sc = Scene(2, [Ball([0.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0),
                   Ball([5.0, 0.0], 1.5), Ball([7.0, 0.0], 1.0)])
    gaps = sc.pair_gaps()
    assert gaps.shape == (4, 4)
    np.testing.assert_array_equal(gaps, gaps.T)
    np.testing.assert_array_equal(np.diag(gaps), -2.0 * sc.radii)
    assert gaps[0, 1] == 0.0
    assert gaps[2, 3] == -0.5
    assert gaps[0, 2] == 2.5
    for tol in (0.0, 1e-9):
        assert sc.disjointness_violations(tol) == [(2, 3)]
    assert sc.disjointness_violations(0.5) == []


def test_scene_arrays_are_built_once_from_the_balls():
    sc = Scene(3, [Ball([1.0, 2.0, 3.0], 0.5, OPEN), Ball([-4.0, 0.0, 1.0], 1.5)])
    np.testing.assert_array_equal(sc.centers, [[1.0, 2.0, 3.0], [-4.0, 0.0, 1.0]])
    np.testing.assert_array_equal(sc.radii, [0.5, 1.5])
    np.testing.assert_array_equal(sc.closed, [False, True])
    empty = Scene(4, [])
    assert empty.centers.shape == (0, 4)
    assert empty.clearances(np.zeros(4)).shape == (0,)
    assert empty.disjointness_violations() == []
    with pytest.raises(ValueError):
        sc.clearances([0.0, 0.0, 0.0], [[1.0, 0.0]])


def test_band_validation_and_membership():
    with pytest.raises(ValueError):
        Band(np.array([1.0, 0.0]), half_angle=2.0)
    band = Band(np.array([1.0, 0.0, 0.0]), half_angle=math.pi / 6)
    # d is in the band iff |d . axis| >= cos(half_angle)
    cos_half = math.cos(band.half_angle)
    assert abs(band.axis @ [1.0, 0.0, 0.0]) >= cos_half
    assert abs(band.axis @ [-1.0, 0.0, 0.0]) >= cos_half
    # 45 degrees off axis is outside a 30 degree band
    assert abs(band.axis @ unit([1.0, 1.0, 0.0])) < cos_half


def test_cap_validation():
    with pytest.raises(ValueError):
        Cap(np.array([1.0, 1.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        Cap(np.array([1.0, 0.0, 0.0]), 4.0)
    cap = Cap(np.array([0.0, 0.0, 1.0]), math.pi / 3)
    # the pole lies inside the cap and its antipode outside
    margins = sphere_point_margins([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                                   [(cap.axis, cap.angular_radius)])
    assert margins[0] < 0.0 < margins[1]
    assert not cap.is_empty and not cap.is_full


def test_orthonormal_basis_is_deterministic_and_orthonormal():
    axis = unit([0.3, -0.5, 0.81])
    e1, e2 = orthonormal_basis(axis)
    again = orthonormal_basis(axis)
    np.testing.assert_array_equal(e1, again[0])
    np.testing.assert_array_equal(e2, again[1])
    for v in (e1, e2):
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert abs(v @ axis) < 1e-12
    assert abs(e1 @ e2) < 1e-12
    np.testing.assert_allclose(np.cross(e1, e2), axis, atol=1e-12)


def test_ball_band_half_angle_values():
    # sin(alpha) = r / |c - x|
    band = ball_band([0.0, 0.0], Ball([1.0, 0.0], 0.995))
    assert band.half_angle == pytest.approx(math.asin(0.995))
    assert not band.boundary
    band = ball_band([0.0, 0.0, 0.0], Ball([3.0, 0.0, 0.0], 1.0))
    assert band.half_angle == pytest.approx(math.asin(1.0 / 3.0))
    np.testing.assert_allclose(band.axis, [1.0, 0.0, 0.0])


def test_ball_band_boundary_and_inside():
    ball = Ball([2.0, 0.0], 1.0)
    band = ball_band([1.0, 0.0], ball)
    assert band.boundary
    assert band.half_angle == math.pi / 2
    with pytest.raises(PointInsideBall):
        ball_band([1.5, 0.0], ball)


def test_ball_sphere_cap_cases():
    # unit-distance center: cross-check against beta = 2 arcsin(r/2)
    cap = ball_sphere_cap(Ball([0.0, 0.0, 1.0], 0.6))
    assert cap.angular_radius == pytest.approx(2 * math.asin(0.3), abs=1e-12)
    # too far away: empty
    assert ball_sphere_cap(Ball([5.0, 0.0, 0.0], 1.0)).is_empty
    # swallows the whole sphere: full
    assert ball_sphere_cap(Ball([0.1, 0.0, 0.0], 3.0)).is_full
    # centered at the origin
    assert ball_sphere_cap(Ball([0.0, 0.0, 0.0], 2.0)).is_full
    assert ball_sphere_cap(Ball([0.0, 0.0, 0.0], 0.5)).is_empty
    assert ball_sphere_cap(Ball([0.0, 0.0, 0.0], 1.0, CLOSED)).is_full
    assert ball_sphere_cap(Ball([0.0, 0.0, 0.0], 1.0, OPEN)).is_empty
    with pytest.raises(DimensionUnsupported):
        ball_sphere_cap(Ball([0.0, 0.0], 1.0))


def test_tangent_arcs_known_configuration():
    x = np.array([0.0, 0.0, 1.0])
    arcs = tangent_arcs(x, Ball([2.0, 0.0, 1.0], 1.0))
    assert len(arcs) == 1
    assert arcs[0].half_width == pytest.approx(math.pi / 6)
    assert arcs[0].center == pytest.approx(math.pi / 2)


def test_tangent_arcs_absent_cases():
    x = np.array([0.0, 0.0, 1.0])
    # ball sitting on the normal axis never meets a tangent line
    assert tangent_arcs(x, Ball([0.0, 0.0, 3.0], 1.0)) == []
    # ball visible from x but clear of the tangent plane
    assert tangent_arcs(x, Ball([0.5, 0.0, 2.0], 0.3)) == []
    with pytest.raises(PointInsideBall):
        tangent_arcs(x, Ball([0.0, 0.1, 1.0], 0.5))


def test_pair_relation():
    # the sign of the pair gap tells disjoint (+), tangent (0) and overlapping (-) apart
    for other, sign in (([3, 0], 1.0), ([2, 0], 0.0), ([1, 0], -1.0)):
        assert np.sign(Scene(2, [Ball([0, 0], 1.0), Ball(other, 1.0)]).pair_gaps()[0, 1]) == sign
    with pytest.raises(ValueError):
        Scene(2, [Ball([0, 0], 1.0), Ball([0, 0, 0], 1.0)])


def test_line_hits_ball_topology_on_tangent_line():
    # the x-axis is tangent to a radius-1 ball centered at (0, 1)
    x, d = [5.0, 0.0], [1.0, 0.0]
    sc = Scene(2, [Ball([0.0, 1.0], 1.0, CLOSED), Ball([0.0, 1.0], 1.0, OPEN)])
    c = sc.clearances(x, d)
    # a tangent line meets the closed ball and misses the open one
    assert ((c < 0.0) | ((c <= 0.0) & sc.closed)).tolist() == [True, False]
    assert line_ball_clearance(x, d, Ball([0.0, 1.0], 1.0)) == pytest.approx(0.0)


@given(
    st.lists(finite, min_size=3, max_size=3),
    st.lists(finite, min_size=3, max_size=3),
    st.lists(finite, min_size=3, max_size=3),
    st.floats(0.05, 10.0),
)
def test_line_clearance_matches_scalar_minimization(xl, dl, cl, r):
    x, d, c = np.array(xl), np.array(dl), np.array(cl)
    if np.linalg.norm(d) < 1e-6:
        return
    d = unit(d)
    got = line_ball_clearance(x, d, Ball(c, r))
    want = line_ball_min_distance(x, d, c, r)
    assert got == pytest.approx(want, abs=1e-6)


@given(
    st.lists(finite, min_size=3, max_size=3),
    st.lists(finite, min_size=3, max_size=3),
    st.floats(0.05, 10.0),
    st.integers(0, 2**31 - 1),
)
def test_band_contains_directions_that_hit(xl, cl, r, seed):
    x, c = np.array(xl), np.array(cl)
    ball = Ball(c, r)
    if flat_ball_clearances(x, None, [c], [r])[0] <= 1e-6:
        return
    band = ball_band(x, ball)
    rng = np.random.default_rng(seed)
    # aim at a random interior point: that line must hit, so its
    # direction must be inside the band
    offset = rng.normal(size=3)
    target = c + offset * (r / max(4.0, 1.01 * float(np.linalg.norm(offset))))
    d = unit(target - x)
    assert line_hits(x, d, c, r, closed=True, tol=1e-9)
    assert abs(float(d @ band.axis)) >= math.cos(band.half_angle) - 1e-9


@given(st.lists(finite, min_size=3, max_size=3), st.floats(0.05, 10.0))
@example(cl=[0.0, 0.0, 3.2854077093585726e-158], r=1.0)
@example(cl=[0.0, 0.0, 1e-20], r=1.0)
def test_sphere_cap_membership_matches_ball(cl, r):
    c = np.array(cl)
    ball = Ball(c, r)
    cap = ball_sphere_cap(ball)
    points = [unit([1.0, 0.2, -0.4]), unit([-1.0, 2.0, 0.3]), unit(c + 1e-9)]
    cap_margins = sphere_point_margins(points, [(cap.axis, cap.angular_radius)])
    for p, cap_margin in zip(points, cap_margins):
        clearance = flat_ball_clearances(p, None, [c], [r])[0]
        inside_cap = cap_margin <= 1e-9
        if clearance <= 0.0:
            assert inside_cap
        if not inside_cap:
            assert clearance >= -1e-7
