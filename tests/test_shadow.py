import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shadowgeo.constructions import (
    build_cube14,
    build_lemma,
    random_disjoint_balls,
    random_equal_balls,
)
from shadowgeo.geometry import (
    CLOSED,
    OPEN,
    BadDimension,
    Ball,
    Cap,
    DimensionUnsupported,
    PointInsideBall,
    Scene,
    ball_band,
    unit,
)
from shadowgeo.sampling import fibonacci_sphere
from shadowgeo.spherecover import COVERED, INDETERMINATE, CapSet, cover_sphere
from shadowgeo.shadow import (
    NOT_SHADOWED,
    SHADOWED,
    PlaneFrame,
    _polar_hull,
    find_avoiding_plane,
    heuristic_shadow,
    point_shadow,
    tangent_shadow,
    witness_clearance,
)

from oracles import (
    line_ball_min_distance,
    line_hits,
    point_shadow_sampled,
    tangent_gap_angles,
    tangent_shadow_sampled,
)


def three_discs_at_120(radius):
    centers = [(3 * math.cos(a), 3 * math.sin(a)) for a in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return Scene(2, [Ball(c, radius) for c in centers])


def octahedral_scene(dist=3.0, radius=2.0):
    axes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return Scene(3, [Ball(np.array(a, dtype=float) * dist, radius) for a in axes])


def random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def concentric_shells(dim, vertices, rho, ratio, shells, seed):
    """Balls of radius rho * ratio^j at ratio^j times a rotated vertex set, shell j."""
    rng = np.random.default_rng(seed)
    balls = []
    for j in range(shells):
        rot = random_rotation(rng, dim)
        balls += [Ball(ratio**j * rot @ u, rho * ratio**j) for u in vertices]
    return Scene(dim, balls)


def certify_not_shadowed(scene, verdict):
    """The returned witness line really misses every non-touching ball."""
    assert verdict.verdict == NOT_SHADOWED
    x, d = verdict.witness_point, verdict.witness_direction
    skip = () if verdict.boundary_index is None else (verdict.boundary_index,)
    for i, b in enumerate(scene.balls):
        if i in skip:
            continue
        assert not line_hits(x, d, b.center, b.radius, closed=True, tol=1e-9)


# ---------------------------------------------------------------- dimension 2


def test_lemma_centroid_is_shadowed():
    cfg = build_lemma(1.0)
    v = point_shadow(cfg.scene, cfg.circumcenter)
    assert v.verdict == SHADOWED
    assert v.method == "arc-union"
    assert v.gap == 0.0


def test_far_point_not_shadowed_with_certified_witness():
    cfg = build_lemma(1.0)
    v = point_shadow(cfg.scene, [10.0, 10.0])
    certify_not_shadowed(cfg.scene, v)
    assert v.margin > 0
    assert v.gap > 0


def test_three_discs_at_120_degrees_tangent_cover():
    v = point_shadow(three_discs_at_120(1.5), [0.0, 0.0])
    assert v.verdict == SHADOWED
    v = point_shadow(three_discs_at_120(1.49), [0.0, 0.0])
    assert v.verdict == NOT_SHADOWED
    # shrinking every radius by 0.01 leaves exactly that much clearance
    assert v.margin == pytest.approx(0.01, abs=1e-9)


def test_point_inside_ball_raises():
    sc = Scene(2, [Ball([0.0, 0.0], 1.0)])
    with pytest.raises(PointInsideBall):
        point_shadow(sc, [0.1, 0.0])


def test_unsupported_dimensions():
    sc = Scene(4, [Ball([2.0, 0.0, 0.0, 0.0], 1.0)])
    v = point_shadow(sc, [0.0, 0.0, 0.0, 0.0])
    certify_not_shadowed(sc, v)
    assert v.method == "polar-hull"
    sc1 = Scene(1, [Ball([2.0], 1.0)])
    with pytest.raises(DimensionUnsupported):
        point_shadow(sc1, [0.0])


def test_boundary_closed_ball_shadows_trivially():
    sc = Scene(2, [Ball([2.0, 0.0], 1.0, CLOSED)])
    v = point_shadow(sc, [1.0, 0.0])
    assert v.verdict == SHADOWED
    assert v.trivial
    assert v.boundary_index == 0


def test_boundary_open_disc_alone_is_escapable():
    sc = Scene(2, [Ball([2.0, 0.0], 1.0, OPEN)])
    v = point_shadow(sc, [1.0, 0.0])
    assert v.verdict == NOT_SHADOWED
    # the only escaping line is perpendicular to the touching axis
    assert abs(v.witness_direction @ np.array([1.0, 0.0])) < 1e-12
    assert v.margin == math.inf


def test_boundary_open_disc_with_blocker():
    # the vertical candidate line through (1, 0) runs into the second disc
    sc = Scene(2, [Ball([2.0, 0.0], 1.0, OPEN), Ball([1.0, 3.0], 1.0, CLOSED)])
    v = point_shadow(sc, [1.0, 0.0])
    assert v.verdict == SHADOWED
    assert v.method == "boundary-candidate"


def test_boundary_two_opposite_open_discs():
    # externally tangent at the query point: axes collapse to one
    sc = Scene(2, [Ball([2.0, 0.0], 1.0, OPEN), Ball([0.0, 0.0], 1.0, OPEN)])
    v = point_shadow(sc, [1.0, 0.0])
    assert v.verdict == NOT_SHADOWED
    assert v.margin == math.inf


def test_point_shadow_2d_arc_gap():
    # arcs of half-width asin(1/2) about 0 and asin(1/5) about pi/2 leave two
    # equal gaps of pi/3 - asin(1/5) on the period-pi circle of line directions
    sc = Scene(2, [Ball([2.0, 0.0], 1.0), Ball([0.0, 5.0], 1.0)])
    v = point_shadow(sc, [0.0, 0.0])
    assert v.verdict == NOT_SHADOWED
    assert v.method == "arc-union"
    assert v.gap == pytest.approx(math.pi / 3 - math.asin(0.2), abs=1e-12)


# ---------------------------------------------------------------- dimension 3


def test_cube14_origin_not_shadowed_either_topology():
    for topology in (OPEN, CLOSED):
        scene = build_cube14(topology).scene
        v = point_shadow(scene, [0.0, 0.0, 0.0])
        assert v.verdict == NOT_SHADOWED
        certify_not_shadowed(scene, v)
        assert v.method == "polar-hull"


def test_octahedral_balls_shadow_nothing_but_block_planes():
    sc = octahedral_scene()
    v = point_shadow(sc, [0.0, 0.0, 0.0])
    certify_not_shadowed(sc, v)
    assert find_avoiding_plane(sc, [0.0, 0.0, 0.0], 1, seed=0) is not None
    assert find_avoiding_plane(sc, [0.0, 0.0, 0.0], 2, seed=0) is None


def test_boundary_great_circle_cover():
    r = 3 * math.sin(math.pi / 4)
    ring = [
        Ball([3.0, 0.0, 1.0], r),
        Ball([-3.0, 0.0, 1.0], r),
        Ball([0.0, 3.0, 1.0], r),
        Ball([0.0, -3.0, 1.0], r),
    ]
    sc = Scene(3, [Ball([0.0, 0.0, 0.0], 1.0, OPEN)] + ring)
    assert sc.disjointness_violations() == []
    v = point_shadow(sc, [0.0, 0.0, 1.0])
    assert v.verdict == SHADOWED
    assert v.method == "boundary-circle"

    shrunk = [Ball(b.center, b.radius * 0.97) for b in ring]
    sc2 = Scene(3, [Ball([0.0, 0.0, 0.0], 1.0, OPEN)] + shrunk)
    v2 = point_shadow(sc2, [0.0, 0.0, 1.0])
    assert v2.verdict == NOT_SHADOWED
    assert v2.method == "boundary-circle"
    # the witness is a tangent line at the north pole of the open ball
    assert abs(v2.witness_direction @ np.array([0.0, 0.0, 1.0])) < 1e-9
    certify_not_shadowed(sc2, v2)


def test_boundary_two_independent_constraints_single_candidate():
    # overlapping on purpose: two open balls touching x with skew axes
    sc = Scene(3, [Ball([0.0, 0.0, 2.0], 1.0, OPEN), Ball([2.0, 0.0, 1.0], 2.0, OPEN)])
    v = point_shadow(sc, [0.0, 0.0, 1.0])
    assert v.verdict == NOT_SHADOWED
    assert v.method == "boundary-candidate"
    np.testing.assert_allclose(np.abs(v.witness_direction), [0.0, 1.0, 0.0], atol=1e-12)


def test_boundary_three_independent_constraints_pinched():
    sc = Scene(
        3,
        [
            Ball([0.0, 0.0, 2.0], 1.0, OPEN),
            Ball([2.0, 0.0, 1.0], 2.0, OPEN),
            Ball([0.0, 1.5, 1.0], 1.5, OPEN),
        ],
    )
    v = point_shadow(sc, [0.0, 0.0, 1.0])
    assert v.verdict == SHADOWED
    assert v.method == "boundary-pinched"


# ------------------------------------------------------- higher dimensions


CROSS_4 = np.vstack([np.eye(4), -np.eye(4)])


def test_dim4_shells_shadow_the_centre_until_shrunk():
    # six rotated cross-polytope shells: neighbouring centres of a shell are
    # sqrt(2) > 2 * 0.7 apart per unit of its distance, and shell j + 1 starts
    # beyond shell j since 6 * (1 - 0.7) > 1 + 0.7
    sc = concentric_shells(4, CROSS_4, 0.7, 6.0, 6, seed=20)
    assert sc.disjointness_violations() == []
    v = point_shadow(sc, np.zeros(4))
    assert v.verdict == SHADOWED
    assert v.method == "polar-hull"
    shadowed, miss = point_shadow_sampled(sc, np.zeros(4), n=1000, seed=1)
    assert shadowed, f"sampled miss {miss}"

    shrunk = concentric_shells(4, CROSS_4, 0.6, 6.0, 6, seed=20)
    v = point_shadow(shrunk, np.zeros(4))
    certify_not_shadowed(shrunk, v)
    assert v.search_margin > 1e-9
    assert v.margin > 1e-9


def test_dim4_open_boundary_one_touching_axis():
    # x = 0 sits on the open ball around e4: lines must stay in e4's complement
    ring = [Ball(3.0 * np.array(c, dtype=float), 1.0) for c in
            [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 1)]]
    sc = Scene(4, [Ball([0.0, 0.0, 0.0, 1.0], 1.0, OPEN)] + ring)
    assert sc.disjointness_violations() == []
    v = point_shadow(sc, np.zeros(4))
    assert v.verdict == NOT_SHADOWED
    assert v.method == "polar-hull"
    assert v.boundary_index == 0
    assert abs(v.witness_direction[3]) < 1e-12
    assert v.margin > 1e-9
    certify_not_shadowed(sc, v)


def test_dim4_open_boundary_two_touching_axes():
    # overlapping on purpose: two open balls touch x = 0 with axes e3 and e4,
    # leaving the circle of lines in the e1-e2 plane
    def scene(radius):
        blockers = [Ball([3.0 * math.cos(a), 3.0 * math.sin(a), 0.0, 0.0], radius)
                    for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
        return Scene(4, [Ball([0.0, 0.0, 0.0, 1.0], 1.0, OPEN),
                         Ball([0.0, 0.0, 2.0, 0.0], 2.0, OPEN)] + blockers)

    v = point_shadow(scene(1.6), np.zeros(4))
    assert v.verdict == SHADOWED
    assert v.method == "boundary-circle"
    sc = scene(1.4)
    v = point_shadow(sc, np.zeros(4))
    assert v.verdict == NOT_SHADOWED
    assert v.method == "boundary-circle"
    np.testing.assert_allclose(v.witness_direction[2:], 0.0, atol=1e-12)
    for b in sc.balls[2:]:
        assert not line_hits(v.witness_point, v.witness_direction, b.center, b.radius)


def test_polar_hull_answers_with_the_best_direction():
    # three radius-1 balls around x = 0, scaled by 0.01: the q_i are far from
    # flat and the nearest facet of conv{+-q_i} lies at 0.585, yet a witness
    # taken from the least-spread normal had search_margin 1e-9 and clearance
    # 3.4e-10, below tol
    centers = [[0.04672655877363481, 0.22756575350630548, -2.5151551908003773],
               [0.9521320573286192, -5.804688173902255, -0.6684480847655428],
               [3.2017669324857874, 0.4842448533583341, -0.20932999298327165]]
    sc = Scene(3, [Ball(0.01 * np.array(c), 0.01) for c in centers])
    v = point_shadow(sc, np.zeros(3))
    assert v.verdict == NOT_SHADOWED
    assert v.method == "polar-hull"
    assert v.search_margin > 0.4
    assert v.margin > 1e-9
    certify_not_shadowed(sc, v)


@given(st.integers(3, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_polar_hull_closed_form_matches_qhull(m, seed):
    from scipy.spatial import ConvexHull

    q = np.random.default_rng(seed).normal(size=(m, m))
    assume(abs(np.linalg.det(q)) > 1e-3)
    u, h = _polar_hull(q, 1e-9)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(q @ u)) == pytest.approx(h, rel=1e-9)
    # qhull's facet rows are (normal, -distance from the origin)
    nearest = -np.max(ConvexHull(np.vstack([q, -q])).equations[:, -1])
    assert h == pytest.approx(nearest, rel=1e-9)


# ------------------------------------------------------------- tangent lines


def test_tangent_shadow_cube14_edge_midpoint_escapes():
    scene = build_cube14().scene
    x = unit([1.0, 1.0, 0.0])
    v = tangent_shadow(scene, x)
    assert v.verdict == NOT_SHADOWED
    assert v.gap == pytest.approx(0.07092131293722148, abs=1e-12)
    # witness is tangent at x and misses everything
    assert abs(v.witness_direction @ v.witness_point) < 1e-9
    certify_not_shadowed(scene, v)


def test_tangent_shadow_cube14_generic_point_blocked():
    scene = build_cube14().scene
    v = tangent_shadow(scene, unit([0.3, 0.2, 1.0]))
    assert v.verdict == SHADOWED


def test_tangent_shadow_normalizes_input():
    scene = build_cube14().scene
    v1 = tangent_shadow(scene, [2.0, 2.0, 0.0])
    v2 = tangent_shadow(scene, unit([1.0, 1.0, 0.0]))
    assert v1.verdict == v2.verdict
    assert v1.gap == pytest.approx(v2.gap, abs=1e-12)


def test_tangent_shadow_rejects_point_inside_ball():
    scene = build_cube14().scene
    with pytest.raises(PointInsideBall):
        tangent_shadow(scene, unit([1.0, 1.0, 1.0]))
    # in R^2 the one tangent line at x = e1 is the vertical line through it
    v = tangent_shadow(Scene(2, [Ball([3.0, 0.0], 1.0)]), [2.0, 0.0])
    assert v.verdict == NOT_SHADOWED
    assert v.method == "tangent"
    np.testing.assert_allclose(np.abs(v.witness_direction), [0.0, 1.0], atol=1e-12)
    assert v.margin == pytest.approx(1.0)
    blocked = tangent_shadow(Scene(2, [Ball([1.0, 3.0], 1.0)]), [1.0, 0.0])
    assert blocked.verdict == SHADOWED
    assert blocked.method == "tangent"
    with pytest.raises(DimensionUnsupported):
        tangent_shadow(Scene(1, [Ball([3.0], 1.0)]), [1.0])


def test_tangent_shadow_on_a_ball_sphere_follows_topology():
    # x = e3 lies on the sphere of a ball centred at e1 + e3 with axis e1
    x = [0.0, 0.0, 1.0]
    v = tangent_shadow(Scene(3, [Ball([1.0, 0.0, 1.0], 1.0, CLOSED)]), x)
    assert v.verdict == SHADOWED
    assert v.trivial
    # an open ball leaves the tangent line along e2, unless a ball blocks it
    sc = Scene(3, [Ball([1.0, 0.0, 1.0], 1.0, OPEN), Ball([-3.0, 0.0, 1.0], 1.0)])
    v = tangent_shadow(sc, x)
    assert v.verdict == NOT_SHADOWED
    assert v.boundary_index == 0
    np.testing.assert_allclose(np.abs(v.witness_direction), [0.0, 1.0, 0.0], atol=1e-12)
    certify_not_shadowed(sc, v)
    blocked = Scene(3, [Ball([1.0, 0.0, 1.0], 1.0, OPEN), Ball([0.0, 3.0, 1.0], 1.0)])
    assert tangent_shadow(blocked, x).verdict == SHADOWED
    # in R^2 the one tangent line at e1 is tangent to an open disc centred at
    # 2 e1 too, so a touching case keeps its label; the disc above blocks it
    v = tangent_shadow(Scene(2, [Ball([2.0, 0.0], 1.0, OPEN), Ball([1.0, 3.0], 1.0)]), [1.0, 0.0])
    assert v.verdict == SHADOWED
    assert v.method == "boundary-candidate"
    assert v.boundary_index == 0


def outside_sphere_points(scene, n, count):
    """The first ``count`` of n Fibonacci sphere points at least 1e-3 outside every ball."""
    pts = fibonacci_sphere(n)
    clear = np.min([np.linalg.norm(pts - b.center, axis=1) - b.radius for b in scene.balls], axis=0)
    return pts[clear > 1e-3][:count]


def longest_run(misses, n):
    """Longest run of consecutive sweep steps among the missed angles, wrapping at pi."""
    missed = {round(t * n / math.pi - 0.5) for t in misses}
    if len(missed) == n:
        return n
    best = 0
    for start in missed - {(i + 1) % n for i in missed}:
        run = 0
        while (start + run) % n in missed:
            run += 1
        best = max(best, run)
    return best


CUBE14 = build_cube14().scene
RANDOM_SCENES = [random_equal_balls(3, 6, 0.45, seed=s, box=1.6) for s in (3, 17, 29)]
TANGENT_CASES = (
    [(CUBE14, unit([1.0, 1.0, 0.0])), (CUBE14, unit([0.3, 0.2, 1.0]))]
    + [(CUBE14, x) for x in outside_sphere_points(CUBE14, 64, 5)]
    + [(sc, x) for sc in RANDOM_SCENES for x in outside_sphere_points(sc, 16, 2)]
)


@pytest.mark.parametrize("scene, x", TANGENT_CASES)
def test_tangent_verdicts_agree_with_sweep(scene, x):
    n = 720
    step = math.pi / n
    v = tangent_shadow(scene, x)
    misses = tangent_gap_angles(scene, x, n=n)
    if v.verdict == SHADOWED:
        assert not misses
    else:
        assert v.verdict == NOT_SHADOWED
        assert abs(v.gap - longest_run(misses, n) * step) <= 2 * step


def test_tangent_shadow_empty_scene():
    v = tangent_shadow(Scene(3, []), [0.0, 0.0, 1.0])
    assert v.verdict == NOT_SHADOWED
    assert v.gap == math.pi


@st.composite
def tangent_query(draw):
    """A disjoint closed scene in R^2-R^5 packed around the unit sphere, and a sphere point."""
    dim = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 10_000))
    raw = random_disjoint_balls(dim, draw(st.integers(1, 3 * dim)), seed,
                                radius_range=(0.5, 2.0))
    # a uniform scaling keeps the balls disjoint and brings them near the sphere
    sc = Scene(dim, [Ball(0.4 * b.center, 0.4 * b.radius) for b in raw.balls])
    rng = np.random.default_rng(seed)
    for x in rng.normal(size=(20, dim)):
        x = x / np.linalg.norm(x)
        if sc.clearances(x).min() > 1e-3:
            return sc, x
    assume(False)


@given(tangent_query())
@settings(max_examples=40)
def test_tangent_verdicts_in_every_dimension_agree_with_sampling(case):
    sc, x = case
    v = tangent_shadow(sc, x)
    assert v.verdict in (SHADOWED, NOT_SHADOWED)
    if v.verdict == NOT_SHADOWED:
        d = v.witness_direction
        assert abs(d @ x) < 1e-9
        for b in sc.balls:
            assert line_ball_min_distance(x, d, b.center, b.radius) > 1e-9
    else:
        shadowed, miss = tangent_shadow_sampled(sc, x, n=200, seed=0)
        assert shadowed, f"sampled miss {miss}"


def test_tangent_shadow_in_r5_is_the_point_question_in_r4():
    # the tangent lines at e5 are the lines through e5 inside the hyperplane
    # x5 = 1, so shells centred at e5 in it shadow e5 iff they shadow 0 in R^4
    e5 = np.eye(5)[4]
    for rho, verdict in ((0.7, SHADOWED), (0.6, NOT_SHADOWED)):
        flat = concentric_shells(4, CROSS_4, rho, 6.0, 6, seed=20)
        sc = Scene(5, [Ball(np.append(b.center, 1.0), b.radius) for b in flat.balls])
        v = tangent_shadow(sc, e5)
        assert v.verdict == verdict == point_shadow(flat, np.zeros(4)).verdict
        assert v.method == "polar-hull"
        if verdict == SHADOWED:
            shadowed, miss = tangent_shadow_sampled(sc, e5, n=200, seed=2)
            assert shadowed, f"sampled miss {miss}"
        else:
            assert abs(v.witness_direction[4]) < 1e-12
            assert v.margin > 1e-9
            certify_not_shadowed(sc, v)


def test_shadow_decisions_load_no_scipy():
    code = (
        "import sys\n"
        "import shadowgeo\n"
        "sc2 = shadowgeo.build_lemma(1.0).scene\n"
        "shadowgeo.point_shadow(sc2, [0.5, 0.28867513459481287])\n"
        "cube14 = shadowgeo.build_cube14().scene\n"
        "shadowgeo.tangent_shadow(cube14, [1.0, 1.0, 0.0])\n"
        "caps = shadowgeo.CapSet([shadowgeo.ball_sphere_cap(b) for b in cube14.balls])\n"
        "assert shadowgeo.cover_sphere(caps).verdict == 'uncovered'\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# ------------------------------------------------------------ heuristic path


def test_heuristic_far_point_dim4_certified():
    sc = random_equal_balls(4, 3, 1.0, seed=5)
    v = heuristic_shadow(sc, [0.0, 0.0, 0.0, 0.0], seed=1)
    assert v.verdict == NOT_SHADOWED
    certify_not_shadowed(sc, v)
    assert v.search_margin > 1e-9


def test_heuristic_empty_scene():
    v = heuristic_shadow(Scene(4, []), [0.0] * 4)
    assert v.verdict == NOT_SHADOWED
    assert v.margin == math.inf


def test_heuristic_is_deterministic():
    sc = random_equal_balls(4, 4, 1.0, seed=11)
    v1 = heuristic_shadow(sc, [0.0] * 4, seed=3)
    v2 = heuristic_shadow(sc, [0.0] * 4, seed=3)
    assert v1.verdict == v2.verdict
    np.testing.assert_array_equal(v1.witness_direction, v2.witness_direction)


def test_heuristic_touching_high_dimension():
    open_touch = Scene(4, [Ball([2.0, 0.0, 0.0, 0.0], 1.0, OPEN)])
    v = heuristic_shadow(open_touch, [1.0, 0.0, 0.0, 0.0])
    assert v.verdict == NOT_SHADOWED
    assert v.boundary_index == 0
    assert abs(v.witness_direction @ np.array([1.0, 0.0, 0.0, 0.0])) < 1e-12
    closed_touch = Scene(4, [Ball([2.0, 0.0, 0.0, 0.0], 1.0, CLOSED)])
    v = heuristic_shadow(closed_touch, [1.0, 0.0, 0.0, 0.0])
    assert v.verdict == SHADOWED
    assert v.trivial


def test_heuristic_delegates_to_exact_in_dim2():
    v = heuristic_shadow(three_discs_at_120(1.5), [0.0, 0.0])
    assert v.verdict == SHADOWED
    assert v.method == "arc-union"


# ------------------------------------------------------------ avoiding plane


def test_plane_dimension_validation():
    sc = Scene(3, [Ball([2.0, 0.0, 0.0], 1.0)])
    for m in (0, 3, 5):
        with pytest.raises(BadDimension):
            find_avoiding_plane(sc, [0.0, 0.0, 0.0], m)


def test_line_delegation_matches_point_shadow():
    cfg = build_lemma(1.0)
    assert find_avoiding_plane(cfg.scene, cfg.circumcenter, 1) is None
    frame = find_avoiding_plane(cfg.scene, [10.0, 10.0], 1)
    v = point_shadow(cfg.scene, [10.0, 10.0])
    np.testing.assert_allclose(frame.basis[0], v.witness_direction)


def test_plane_found_is_verified_and_orthonormal():
    sc = Scene(3, [Ball([3.0, 0.0, 0.0], 1.0), Ball([-3.0, 0.0, 0.0], 1.0)])
    frame = find_avoiding_plane(sc, [0.0, 0.0, 0.0], 2, seed=0)
    assert frame is not None
    assert frame.m == 2
    np.testing.assert_allclose(frame.basis @ frame.basis.T, np.eye(2), atol=1e-9)
    for b in sc.balls:
        assert frame.distance(b.center) > b.radius + 1e-9


def test_plane_in_dim5():
    sc = Scene(5, [Ball([3.0, 0.0, 0.0, 0.0, 0.0], 1.0)])
    frame = find_avoiding_plane(sc, [0.0] * 5, 3, seed=2)
    assert frame is not None
    assert frame.m == 3
    assert frame.distance(sc.balls[0].center) > 1.0 + 1e-9


def test_plane_search_with_overflowing_offsets_returns_none():
    # |c - x|^2 overflows, so every restart scores NaN and no frame is ever kept
    sc = Scene(3, [Ball([1e200, 0.0, 0.0], 1.0)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert find_avoiding_plane(sc, [0.0, 0.0, 0.0], 2) is None


def test_plane_empty_scene_returns_axes():
    frame = find_avoiding_plane(Scene(4, []), [1.0, 2.0, 3.0, 4.0], 2)
    np.testing.assert_array_equal(frame.basis, np.eye(4)[:2])


def test_plane_frame_validation():
    with pytest.raises(ValueError):
        PlaneFrame([0.0, 0.0, 0.0], np.array([[1.0, 1.0, 0.0]]))
    f = PlaneFrame([0.0, 0.0, 0.0], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert f.distance([5.0, 6.0, 2.0]) == pytest.approx(2.0)


def test_witness_clearance_skips_requested_indices():
    sc = Scene(2, [Ball([2.0, 0.0], 1.0), Ball([0.0, 5.0], 1.0)])
    full = witness_clearance(sc, [0.0, 0.0], [1.0, 0.0])
    assert full == pytest.approx(-1.0)
    assert witness_clearance(sc, [0.0, 0.0], [1.0, 0.0], skip=(0,)) == pytest.approx(4.0)
    assert witness_clearance(sc, [0.0, 0.0], [1.0, 0.0], skip=(0, 1)) == math.inf


# ----------------------------------------------------------------- properties


@st.composite
def exterior_query(draw, dim, k):
    sc = random_equal_balls(dim, k, 1.0, seed=draw(st.integers(0, 10_000)))
    x = np.array([draw(st.floats(-8.0, 8.0, allow_nan=False)) for _ in range(dim)])
    if min(b.clearance(x) for b in sc.balls) < 1e-6:
        x = x * 0.0 + 9.5
    return sc, x


@given(exterior_query(dim=2, k=3))
def test_2d_verdicts_agree_with_sampling(case):
    sc, x = case
    v = point_shadow(sc, x)
    if v.verdict == NOT_SHADOWED:
        certify_not_shadowed(sc, v)
    else:
        shadowed, miss = point_shadow_sampled(sc, x, n=300, seed=0)
        assert shadowed, f"sampled miss {miss}"


@given(exterior_query(dim=3, k=2))
@settings(max_examples=25)
def test_3d_two_balls_never_shadow_and_heuristic_agrees(case):
    sc, x = case
    v = point_shadow(sc, x)
    certify_not_shadowed(sc, v)
    h = heuristic_shadow(sc, x, seed=4)
    assert h.verdict == NOT_SHADOWED
    certify_not_shadowed(sc, h)


CUBE_3 = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)],
                  dtype=float) / math.sqrt(3.0)


@st.composite
def shell_query(draw):
    """Rotated cube-vertex shells (ratio 4) and a point near their centre."""
    seed = draw(st.integers(0, 2**32 - 1))
    sc = concentric_shells(3, CUBE_3, draw(st.floats(0.55, 0.57)), 4.0,
                           draw(st.integers(5, 8)), seed)
    x = np.array([draw(st.floats(-0.1, 0.1, allow_nan=False)) for _ in range(3)])
    return sc, x


@given(st.one_of(shell_query(), exterior_query(dim=3, k=4)))
@settings(max_examples=40)
def test_3d_verdicts_agree_with_band_cap_cover(case):
    sc, x = case
    v = point_shadow(sc, x)
    bands = [ball_band(x, b) for b in sc.balls]
    caps = [Cap(s * b.axis, b.half_angle) for b in bands for s in (1.0, -1.0)]
    cov = cover_sphere(CapSet(caps))
    if cov.verdict == INDETERMINATE:
        return
    assert (v.verdict == SHADOWED) == (cov.verdict == COVERED)
    if v.verdict == NOT_SHADOWED:
        certify_not_shadowed(sc, v)


@given(st.floats(0.0, 2 * math.pi, allow_nan=False), st.integers(0, 10_000))
@settings(max_examples=40)
def test_2d_rotation_equivariance(angle, seed):
    sc = random_equal_balls(2, 3, 1.0, seed=seed)
    rot = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    x = np.array([6.0, 1.0])
    sc_r = Scene(2, [Ball(rot @ b.center, b.radius, b.topology) for b in sc.balls])
    v = point_shadow(sc, x)
    v_r = point_shadow(sc_r, rot @ x)
    assert v.verdict == v_r.verdict
    if v.verdict == NOT_SHADOWED:
        assert v.gap == pytest.approx(v_r.gap, abs=1e-9)
        # the rotated witness direction certifies in the rotated scene
        d = rot @ v.witness_direction
        assert witness_clearance(sc_r, rot @ x, d) > 1e-9
