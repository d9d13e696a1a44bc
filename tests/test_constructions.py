import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shadowgeo.constructions import (
    boundary_sample,
    build_cube14,
    build_lemma,
    random_disjoint_balls,
    random_equal_balls,
    random_exterior_point,
)
from shadowgeo.geometry import CLOSED, OPEN, GenerationFailed


def test_lemma_geometry():
    cfg = build_lemma(1.0)
    assert cfg.disc_radius == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
    assert cfg.circumradius == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    np.testing.assert_allclose(cfg.circumcenter, [0.5, math.sqrt(3.0) / 6.0], atol=1e-15)
    # circumcenter is equidistant from all vertices
    dists = [np.linalg.norm(cfg.circumcenter - v) for v in cfg.vertices]
    np.testing.assert_allclose(dists, cfg.circumradius, atol=1e-12)
    assert cfg.scene.disjointness_violations(1e-12) == []
    assert all(b.topology == CLOSED for b in cfg.scene.balls)
    # side lengths really are 1
    v = cfg.vertices
    for i in range(3):
        assert np.linalg.norm(v[i] - v[(i + 1) % 3]) == pytest.approx(1.0, abs=1e-15)


def test_lemma_scales_with_side():
    cfg = build_lemma(2.5)
    assert cfg.disc_radius == pytest.approx(2.5 * math.sqrt(3.0) / 4.0)
    assert cfg.scene.label == "lemma-triangle-side-2.5"
    with pytest.raises(ValueError):
        build_lemma(0.0)
    with pytest.raises(ValueError):
        build_lemma(-1.0)


def test_cube14_frozen_constants():
    cfg = build_cube14()
    assert cfg.vertex_radius == pytest.approx(0.5773502691896258, abs=1e-15)
    assert cfg.face_radius == pytest.approx(0.34205141757234014, abs=1e-15)
    assert cfg.tangent_vertex_pairs == 12
    assert cfg.tangent_face_pairs == 24
    assert len(cfg.scene.balls) == 14
    assert cfg.scene.label == "cube14"
    # every center sits on the unit sphere
    for b in cfg.scene.balls:
        assert np.linalg.norm(b.center) == pytest.approx(1.0, abs=1e-12)


def test_cube14_tangency_structure():
    cfg = build_cube14()
    balls = cfg.scene.balls
    tangent, overlapping = 0, 0
    for i in range(14):
        for j in range(i + 1, 14):
            gap = np.linalg.norm(balls[i].center - balls[j].center) - (
                balls[i].radius + balls[j].radius
            )
            if abs(gap) <= 1e-12:
                tangent += 1
            elif gap < 0:
                overlapping += 1
    assert tangent == 36
    assert overlapping == 0


def test_cube14_topology_flag():
    assert all(b.topology == OPEN for b in build_cube14().scene.balls)
    assert all(b.topology == CLOSED for b in build_cube14(CLOSED).scene.balls)


@given(st.integers(0, 2**32 - 1))
def test_random_equal_balls_are_disjoint_and_reproducible(seed):
    sc = random_equal_balls(3, 4, 0.8, seed)
    assert sc.disjointness_violations() == []
    assert all(b.radius == 0.8 for b in sc.balls)
    again = random_equal_balls(3, 4, 0.8, seed)
    for a, b in zip(sc.balls, again.balls):
        np.testing.assert_array_equal(a.center, b.center)


def test_random_equal_balls_validation_and_failure():
    with pytest.raises(ValueError):
        random_equal_balls(0, 3, 1.0, seed=0)
    for radius in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            random_equal_balls(2, 3, radius, seed=0)
    with pytest.raises(GenerationFailed):
        random_equal_balls(2, 500, 1.0, seed=0, box=2.0)


def test_random_disjoint_balls_radius_range():
    sc = random_disjoint_balls(2, 6, seed=3, radius_range=(0.3, 0.9))
    assert sc.disjointness_violations() == []
    for b in sc.balls:
        assert 0.3 <= b.radius <= 0.9
    for bad in ((1.0, 0.5), (0.5, math.inf), (0.5, math.nan)):
        with pytest.raises(ValueError):
            random_disjoint_balls(2, 3, seed=0, radius_range=bad)


def test_boundary_sample_lies_on_sphere_and_outside_others():
    sc = random_equal_balls(3, 3, 1.0, seed=7, topology=OPEN)
    pts = boundary_sample(sc, 1, 50, seed=9)
    assert pts
    b = sc.balls[1]
    for p in pts:
        assert np.linalg.norm(p - b.center) == pytest.approx(b.radius, abs=1e-12)
        for j, other in enumerate(sc.balls):
            if j != 1:
                assert np.linalg.norm(p - other.center) > other.radius
    with pytest.raises(IndexError):
        boundary_sample(sc, 5, 10, seed=0)


def test_boundary_sample_filters_tangency_points():
    cfg = build_cube14()
    pts = boundary_sample(cfg.scene, 0, 200, seed=1)
    # tangency contact points with the 6 neighbours are excluded
    assert 0 < len(pts) <= 200
    for p in pts:
        for j, other in enumerate(cfg.scene.balls):
            if j != 0:
                assert np.linalg.norm(p - other.center) > other.radius


def test_random_exterior_point_standoff():
    sc = random_equal_balls(3, 5, 1.0, seed=2)
    for seed in range(5):
        x = random_exterior_point(sc, seed=seed)
        assert sc.clearances(x).min() >= 0.05
    empty = random_exterior_point(type(sc)(3, []), seed=0)
    assert empty.shape == (3,)


def test_random_exterior_point_can_fail():
    # a ball swallowing the whole sampling box leaves nowhere to stand
    sc = random_equal_balls(2, 1, 0.5, seed=0)
    huge = type(sc)(2, [type(sc.balls[0])([0.0, 0.0], 50.0)])
    with pytest.raises(GenerationFailed):
        random_exterior_point(huge, seed=0)
