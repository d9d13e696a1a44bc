import csv
import json
import math

import numpy as np
import pytest

from shadowgeo.analysis import (
    FAIL,
    INDETERMINATE_ONLY,
    PASS,
    PropertyReport,
    analyze_example2,
    check_lower_bound,
    check_theorem3,
    check_theorem4,
    slice_connectivity,
    verify_lemma,
    _point_triangle_distances,
)
from shadowgeo.geometry import BadDimension, Ball, Scene
from shadowgeo.shadow import PlaneFrame

from oracles import sphere_point_margins

XY = PlaneFrame([0.0, 0.0, 0.0], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_property_report_status():
    r = PropertyReport(name="x", trials=3, passes=3)
    assert r.status == PASS
    r = PropertyReport(name="x", trials=3, passes=2, indeterminates=1)
    assert r.status == INDETERMINATE_ONLY
    r = PropertyReport(name="x", trials=3, passes=2, failures=[{"trial": 0}])
    assert r.status == FAIL
    d = r.to_dict()
    assert d["status"] == FAIL and d["trials"] == 3


@pytest.mark.parametrize(
    "check", [check_theorem3, check_theorem4], ids=["boundary", "exterior"]
)
def test_theorem_checks_pass_on_small_runs(check):
    report = check(trials=8, seed=42)
    assert report.status == PASS
    assert report.passes == report.trials == 8
    assert report.passes + len(report.failures) + report.indeterminates == report.trials


def test_theorem3_counts_boundary_points():
    report = check_theorem3(trials=3, seed=1)
    assert report.details["boundary_points_tested"] > 0


def test_theorem_checks_are_deterministic():
    a = check_theorem4(trials=5, seed=9).to_dict()
    b = check_theorem4(trials=5, seed=9).to_dict()
    assert json.dumps(a) == json.dumps(b)


def test_lower_bound_validation_and_small_runs():
    with pytest.raises(BadDimension):
        check_lower_bound(k=3, dim=3, trials=1)
    r = check_lower_bound(k=2, dim=3, trials=6, seed=2)
    assert r.status == PASS
    # the exact decision covers dimension 4 as well
    r4 = check_lower_bound(k=2, dim=4, trials=4, seed=3)
    assert r4.status == PASS
    assert r4.passes == 4


def test_point_triangle_distances():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    pts = np.array([[0.5, 0.2], [2.0, 0.0], [0.5, -1.0], [-1.0, 0.0]])
    d = _point_triangle_distances(pts, tri)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(1.0)
    assert d[2] == pytest.approx(1.0)
    assert d[3] == pytest.approx(1.0)


def test_verify_lemma_coarse_grid_passes():
    report = verify_lemma(side=1.0, grid_step=0.05)
    assert report.status == PASS
    assert report.trials == report.details["grid_points"] + 360
    assert report.details["circumcircle_failures"] == 0
    assert report.details["grid_failures"] == 0
    with pytest.raises(ValueError):
        verify_lemma(grid_step=0.0)


def test_verify_lemma_scales():
    report = verify_lemma(side=0.5, grid_step=0.05)
    assert report.status == PASS


def test_slice_connectivity_cases():
    assert slice_connectivity(Scene(3, []), XY, 2.0, 128) == 1
    lone = Scene(3, [Ball([0.0, 0.0, 0.0], 0.5)])
    assert slice_connectivity(lone, XY, 2.0, 128) == 1
    # a wall across the window: both sides touch the edge, so they merge
    wall = Scene(3, [Ball([0.0, y, 0.0], 0.5) for y in np.arange(-2.0, 2.01, 0.5)])
    assert slice_connectivity(wall, XY, 2.0, 128) == 1
    # a ring traps a pocket that no longer reaches the edge
    ring = Scene(
        3,
        [
            Ball([1.5 * math.cos(a), 1.5 * math.sin(a), 0.0], 0.8)
            for a in np.arange(8) * (2 * math.pi / 8)
        ],
    )
    assert slice_connectivity(ring, XY, 3.0, 256) == 2
    # plane far from every ball, and window swallowed by one ball
    assert slice_connectivity(Scene(3, [Ball([0, 0, 5.0], 1.0)]), XY, 2.0, 64) == 1
    assert slice_connectivity(Scene(3, [Ball([0, 0, 0.0], 10.0)]), XY, 2.0, 64) == 0


def test_slice_connectivity_validation():
    sc = Scene(3, [Ball([0.0, 0.0, 0.0], 0.5)])
    with pytest.raises(ValueError):
        slice_connectivity(sc, XY, 2.0, 16)
    with pytest.raises(ValueError):
        slice_connectivity(sc, XY, -1.0, 64)
    line = PlaneFrame([0.0, 0.0, 0.0], np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(BadDimension):
        slice_connectivity(sc, line, 2.0, 64)


@pytest.fixture(scope="module")
def small_example2():
    return analyze_example2(tangent_grid=2000, area_samples=50_000, seed=0)


def test_example2_tangency_census(small_example2):
    t = small_example2.tangency
    assert t["pairs"] == {"tangent": 36, "disjoint": 55, "overlapping": 0}
    assert t["vertex_vertex_tangent"] == 12
    assert t["vertex_face_tangent"] == 24
    assert t["vertex_radius"] == pytest.approx(1 / math.sqrt(3), abs=1e-15)


def test_example2_sphere_is_not_covered(small_example2):
    cov = small_example2.sphere_coverage
    assert cov.verdict == "uncovered"
    assert small_example2.doubled_grid_verdict == "uncovered"
    assert cov.margin > 1e-9
    # independent check of the witness against the raw cap data
    from shadowgeo.constructions import build_cube14
    from shadowgeo.geometry import ball_sphere_cap

    caps = [ball_sphere_cap(b) for b in build_cube14().scene.balls]
    data = [(c.axis, c.angular_radius) for c in caps if not c.is_empty]
    assert sphere_point_margins([cov.witness], data)[0] > 1e-9
    assert small_example2.uncovered_area > 0.0
    assert small_example2.uncovered_sample_count > 0


def test_example2_has_tangent_failures(small_example2):
    assert small_example2.failure_points
    assert len(small_example2.tangent_entries) >= len(small_example2.failure_points)
    for e in small_example2.failure_points:
        assert e["verdict"] == "not_shadowed"
        assert e["gap"] > 0


def test_example2_csv_round_trip(tmp_path, small_example2):
    path = tmp_path / "sweep.csv"
    small_example2.write_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["px", "py", "pz", "verdict", "gap"]
    assert len(rows) - 1 == len(small_example2.tangent_entries)
    for row, entry in zip(rows[1:], small_example2.tangent_entries):
        assert [float(row[0]), float(row[1]), float(row[2])] == entry["point"]
        assert row[3] == entry["verdict"]
        if entry["gap"] is not None:
            assert float(row[4]) == entry["gap"]


def test_example2_rejects_tiny_grid():
    with pytest.raises(ValueError):
        analyze_example2(tangent_grid=10)


def test_example2_is_deterministic():
    a = analyze_example2(tangent_grid=500, area_samples=10_000, seed=4).to_dict()
    b = analyze_example2(tangent_grid=500, area_samples=10_000, seed=4).to_dict()
    assert json.dumps(a) == json.dumps(b)
