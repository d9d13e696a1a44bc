"""Release acceptance checks, one test per shipping criterion.

Each test prints one ACCEPTANCE line (visible under `pytest -s` or in
the captured output) and enforces its wall-clock budget where one is
part of the criterion.  Plain `pytest -v` gives the same pass/fail
split by test name.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from shadowgeo import (
    Arc,
    ArcSet,
    Cap,
    CapSet,
    NOT_SHADOWED,
    OPEN,
    build_cube14,
    cover_circle,
    cover_sphere,
    falsify,
    point_shadow,
    random_equal_balls,
)
from shadowgeo.analysis import (
    analyze_example2,
    check_lower_bound,
    check_theorem3,
    check_theorem4,
)
from shadowgeo.cli import dispatch
from shadowgeo.constructions import boundary_sample, random_exterior_point
from shadowgeo.spherecover import INDETERMINATE, UNCOVERED, boundary_arrangement

from oracles import circle_point_margins, line_ball_min_distance, sphere_point_margins

TOL = 1e-9


def _stamp(n: int, label: str, t0: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - t0
    suffix = "" if budget is None else f" (budget {budget:g}s)"
    print(f"\nACCEPTANCE {n} {label}: PASS in {elapsed:.1f}s{suffix}")
    if budget is not None:
        assert elapsed < budget


def test_acceptance_1_cube14_constants_and_tangencies():
    """The 14-ball constants and the 12+24 tangency census hold to 1e-12."""
    t0 = time.perf_counter()
    cfg = build_cube14()
    r = 1.0 / math.sqrt(3.0)
    r1 = math.sqrt(2.0 - 2.0 / math.sqrt(3.0)) - 1.0 / math.sqrt(3.0)
    assert abs(cfg.vertex_radius - r) <= 1e-12
    assert abs(cfg.face_radius - r1) <= 1e-12
    assert cfg.tangent_vertex_pairs == 12
    assert cfg.tangent_face_pairs == 24

    # recount from raw coordinates, classifying pairs by which radius they carry
    balls = cfg.scene.balls
    vertex_vertex = vertex_face = face_face = 0
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            a, b = balls[i], balls[j]
            gap = float(np.linalg.norm(a.center - b.center)) - (a.radius + b.radius)
            assert gap >= -1e-12
            if abs(gap) <= 1e-12:
                a_vert = abs(a.radius - r) <= 1e-12
                b_vert = abs(b.radius - r) <= 1e-12
                if a_vert and b_vert:
                    vertex_vertex += 1
                elif a_vert or b_vert:
                    vertex_face += 1
                else:
                    face_face += 1
    assert (vertex_vertex, vertex_face, face_face) == (12, 24, 0)
    _stamp(1, "cube14 constants and tangencies at 1e-12", t0, 1.0)


def test_acceptance_2_lemma_hull_grid():
    """verify lemma --side 1 --grid-step 0.01 passes with zero failures."""
    t0 = time.perf_counter()
    rr = dispatch(["verify", "lemma", "--side", "1", "--grid-step", "0.01"])
    assert rr.exit_code == 0
    rep = rr.payload
    assert rep["status"] == "ok"
    assert rep["failures"] == []
    assert rep["indeterminates"] == 0
    assert rep["details"]["grid_failures"] == 0
    assert rep["details"]["circumcircle_failures"] == 0
    assert rep["passes"] == rep["trials"] > 5000
    _stamp(2, "lemma hull grid at step 0.01", t0, 30.0)


def test_acceptance_3_theorem_suites_500_trials():
    """500 seeded trials per suite, zero failures, witnesses re-verified."""
    t0 = time.perf_counter()
    reports = [
        check_theorem3(500, seed=101),
        check_theorem4(500, seed=202),
        check_lower_bound(2, 3, 500, seed=303),
    ]
    for rep in reports:
        assert rep.status == "pass", rep.name
        assert rep.failures == []
        assert rep.indeterminates == 0
        assert rep.passes == rep.trials == 500

    # independent re-verification of fresh trials with the scalar-search oracle
    rng = np.random.default_rng(404)
    for s in rng.integers(0, 2**31, size=20):
        scene = random_equal_balls(3, 3, 1.0, int(s))
        x = random_exterior_point(scene, seed=int(s) + 1)
        v = point_shadow(scene, x)
        assert v.verdict == NOT_SHADOWED
        assert v.margin is not None and v.margin > TOL
        worst = min(
            line_ball_min_distance(x, v.witness_direction, b.center, b.radius)
            for b in scene.balls
        )
        assert worst > TOL - 1e-12

    # boundary points only escape their own ball under open semantics
    scene = random_equal_balls(3, 3, 1.0, 77, topology=OPEN)
    for i in range(3):
        for x in boundary_sample(scene, i, 7, seed=50 + i):
            v = point_shadow(scene, x)
            assert v.verdict == NOT_SHADOWED
            assert v.boundary_index == i
            assert v.margin is not None and v.margin > TOL
            worst = min(
                line_ball_min_distance(x, v.witness_direction, b.center, b.radius)
                for j, b in enumerate(scene.balls)
                if j != i
            )
            assert worst > TOL - 1e-12
    _stamp(3, "three 500-trial suites with certified witnesses", t0, 120.0)


def test_acceptance_4_cover_oracle_equivalence():
    """cover_circle vs dense sampling, falsifier vs arrangement, 1000 sets each."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)

    n_pts = 100_000
    ts = (np.arange(n_pts) + 0.5) * (math.pi / n_pts)
    spacing = math.pi / n_pts
    covered_seen = uncovered_seen = 0
    for _ in range(1000):
        arcs = []
        for _ in range(int(rng.integers(0, 9))):
            center = float(rng.uniform(0.0, math.pi))
            wide = rng.random() < 0.8
            half = float(rng.uniform(0.01, 0.9)) if wide else float(rng.uniform(1e-6, 0.01))
            arcs.append(Arc(center, half))
        cov = cover_circle(ArcSet(math.pi, arcs), tol=TOL)
        if not arcs:
            assert not cov.covered
            assert cov.largest_gap == pytest.approx(math.pi)
            continue
        data = [(a.center, a.half_width) for a in arcs]
        worst = float(circle_point_margins(ts, data, math.pi).max())
        if cov.covered:
            covered_seen += 1
            # sampling may land inside a fused hairline gap, never deeper than tol
            assert worst <= TOL + 1e-12
        else:
            uncovered_seen += 1
            half_gap = cov.largest_gap / 2.0
            assert worst <= half_gap + 1e-12
            assert worst >= half_gap - spacing - 1e-12
            at_witness = float(circle_point_margins(np.array([cov.witness]), data, math.pi)[0])
            assert at_witness >= half_gap - 1e-12
    assert covered_seen > 10
    assert uncovered_seen > 10

    sample = rng.normal(size=(2000, 3))
    sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    contradictions = 0
    indeterminate = 0
    for _ in range(1000):
        caps = []
        for _ in range(int(rng.integers(1, 7))):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            beta = float(rng.uniform(0.2, 2.4))
            topology = "closed" if rng.random() < 0.85 else "open"
            caps.append(Cap(axis, beta, topology))
        cs = CapSet(caps)
        cov = cover_sphere(cs, tol=TOL)
        if cov.verdict == INDETERMINATE:
            indeterminate += 1
            continue
        _, mu = falsify(cs)
        gaps = boundary_arrangement(cs, tol=TOL)
        if mu > TOL and all(len(g) == 0 for g in gaps):
            contradictions += 1
        data = [(c.axis, c.angular_radius) for c in cs.caps]
        if cov.verdict == UNCOVERED:
            assert float(sphere_point_margins(cov.witness[None, :], data)[0]) > TOL
        else:
            assert float(sphere_point_margins(sample, data).max()) <= TOL + 1e-12
    assert contradictions == 0
    assert indeterminate < 10
    _stamp(4, "cover oracles agree on 1000 random sets each", t0, None)


def test_acceptance_5_cube14_report():
    """analyze example2: tangent failures exist, coverage verdict certified and stable."""
    t0 = time.perf_counter()
    rep = analyze_example2()
    d = rep.to_dict()
    assert d["area_samples"] == 1_000_000
    assert d["tangent_failures"] >= 1

    balls = build_cube14().scene.balls
    for fp in d["failure_points"]:
        p = np.array(fp["point"])
        assert all(
            np.linalg.norm(p - b.center) >= b.radius - 1e-12 for b in balls
        )
        assert fp["gap"] > 0

    cov = d["sphere_coverage"]
    assert cov["verdict"] in ("covered", "uncovered")
    assert d["doubled_grid_verdict"] == cov["verdict"]

    # caps recomputed from raw ball geometry, margins via the sampling oracle
    data = []
    for b in balls:
        dist = float(np.linalg.norm(b.center))
        cos_beta = (dist * dist + 1.0 - b.radius**2) / (2.0 * dist)
        data.append((np.asarray(b.center) / dist, math.acos(cos_beta)))
    if cov["verdict"] == "uncovered":
        w = np.array(cov["witness"])
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
        assert float(sphere_point_margins(w[None, :], data)[0]) > TOL
        assert d["uncovered_sample_count"] > 0
    else:
        assert d["uncovered_sample_count"] == 0

    rng = np.random.default_rng(9)
    pts = rng.normal(size=(1_000_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    worst = -np.inf
    for chunk in np.array_split(pts, 10):
        worst = max(worst, float(sphere_point_margins(chunk, data).max()))
    if cov["verdict"] == "uncovered":
        assert worst > TOL
    else:
        assert worst <= TOL
    _stamp(5, "cube14 report certified and stable", t0, 120.0)


def test_acceptance_6_seeded_reruns_byte_identical():
    """Re-running seeded commands reproduces stdout byte for byte."""
    t0 = time.perf_counter()
    commands = [
        ["scene", "gen", "random", "--dim", "3", "--k", "6", "--radius", "0.5", "--seed", "11"],
        ["verify", "theorem3", "--trials", "10", "--seed", "5"],
        ["verify", "theorem4", "--trials", "25", "--seed", "5"],
        ["verify", "lower-bound", "--k", "2", "--dim", "3", "--trials", "25", "--seed", "9"],
        [
            "analyze", "example2", "--tangent-grid", "2000",
            "--area-samples", "50000", "--falsifier-grid", "4000", "--seed", "0",
        ],
    ]
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "shadowgeo", *args],
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout
    _stamp(6, "seeded commands rerun byte-identical", t0, None)
