"""The benchmark workloads: seeded inputs, one pass over them, and checks.

Users wait on two kinds of work, and each is one workload:

- suites: the suites and sweeps that make thousands of decisions.  A
  pass runs three parts in turn: lemma-grid (`verify_lemma`, the only
  2-D path), suites-3d (theorem3, theorem4 and lower-bound, all decided
  by the Fibonacci-grid falsifier or a circle cover) and example2
  (`analyze example2 --csv` through `cli.main`: the tangent sweep, the
  Monte Carlo area estimate, JSON and CSV output).  The boundary
  arrangement and the heuristic searches make no calls here.
- queries: single queries from library callers.  A pass runs dense-3d
  (points near the centre of concentric ball shells, most of them
  shadowed, so the falsifier is wasted and the boundary arrangement and
  CapSet normalisation certify coverage over 112 caps) and highdim
  (dimension 4-6 shadow checks and m=2 plane searches, the only users
  of the heuristic searches).

A workload builds its inputs from the seed once, during set-up, and then
runs identical passes over them.  A Recorder sees every decision,
at the module attribute a suite looks up or in the benchmark's own loop,
and times every query: a decision at one point.  The first pass's recorder keeps each decision's arguments and
result; the checks run on those after the timed region and use only
checks.py, never the library's own reductions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from shadowgeo import analysis, cli, constructions, geometry, shadow

import checks


def verdict_key(result) -> str:
    """A short label for a decision's outcome, used to compare passes."""
    if result is None:
        return "plane_not_found"
    if isinstance(result, shadow.PlaneFrame):
        return "plane_found"
    if isinstance(result, shadow.ShadowVerdict):
        return result.verdict
    return "cover_" + result.verdict


class Recorder:
    """Keeps the verdict of every decision and times every query.

    A query is a decision at one point: a shadow check, a plane search or
    a tangent-shadow verdict.  Inside a suite, decisions are seen through
    `routing`.  Latencies are kept per part, under the name of the part
    that is running, and Mix records each part's wall time.  With keep
    set, each decision's arguments and result are kept for the checks.
    """

    def __init__(self, keep: bool = False) -> None:
        self.part = ""
        self.latencies: dict[str, list[float]] = {}
        self.part_walls: dict[str, float] = {}
        self.verdicts: list[str] = []
        self.records: list[tuple] | None = [] if keep else None

    def decide(self, fn, *args, **kwargs):
        return self._keep(args, kwargs, fn(*args, **kwargs))

    def query(self, fn, *args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.latencies.setdefault(self.part, []).append(perf_counter() - t0)
        return self._keep(args, kwargs, result)

    def _keep(self, args, kwargs, result):
        self.verdicts.append(verdict_key(result))
        if self.records is not None:
            self.records.append((args, kwargs, result))
        return result

    @contextlib.contextmanager
    def routing(self, module, *names, timed: bool = True):
        """Count calls to module.<name> inside the block as decisions, and as queries if timed."""
        saved = {name: getattr(module, name) for name in names}
        for name, fn in saved.items():
            setattr(module, name, partial(self.query if timed else self.decide, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)


def ball_arrays(scene):
    """Centres, radii and open-topology mask of a scene, as numpy arrays."""
    centers = np.stack([b.center for b in scene.balls])
    radii = np.array([b.radius for b in scene.balls])
    open_mask = np.array([b.topology == geometry.OPEN for b in scene.balls])
    return centers, radii, open_mask


def not_shadowed_ok(verdict, x, scene) -> bool:
    """A not-shadowed verdict whose witness line re-checks in closed form."""
    if verdict.verdict != shadow.NOT_SHADOWED or verdict.witness_direction is None:
        return False
    if verdict.margin is None or not verdict.margin > checks.TOL:
        return False
    return checks.witness_misses(x, verdict.witness_direction, *ball_arrays(scene))


class Workload:
    name = ""

    def warm(self) -> None:
        """One small call down the workload's path, so lazy set-up happens in set-up."""

    def run(self, rec: Recorder):
        raise NotImplementedError

    def check(self, rec: Recorder, output) -> tuple[list[bool], list[str]]:
        """Per-decision failure flags for a kept pass, and pass-level problems."""
        raise NotImplementedError


class LemmaGrid(Workload):
    """verify_lemma's hull grid: every decision is a shadowed 2-D arc union."""

    name = "lemma-grid"
    STEP = {"full": 0.01, "tiny": 0.05}  # grid step as a share of the side

    def __init__(self, seed: int, size: str) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.side = float(2.0 ** rng.uniform(-1.0, 1.0))
        # a +-0.5 % step jitter shifts the far grid rows by up to half a step
        self.step = self.side * self.STEP[size] * (1.0 + rng.uniform(-0.005, 0.005))

    def warm(self) -> None:
        cfg = constructions.build_lemma(self.side)
        shadow.point_shadow(cfg.scene, cfg.circumcenter)

    def run(self, rec):
        with rec.routing(analysis, "point_shadow"):
            return analysis.verify_lemma(self.side, self.step)

    def check(self, rec, report):
        dirs = checks.random_directions(1024, 2, self.seed + 1)
        bad = []
        for (scene, x, *_), _, verdict in rec.records:
            centers, radii, _ = ball_arrays(scene)
            _, clear = checks.best_direction(x, centers, radii, dirs)
            bad.append(verdict.verdict != shadow.SHADOWED or clear > checks.TOL)
        problems = []
        if report.status != "pass" or report.failures or report.passes != report.trials:
            problems.append(f"lemma report {report.status} with {len(report.failures)} failures")
        if report.details["grid_points"] != len(rec.records):
            problems.append("lemma grid size differs from the decisions made")
        return bad, problems


class Suites3D(Workload):
    """theorem3, theorem4 and lower-bound(2, 3): every verdict is not shadowed."""

    name = "suites-3d"
    TRIALS = {"full": 100, "tiny": 3}

    def __init__(self, seed: int, size: str) -> None:
        self.trials = self.TRIALS[size]
        self.seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, 3)]

    def warm(self) -> None:
        analysis.check_theorem4(1, self.seeds[1])

    def run(self, rec):
        n, (s3, s4, slb) = self.trials, self.seeds
        with rec.routing(analysis, "point_shadow"):
            return [analysis.check_theorem3(n, s3), analysis.check_theorem4(n, s4),
                    analysis.check_lower_bound(2, 3, n, slb)]

    def check(self, rec, reports):
        bad = [not not_shadowed_ok(v, x, scene) for (scene, x, *_), _, v in rec.records]
        problems = [f"{r.name}: {r.status}, {len(r.failures)} failures, "
                    f"{r.indeterminates} indeterminate"
                    for r in reports
                    if r.status != "pass" or r.failures or r.passes != r.trials]
        return bad, problems


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class Dense3D(Workload):
    """point_shadow near the common centre of concentric shells of balls.

    Shell j holds 8 closed balls at the randomly rotated cube vertices,
    distance 4^j from the centre and radius 0.57 * 4^j; query points lie
    within 0.1 of the centre.  With 7 shells (112 caps) about 7 in 8
    points are shadowed, so the falsifier's work is mostly wasted and the
    boundary arrangement certifies coverage.
    """

    name = "dense-3d"
    SHELLS, RATIO, RHO, NEAR = 7, 4.0, 0.57, 0.1
    # scenes, points per scene; the shadowed share varies most between scenes
    SIZES = {"full": (16, 2), "tiny": (1, 2)}
    CUBE = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)],
                    dtype=float) / math.sqrt(3.0)

    def __init__(self, seed: int, size: str) -> None:
        n_scenes, n_points = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.queries: list[tuple] = []
        for _ in range(n_scenes):
            centers, radii = self._shells(rng)
            scene = geometry.Scene(3, [geometry.Ball(c, r) for c, r in zip(centers, radii)])
            for _ in range(n_points):
                x = rng.standard_normal(3)
                x *= self.NEAR * rng.random() ** (1.0 / 3.0) / np.linalg.norm(x)
                self.queries.append((scene, x))

    def _shells(self, rng):
        centers, radii = [], []
        for j in range(self.SHELLS):
            dist = self.RATIO ** j
            centers.append(dist * self.CUBE @ random_rotation(rng).T)
            radii.append(np.full(8, self.RHO * dist))
        centers, radii = np.concatenate(centers), np.concatenate(radii)
        gap = np.linalg.norm(centers[:, None] - centers[None], axis=2) \
            - radii[:, None] - radii[None, :]
        np.fill_diagonal(gap, np.inf)
        if gap.min() <= 0.0:
            raise RuntimeError("generated shells overlap")
        return centers, radii

    def warm(self) -> None:
        shadow.point_shadow(*self.queries[0])

    def run(self, rec):
        for scene, x in self.queries:
            rec.query(shadow.point_shadow, scene, x)

    def check(self, rec, _output):
        dirs = checks.random_directions(20000, 3, self.seed + 1)
        bad = []
        for (scene, x), (_, _, verdict) in zip(self.queries, rec.records):
            if verdict.verdict == shadow.SHADOWED:
                centers, radii, _ = ball_arrays(scene)
                _, clear = checks.best_direction(x, centers, radii, dirs)
                bad.append(clear > checks.TOL)
            else:
                bad.append(not not_shadowed_ok(verdict, x, scene))
        problems = [] if len(rec.records) == len(self.queries) else ["query count differs"]
        return bad, problems


class Example2(Workload):
    """`shadowgeo analyze example2 --csv` at its defaults, in-process through cli.main."""

    name = "example2"
    ARGS = {"full": [], "tiny": ["--tangent-grid", "400", "--area-samples", "20000",
                                 "--falsifier-grid", "4000"]}
    AREA_SAMPLES = {"full": 1_000_000, "tiny": 20_000}

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.area_samples = self.AREA_SAMPLES[size]
        self.csv = workdir / "example2.csv"
        self.argv = ["analyze", "example2", *self.ARGS[size], "--seed", str(seed),
                     "--csv", str(self.csv)]

    def warm(self) -> None:
        analysis.analyze_example2(tangent_grid=100, area_samples=100, falsifier_grid=100)

    def run(self, rec):
        out = io.StringIO()
        # the two sphere-coverage decisions are checked but are not point queries
        with rec.routing(analysis, "tangent_shadow"), \
                rec.routing(analysis, "cover_sphere", timed=False), \
                contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, rec, output):
        code, text = output
        centers, radii, open_mask = ball_arrays(constructions.build_cube14().scene)
        bad = []
        theta = (np.arange(256) + 0.5) * (math.pi / 256)
        for args, _, verdict in rec.records:
            if isinstance(verdict, shadow.ShadowVerdict):
                p = np.asarray(args[1], dtype=float)
                if verdict.verdict == shadow.SHADOWED:
                    e1 = np.cross(p, [1.0, 0.0, 0.0] if abs(p[0]) < 0.9 else [0.0, 1.0, 0.0])
                    e1 /= np.linalg.norm(e1)
                    dirs = np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), np.cross(p, e1))
                    bad.append(checks.best_direction(p, centers, radii, dirs)[1] > checks.TOL)
                else:
                    d = verdict.witness_direction
                    bad.append(verdict.verdict != shadow.NOT_SHADOWED or d is None
                               or abs(float(d @ p)) > 1e-9
                               or not checks.witness_misses(p, d, centers, radii, open_mask))
            else:
                bad.append(not self._coverage_ok(verdict, centers, radii))
        return bad, self._report_problems(code, text, rec, centers, radii)

    def _coverage_ok(self, cov, centers, radii) -> bool:
        if cov.verdict == "uncovered":
            w = np.asarray(cov.witness, dtype=float)
            return abs(np.linalg.norm(w) - 1.0) <= 1e-9 and \
                float(checks.sphere_cap_margins(w[None, :], centers, radii)[0]) > checks.TOL
        if cov.verdict != "covered":
            return False
        pts = checks.random_directions(200_000, 3, self.seed + 3)
        return float(checks.sphere_cap_margins(pts, centers, radii).max()) <= checks.TOL

    def _report_problems(self, code, text, rec, centers, radii) -> list[str]:
        """The invariants acceptance criterion 5 states, plus the CSV's agreement."""
        if code != 0:
            return [f"exit code {code}"]
        d = json.loads(text)
        problems = []
        cov = d["sphere_coverage"]
        if d["area_samples"] != self.area_samples or d["tangent_failures"] < 1:
            problems.append("area sample count or tangent failure count off")
        if cov["verdict"] not in ("covered", "uncovered") \
                or d["doubled_grid_verdict"] != cov["verdict"]:
            problems.append("coverage verdict unstable under the doubled grid")
        if (cov["verdict"] == "uncovered") != (d["uncovered_sample_count"] > 0):
            problems.append("area estimate disagrees with the coverage verdict")
        for fp in d["failure_points"]:
            p = np.array(fp["point"])
            if np.any(np.linalg.norm(centers - p, axis=1) < radii - 1e-12) or not fp["gap"] > 0:
                problems.append(f"bad failure point {fp['point']}")
        with open(self.csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        tangent = [v for v in rec.verdicts if not v.startswith("cover_")]
        if len(rows) != d["tangent_points_outside"] or [r[3] for r in rows] != tangent \
                or sum(r[3] == shadow.NOT_SHADOWED for r in rows) != d["tangent_failures"]:
            problems.append("CSV rows disagree with the decisions and the report")
        return problems


def shadow_check(scene, x, tol: float = checks.TOL):
    """What `shadowgeo shadow check` runs: the exact test, else the heuristic."""
    try:
        return shadow.point_shadow(scene, x, tol)
    except geometry.DimensionUnsupported:
        return shadow.heuristic_shadow(scene, x, restarts=64, seed=0, tol=tol)


class HighDim(Workload):
    """Dimension 4-6 shadow checks (k = dim - 1) and m=2 plane searches (k = dim - 2).

    Fewer balls than the dimension never shadow a point, so every check
    must come back not shadowed.  With k <= dim - 2 the 2-plane through x
    orthogonal to every c_i - x misses all balls, so every search must
    find a plane.
    """

    name = "highdim"
    # dimensions, shadow checks and plane searches per dimension
    SIZES = {"full": ((4, 5, 6), 4, 2), "tiny": ((4,), 1, 1)}

    def __init__(self, seed: int, size: str) -> None:
        dims, n_check, n_plane = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.queries: list[tuple] = []   # (m or None, scene, point)
        for dim in dims:
            for m, k, count in ((None, dim - 1, n_check), (2, dim - 2, n_plane)):
                for _ in range(count):
                    s = int(rng.integers(0, 2**31))
                    scene = constructions.random_disjoint_balls(dim, k, s)
                    self.queries.append((m, scene, constructions.random_exterior_point(scene, s + 1)))

    def warm(self) -> None:
        _, scene, x = self.queries[0]
        shadow.heuristic_shadow(scene, x, restarts=1)

    def run(self, rec):
        for m, scene, x in self.queries:
            if m is None:
                rec.query(shadow_check, scene, x)
            else:
                rec.query(shadow.find_avoiding_plane, scene, x, m, restarts=64, seed=0)

    def check(self, rec, _output):
        bad = []
        for (m, scene, x), (_, _, result) in zip(self.queries, rec.records):
            if m is None:
                bad.append(not not_shadowed_ok(result, x, scene))
            else:
                centers, radii, _ = ball_arrays(scene)
                bad.append(not isinstance(result, shadow.PlaneFrame) or result.m != m
                           or not np.allclose(result.point, x)
                           or not checks.frame_avoids(x, result.basis, centers, radii))
        problems = [] if len(rec.records) == len(self.queries) else ["query count differs"]
        return bad, problems


PARTS = {p.name: p for p in (LemmaGrid, Suites3D, Dense3D, Example2, HighDim)}


def build_part(name: str, seed: int, size: str, workdir: Path) -> Workload:
    if name == Example2.name:
        return Example2(seed, size, workdir)
    return PARTS[name](seed, size)


class Mix(Workload):
    """Parts run one after another in each pass, each with a seed derived from the workload's."""

    def __init__(self, names, seed: int, size: str, workdir: Path) -> None:
        seeds = np.random.SeedSequence(seed).generate_state(len(names))
        self.parts = [build_part(n, int(s), size, workdir) for n, s in zip(names, seeds)]

    def warm(self) -> None:
        for part in self.parts:
            part.warm()

    def run(self, rec):
        """Each part's output, with the span of decisions it made."""
        spans = []
        for part in self.parts:
            start = len(rec.verdicts)
            rec.part = part.name
            t0 = perf_counter()
            output = part.run(rec)
            rec.part_walls[part.name] = perf_counter() - t0
            spans.append((start, len(rec.verdicts), output))
        return spans

    def check(self, rec, spans):
        bad, problems = [], []
        for part, (start, end, output) in zip(self.parts, spans):
            sub = Recorder(keep=True)
            sub.records, sub.verdicts = rec.records[start:end], rec.verdicts[start:end]
            part_bad, part_problems = part.check(sub, output)
            bad += part_bad
            problems += [f"{part.name}: {p}" for p in part_problems]
        return bad, problems


WORKLOADS = {"suites": ("lemma-grid", "suites-3d", "example2"),
             "queries": ("dense-3d", "highdim")}


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    return Mix(WORKLOADS[name], seed, size, workdir)
