"""Command-line front end.

Exit codes: 0 query answered / property holds, 1 property falsified,
2 indeterminate (including plane searches for m >= 2 that found nothing),
3 input error.  Results go to stdout as JSON; warnings and diagnostics go
to stderr.  ``--scene -`` reads the scene document from stdin, and
``scene gen`` writes a bare scene document so commands pipe together.

Each leaf subparser binds its handler as ``run``; ``dispatch`` calls it and
``main`` maps every input error to exit code 3 in one place.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (
    FAIL,
    INDETERMINATE_ONLY,
    analyze_example2,
    check_lower_bound,
    check_theorem3,
    check_theorem4,
    slice_connectivity,
    verify_lemma,
)
from .constructions import build_cube14, build_lemma, random_equal_balls
from .geometry import GeometryError, orthonormal_basis, unit
from .sceneio import SceneFormatError, load_scene_file, scene_to_dict
from .shadow import INDETERMINATE, PlaneFrame, find_avoiding_plane, point_shadow, tangent_shadow
from .spherecover import INDETERMINATE as COVER_INDETERMINATE


class CliError(Exception):
    """Bad invocation or malformed input; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass
class RunResult:
    exit_code: int
    payload: dict


_STATUS = {0: "ok", 1: "falsified", 2: "indeterminate", 3: "error"}


def _parse_point(text: str, what: str = "point") -> list[float]:
    try:
        coords = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliError(f"could not parse --{what} {text!r}: expected comma-separated numbers") from exc
    if not coords or not all(math.isfinite(c) for c in coords):
        raise CliError(f"--{what} must be finite comma-separated numbers")
    return coords


def _checked(parse, noun: str, ok, rule: str):
    """An argparse type: ``parse`` the text as a ``noun`` and require ``ok`` of it."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"could not parse {text!r} as {noun}") from exc
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return convert


_tolerance = _checked(float, "a number", lambda t: math.isfinite(t) and t >= 0.0,
                      "finite and >= 0")
_count = _checked(int, "an integer", lambda n: n >= 1, "a positive integer")
_seed = _checked(int, "an integer", lambda n: n >= 0, "a non-negative integer")


def _attach_coordinates(argv: list[str]) -> list[str]:
    """Join each coordinate option to its value, since argparse reads ``-1,0.4`` as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--point", "--plane-point", "--plane-normal"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _load_scene(path: str):
    try:
        scene = load_scene_file(path)
    except FileNotFoundError as exc:
        raise CliError(f"scene file not found: {path}") from exc
    except OSError as exc:
        raise CliError(f"could not read scene file {path}: {exc}") from exc
    bad = scene.disjointness_violations()
    if bad:
        pairs = ", ".join(f"({i},{j})" for i, j in bad)
        print(f"warning: scene has overlapping ball pairs {pairs}", file=sys.stderr)
    return scene


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shadowgeo",
                     description="Shadow and coverage decisions for families of disjoint balls")
    sub = parser.add_subparsers(dest="command", required=True)

    shadow = sub.add_parser("shadow", help="shadow decisions at a point")
    shadow_sub = shadow.add_subparsers(dest="subcommand", required=True)
    # the tangent question is the point question with the extra axis x
    for name, lines, decide, echo in (
            ("check", "line through the point", point_shadow, list),
            ("tangent", "tangent line of S^{n-1} at the point", tangent_shadow, unit)):
        question = shadow_sub.add_parser(name, help=f"is every {lines} blocked?")
        question.add_argument("--scene", required=True)
        question.add_argument("--point", required=True)
        question.add_argument("--tol", type=_tolerance, default=1e-9)
        question.set_defaults(run=_cmd_shadow, decide=decide, echo=echo)

    plane = sub.add_parser("plane", help="avoiding-plane search")
    plane_sub = plane.add_subparsers(dest="subcommand", required=True)
    find = plane_sub.add_parser("find", help="find an m-plane through the point avoiding all balls")
    find.add_argument("--scene", required=True)
    find.add_argument("--point", required=True)
    find.add_argument("--m", type=int, required=True)
    find.add_argument("--restarts", type=_count, default=64)
    find.add_argument("--seed", type=_seed, default=0)
    find.add_argument("--tol", type=_tolerance, default=1e-9)
    find.set_defaults(run=_cmd_plane_find)

    scene = sub.add_parser("scene", help="scene generators")
    scene_sub = scene.add_subparsers(dest="subcommand", required=True)
    gen = scene_sub.add_parser("gen", help="emit a scene document")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    gen_lemma = gen_sub.add_parser("lemma")
    gen_lemma.add_argument("--side", type=float, default=1.0)
    gen_lemma.set_defaults(run=lambda a: RunResult(0, scene_to_dict(build_lemma(a.side).scene)))
    gen_sub.add_parser("cube14").set_defaults(
        run=lambda a: RunResult(0, scene_to_dict(build_cube14().scene)))
    gen_random = gen_sub.add_parser("random")
    gen_random.add_argument("--dim", type=int, required=True)
    gen_random.add_argument("--k", type=int, required=True)
    gen_random.add_argument("--radius", type=float, required=True)
    gen_random.add_argument("--seed", type=_seed, required=True)
    gen_random.set_defaults(run=lambda a: RunResult(
        0, scene_to_dict(random_equal_balls(a.dim, a.k, a.radius, a.seed))))

    verify = sub.add_parser("verify", help="property suites")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    v_lemma = verify_sub.add_parser("lemma")
    v_lemma.add_argument("--side", type=float, default=1.0)
    v_lemma.add_argument("--grid-step", type=float, default=0.01)
    v_lemma.add_argument("--eps", type=float, default=1e-6)
    v_lemma.set_defaults(run=lambda a: _report_result(verify_lemma(a.side, a.grid_step, a.eps)))
    for name, suite in (("theorem3", check_theorem3), ("theorem4", check_theorem4)):
        v = verify_sub.add_parser(name)
        v.add_argument("--trials", type=_count, default=500)
        v.add_argument("--seed", type=_seed, default=0)
        v.set_defaults(run=lambda a, suite=suite: _report_result(suite(a.trials, a.seed)))
    v_lb = verify_sub.add_parser("lower-bound")
    v_lb.add_argument("--k", type=int, required=True)
    v_lb.add_argument("--dim", type=int, required=True)
    v_lb.add_argument("--trials", type=_count, default=500)
    v_lb.add_argument("--seed", type=_seed, default=0)
    v_lb.set_defaults(
        run=lambda a: _report_result(check_lower_bound(a.k, a.dim, a.trials, a.seed)))

    analyze = sub.add_parser("analyze", help="configuration analyses")
    analyze_sub = analyze.add_subparsers(dest="subcommand", required=True)
    ex2 = analyze_sub.add_parser("example2")
    ex2.add_argument("--tangent-grid", type=int, default=20000)
    ex2.add_argument("--area-samples", type=int, default=1_000_000)
    ex2.add_argument("--seed", type=_seed, default=0)
    ex2.add_argument("--falsifier-grid", type=int, default=20000,
                     help="ignored; kept for compatibility")
    ex2.add_argument("--csv")
    ex2.set_defaults(run=_cmd_analyze_example2)

    slc = sub.add_parser("slice", help="planar slice connectivity probe")
    slc.add_argument("--scene", required=True)
    slc.add_argument("--plane-point", required=True)
    slc.add_argument("--plane-normal", required=True)
    slc.add_argument("--window", type=float, required=True)
    slc.add_argument("--resolution", type=int, required=True)
    slc.set_defaults(run=_cmd_slice)
    return parser


def _scene_and_point(args):
    """The scene at ``--scene`` and the ``--point`` in its dimension."""
    scene = _load_scene(args.scene)
    x = _parse_point(args.point)
    if len(x) != scene.dim:
        raise CliError(f"point has {len(x)} coordinates, scene dimension is {scene.dim}")
    return scene, x


def _cmd_shadow(args) -> RunResult:
    scene, x = _scene_and_point(args)
    verdict = args.decide(scene, x, args.tol)
    payload = {
        "command": f"shadow {args.subcommand}",
        "scene": scene.label,
        "point": args.echo(x),
        "verdict": verdict.verdict,
        "shadowed": verdict.shadowed,
        "trivial": verdict.trivial,
        "method": verdict.method,
        "witness_direction": verdict.witness_direction,
        "margin": verdict.margin,
        "gap": verdict.gap,
    }
    return RunResult(2 if verdict.verdict == INDETERMINATE else 0, payload)


def _cmd_plane_find(args) -> RunResult:
    scene, x = _scene_and_point(args)
    exact = args.m == 1
    frame = find_avoiding_plane(scene, x, args.m, restarts=args.restarts,
                                seed=args.seed, tol=args.tol)
    payload = {
        "command": "plane find",
        "scene": scene.label,
        "point": x,
        "m": args.m,
        "found": frame is not None,
        "exact": exact,
    }
    if frame is not None:
        payload["basis"] = frame.basis
        payload["clearances"] = scene.clearances(frame.point, frame.basis)
    return RunResult(0 if frame is not None or exact else 2, payload)


def _report_result(report) -> RunResult:
    code = {FAIL: 1, INDETERMINATE_ONLY: 2}.get(report.status, 0)
    return RunResult(code, report.to_dict())


def _cmd_analyze_example2(args) -> RunResult:
    report = analyze_example2(tangent_grid=args.tangent_grid,
                              area_samples=args.area_samples, seed=args.seed)
    if args.csv:
        report.write_csv(args.csv)
    code = 2 if report.sphere_coverage.verdict == COVER_INDETERMINATE else 0
    return RunResult(code, report.to_dict())


def _cmd_slice(args) -> RunResult:
    scene = _load_scene(args.scene)
    point = _parse_point(args.plane_point, "plane-point")
    normal = _parse_point(args.plane_normal, "plane-normal")
    if len(point) != 3 or len(normal) != 3:
        raise CliError("slice probing needs 3-coordinate --plane-point and --plane-normal")
    # hypot neither overflows nor underflows, so any nonzero finite normal scales to unit length
    length = math.hypot(*normal)
    if length == 0.0:
        raise CliError("plane normal must be nonzero")
    e1, e2 = orthonormal_basis(np.asarray(normal) / length)
    frame = PlaneFrame(point, np.stack([e1, e2]))
    components = slice_connectivity(scene, frame, args.window, args.resolution)
    payload = {
        "command": "slice",
        "scene": scene.label,
        "plane_point": point,
        "plane_normal": normal,
        "window": args.window,
        "resolution": args.resolution,
        "components": components,
    }
    return RunResult(0, payload)


def dispatch(argv: list[str]) -> RunResult:
    """Parse argv and run one subcommand, returning the result payload."""
    args = build_parser().parse_args(_attach_coordinates(argv))
    result = args.run(args)
    payload = _jsonable(result.payload)
    if args.command != "scene":
        payload["status"] = _STATUS[result.exit_code]
    return RunResult(result.exit_code, payload)


def main(argv: list[str] | None = None) -> int:
    try:
        result = dispatch(sys.argv[1:] if argv is None else argv)
    except (CliError, GeometryError, SceneFormatError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"status": "error", "message": str(exc)}))
        return 3
    print(json.dumps(result.payload, indent=2))
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
