"""Command-line front end.

Exit codes: 0 query answered / property holds, 1 property falsified,
2 indeterminate (including plane searches for m >= 2 that found nothing),
3 input error.  Results go to stdout as JSON; warnings and diagnostics go
to stderr.  ``--scene -`` reads the scene document from stdin, and
``scene gen`` writes a bare scene document so commands pipe together.

The SHADOW_ORACLE_THREADS environment variable caps the BLAS/OpenMP
thread pools; it must take effect before numpy loads, which is why the
geometry modules are imported inside main() and the handlers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass


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


def _apply_thread_cap() -> None:
    cap = os.environ.get("SHADOW_ORACLE_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


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
    import numpy as np

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
    from .sceneio import load_scene_file

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
    check = shadow_sub.add_parser("check", help="is every line through the point blocked?")
    check.add_argument("--scene", required=True)
    check.add_argument("--point", required=True)
    check.add_argument("--tol", type=_tolerance, default=1e-9)
    tangent = shadow_sub.add_parser("tangent",
                                    help="is every tangent line of S^2 at the point blocked?")
    tangent.add_argument("--scene", required=True)
    tangent.add_argument("--point", required=True)
    tangent.add_argument("--tol", type=_tolerance, default=1e-9)

    plane = sub.add_parser("plane", help="avoiding-plane search")
    plane_sub = plane.add_subparsers(dest="subcommand", required=True)
    find = plane_sub.add_parser("find", help="find an m-plane through the point avoiding all balls")
    find.add_argument("--scene", required=True)
    find.add_argument("--point", required=True)
    find.add_argument("--m", type=int, required=True)
    find.add_argument("--restarts", type=_count, default=64)
    find.add_argument("--seed", type=_seed, default=0)
    find.add_argument("--tol", type=_tolerance, default=1e-9)

    scene = sub.add_parser("scene", help="scene generators")
    scene_sub = scene.add_subparsers(dest="subcommand", required=True)
    gen = scene_sub.add_parser("gen", help="emit a scene document")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    gen_lemma = gen_sub.add_parser("lemma")
    gen_lemma.add_argument("--side", type=float, default=1.0)
    gen_sub.add_parser("cube14")
    gen_random = gen_sub.add_parser("random")
    gen_random.add_argument("--dim", type=int, required=True)
    gen_random.add_argument("--k", type=int, required=True)
    gen_random.add_argument("--radius", type=float, required=True)
    gen_random.add_argument("--seed", type=_seed, required=True)

    verify = sub.add_parser("verify", help="property suites")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    v_lemma = verify_sub.add_parser("lemma")
    v_lemma.add_argument("--side", type=float, default=1.0)
    v_lemma.add_argument("--grid-step", type=float, default=0.01)
    v_lemma.add_argument("--eps", type=float, default=1e-6)
    for name in ("theorem3", "theorem4"):
        v = verify_sub.add_parser(name)
        v.add_argument("--trials", type=_count, default=500)
        v.add_argument("--seed", type=_seed, default=0)
    v_lb = verify_sub.add_parser("lower-bound")
    v_lb.add_argument("--k", type=int, required=True)
    v_lb.add_argument("--dim", type=int, required=True)
    v_lb.add_argument("--trials", type=_count, default=500)
    v_lb.add_argument("--seed", type=_seed, default=0)

    analyze = sub.add_parser("analyze", help="configuration analyses")
    analyze_sub = analyze.add_subparsers(dest="subcommand", required=True)
    ex2 = analyze_sub.add_parser("example2")
    ex2.add_argument("--tangent-grid", type=int, default=20000)
    ex2.add_argument("--area-samples", type=int, default=1_000_000)
    ex2.add_argument("--seed", type=_seed, default=0)
    ex2.add_argument("--falsifier-grid", type=int, default=20000,
                     help="ignored; kept for compatibility")
    ex2.add_argument("--csv")

    slc = sub.add_parser("slice", help="planar slice connectivity probe")
    slc.add_argument("--scene", required=True)
    slc.add_argument("--plane-point", required=True)
    slc.add_argument("--plane-normal", required=True)
    slc.add_argument("--window", type=float, required=True)
    slc.add_argument("--resolution", type=int, required=True)
    return parser


def _cmd_shadow_check(args) -> RunResult:
    from .shadow import INDETERMINATE, point_shadow

    scene = _load_scene(args.scene)
    x = _parse_point(args.point)
    if len(x) != scene.dim:
        raise CliError(f"point has {len(x)} coordinates, scene dimension is {scene.dim}")
    verdict = point_shadow(scene, x, args.tol)
    payload = {
        "command": "shadow check",
        "scene": scene.label,
        "point": x,
        "verdict": verdict.verdict,
        "shadowed": verdict.shadowed,
        "trivial": verdict.trivial,
        "method": verdict.method,
        "witness_direction": verdict.witness_direction,
        "margin": verdict.margin,
        "gap": verdict.gap,
    }
    code = 2 if verdict.verdict == INDETERMINATE else 0
    return RunResult(code, payload)


def _cmd_shadow_tangent(args) -> RunResult:
    from .geometry import unit
    from .shadow import tangent_shadow

    scene = _load_scene(args.scene)
    x = _parse_point(args.point)
    if len(x) != 3:
        raise CliError("tangent shadows need a 3-coordinate point on the unit sphere")
    verdict = tangent_shadow(scene, x, args.tol)
    payload = {
        "command": "shadow tangent",
        "scene": scene.label,
        "point": unit(x),
        "verdict": verdict.verdict,
        "shadowed": verdict.shadowed,
        "witness_direction": verdict.witness_direction,
        "margin": verdict.margin,
        "gap": verdict.gap,
    }
    return RunResult(0, payload)


def _cmd_plane_find(args) -> RunResult:
    from .shadow import find_avoiding_plane

    scene = _load_scene(args.scene)
    x = _parse_point(args.point)
    if len(x) != scene.dim:
        raise CliError(f"point has {len(x)} coordinates, scene dimension is {scene.dim}")
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
        code = 0
    else:
        code = 0 if exact else 2
    return RunResult(code, payload)


def _cmd_scene_gen(args) -> RunResult:
    from .constructions import build_cube14, build_lemma, random_equal_balls
    from .sceneio import scene_to_dict

    if args.generator == "lemma":
        scene = build_lemma(args.side).scene
    elif args.generator == "cube14":
        scene = build_cube14().scene
    else:
        scene = random_equal_balls(args.dim, args.k, args.radius, args.seed)
    return RunResult(0, scene_to_dict(scene))


def _report_result(report) -> RunResult:
    from .analysis import FAIL, INDETERMINATE_ONLY

    code = {FAIL: 1, INDETERMINATE_ONLY: 2}.get(report.status, 0)
    return RunResult(code, report.to_dict())


def _cmd_verify(args) -> RunResult:
    from .analysis import check_lower_bound, check_theorem3, check_theorem4, verify_lemma

    if args.subcommand == "lemma":
        return _report_result(verify_lemma(args.side, args.grid_step, args.eps))
    if args.subcommand == "theorem3":
        return _report_result(check_theorem3(args.trials, args.seed))
    if args.subcommand == "theorem4":
        return _report_result(check_theorem4(args.trials, args.seed))
    return _report_result(check_lower_bound(args.k, args.dim, args.trials, args.seed))


def _cmd_analyze_example2(args) -> RunResult:
    from .analysis import analyze_example2
    from .spherecover import INDETERMINATE as COVER_INDETERMINATE

    report = analyze_example2(tangent_grid=args.tangent_grid,
                              area_samples=args.area_samples, seed=args.seed)
    if args.csv:
        report.write_csv(args.csv)
    code = 2 if report.sphere_coverage.verdict == COVER_INDETERMINATE else 0
    return RunResult(code, report.to_dict())


def _cmd_slice(args) -> RunResult:
    from .analysis import slice_connectivity
    from .geometry import orthonormal_basis
    from .shadow import PlaneFrame
    import numpy as np

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
    parser = build_parser()
    args = parser.parse_args(_attach_coordinates(argv))
    if args.command == "shadow":
        result = _cmd_shadow_check(args) if args.subcommand == "check" \
            else _cmd_shadow_tangent(args)
    elif args.command == "plane":
        result = _cmd_plane_find(args)
    elif args.command == "scene":
        result = _cmd_scene_gen(args)
    elif args.command == "verify":
        result = _cmd_verify(args)
    elif args.command == "analyze":
        result = _cmd_analyze_example2(args)
    else:
        result = _cmd_slice(args)
    payload = _jsonable(result.payload)
    if args.command != "scene":
        payload["status"] = _STATUS[result.exit_code]
    return RunResult(result.exit_code, payload)


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    if argv is None:
        argv = sys.argv[1:]
    try:
        result = dispatch(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"status": "error", "message": str(exc)}))
        return 3
    except Exception as exc:  # noqa: BLE001 - map library errors to input errors
        from .geometry import GeometryError
        from .sceneio import SceneFormatError

        if isinstance(exc, (GeometryError, SceneFormatError, ValueError, IndexError)):
            print(f"error: {exc}", file=sys.stderr)
            print(json.dumps({"status": "error", "message": str(exc)}))
            return 3
        raise
    print(json.dumps(result.payload, indent=2))
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
