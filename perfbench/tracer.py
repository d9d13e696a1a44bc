"""Layer spans recorded from outside the library.

Each traced function is replaced, in every shadowgeo module that binds
it, by a wrapper that times the call and charges its duration to the
enclosing span.  A layer's self time is its duration minus the time its
child spans cover.  `from .x import f` copies the binding, so patching
only the defining module would miss calls made through the copies.

Hot helpers such as `spherecover.margin` (about 1e5 calls per suite
pass) stay unwrapped: the wrapper would cost more than the work.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    hits: int = 0      # useful outcomes, for the ratio counters
    items: int = 0     # arcs seen, or caps kept
    inputs: int = 0    # caps offered to CapSet


def _tol(args, kwargs, position: int) -> float:
    return kwargs.get("tol", args[position] if len(args) > position else 1e-9)


def _falsify_hit(span, args, kwargs, result, _):
    span.hits += result[1] > _tol(args, kwargs, 1)


def _capset_before(args, kwargs):
    return len(args[0].caps)


def _capset_kept(span, args, kwargs, result, n_in):
    span.inputs += n_in
    span.items += len(args[0].caps)


def _cover_indeterminate(span, args, kwargs, result, _):
    span.hits += result.verdict == "indeterminate"


def _certified(span, args, kwargs, result, _):
    span.hits += result.verdict == "not_shadowed"


def _found(span, args, kwargs, result, _):
    span.hits += result is not None


def _arcs(span, args, kwargs, result, _):
    span.items += len(args[0].arcs)


def _ratio(a, b):
    return a / b if b else 0.0


# (module, function, stats reported, counter hook, pre-call hook)
LAYERS = [
    ("analysis", "check_theorem3", ("self_s",), None, None),
    ("analysis", "check_theorem4", ("self_s",), None, None),
    ("analysis", "check_lower_bound", ("self_s",), None, None),
    ("analysis", "verify_lemma", ("self_s",), None, None),
    ("analysis", "analyze_example2", ("self_s",), None, None),
    ("shadow", "point_shadow", ("calls", "self_s"), None, None),
    ("shadow", "tangent_shadow", ("calls", "self_s"), None, None),
    ("shadow", "heuristic_shadow", ("calls", "self_s", "certified_ratio"), _certified, None),
    ("shadow", "find_avoiding_plane", ("calls", "self_s", "found_ratio"), _found, None),
    ("shadow", "witness_clearance", ("calls", "self_s"), None, None),
    ("spherecover", "cover_sphere", ("calls", "self_s", "indeterminate"), _cover_indeterminate, None),
    ("spherecover", "falsify", ("calls", "self_s", "hit_ratio"), _falsify_hit, None),
    ("spherecover", "boundary_arrangement", ("calls", "self_s"), None, None),
    ("spherecover", "CapSet", ("calls", "self_s", "kept_ratio"), _capset_kept, _capset_before),
    ("spherecover", "uncovered_area_estimate", ("self_s",), None, None),
    ("circlecover", "cover_circle", ("calls", "self_s", "arcs_per_call"), _arcs, None),
    ("circlecover", "uncovered_arcs", ("calls", "self_s"), None, None),
    ("geometry", "orthonormal_basis", ("calls", "self_s"), None, None),
    ("geometry", "tangent_arcs", ("calls", "self_s"), None, None),
    ("geometry", "ball_band", ("calls", "self_s"), None, None),
    ("geometry", "line_ball_clearance", ("calls", "self_s"), None, None),
    ("constructions", "build_lemma", ("calls", "self_s"), None, None),
    ("constructions", "build_cube14", ("calls", "self_s"), None, None),
    ("constructions", "random_equal_balls", ("calls", "self_s"), None, None),
    ("constructions", "random_disjoint_balls", ("calls", "self_s"), None, None),
    ("constructions", "boundary_sample", ("calls", "self_s"), None, None),
    ("constructions", "random_exterior_point", ("calls", "self_s"), None, None),
    ("sampling", "sample_sphere", ("self_s",), None, None),
    ("sampling", "fibonacci_sphere", ("self_s",), None, None),
    ("cli", "main", ("self_s",), None, None),
]

UNITS = {"calls": "count", "self_s": "s", "indeterminate": "count", "arcs_per_call": "count"}
HIGHER_IS_BETTER = {"hit_ratio", "certified_ratio", "found_ratio"}


def stat_value(span: Span, stat: str, passes: int) -> float:
    """One reported statistic; counts and times are per traced pass."""
    if stat == "calls":
        return span.calls / passes
    if stat == "self_s":
        return span.self_s / passes
    if stat == "indeterminate":
        return span.hits / passes
    if stat == "arcs_per_call":
        return _ratio(span.items, span.calls)
    if stat == "kept_ratio":
        return _ratio(span.items, span.inputs)
    return _ratio(span.hits, span.calls)


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every layer statistic, in report order."""
    out = []
    for module, func, stats, _, _ in LAYERS:
        for stat in stats:
            better = "higher" if stat in HIGHER_IS_BETTER else "lower"
            out.append((f"{module}.{func}.{stat}", UNITS.get(stat, "ratio"), better))
    return out


class Tracer:
    """Installs span wrappers on the LAYERS functions and removes them again."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after, before):
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                span.calls += 1
                span.self_s += dur - child[0]
            if after:
                after(span, args, kwargs, result, token)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "shadowgeo" or n.startswith("shadowgeo."))]
        for module, func, _, after, before in LAYERS:
            name = f"{module}.{func}"
            home = sys.modules[f"shadowgeo.{module}"]
            if func == "CapSet":
                cls = home.CapSet
                self._patch(cls, "__post_init__",
                            self._wrap(name, cls.__post_init__, after, before))
                continue
            original = getattr(home, func)
            wrapper = self._wrap(name, original, after, before)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, passes: int) -> dict[str, float]:
        out = {}
        for module, func, stats, _, _ in LAYERS:
            span = self.spans.get(f"{module}.{func}", Span())
            for stat in stats:
                out[f"{module}.{func}.{stat}"] = stat_value(span, stat, passes)
        return out

    def self_shares(self, traced_s: float, top: int = 6) -> dict[str, float]:
        """The largest self times as shares of the traced passes' wall time."""
        ranked = sorted(self.spans.items(), key=lambda kv: -kv[1].self_s)[:top]
        return {name: round(_ratio(s.self_s, traced_s), 4) for name, s in ranked}
