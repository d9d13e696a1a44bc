"""Scene JSON schema and (de)serialization.

Document shape:

    {"dim": n, "label": "...", "balls": [
        {"center": [x, y, ...], "radius": r, "topology": "open"|"closed"}]}

Floats round-trip exactly through the default json encoding (shortest
repr that recovers the double).
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .geometry import _TOPOLOGIES, Ball, Scene


class SceneFormatError(ValueError):
    """The scene document does not match the schema."""


def scene_to_dict(scene: Scene) -> dict:
    return {
        "dim": scene.dim,
        "label": scene.label,
        "balls": [
            {
                "center": [float(c) for c in b.center],
                "radius": float(b.radius),
                "topology": b.topology,
            }
            for b in scene.balls
        ],
    }


def _is_number(value) -> bool:
    """An int or float, but not a bool (JSON true/false load as bool, a subclass of int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def scene_from_dict(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise SceneFormatError("scene document must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SceneFormatError(f"'dim' must be a positive integer, got {dim!r}")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SceneFormatError("'label' must be a string")
    raw_balls = doc.get("balls")
    if not isinstance(raw_balls, list):
        raise SceneFormatError("'balls' must be a list")
    balls = []
    for i, rb in enumerate(raw_balls):
        if not isinstance(rb, dict):
            raise SceneFormatError(f"ball {i} must be an object")
        center = rb.get("center")
        if (not isinstance(center, list) or len(center) != dim
                or not all(_is_number(c) and math.isfinite(c) for c in center)):
            raise SceneFormatError(f"ball {i}: 'center' must be {dim} finite numbers")
        radius = rb.get("radius")
        if not _is_number(radius) or not math.isfinite(radius) or radius <= 0:
            raise SceneFormatError(f"ball {i}: 'radius' must be a positive finite number")
        topology = rb.get("topology", "closed")
        if topology not in _TOPOLOGIES:
            raise SceneFormatError(f"ball {i}: 'topology' must be 'open' or 'closed'")
        balls.append(Ball(np.array(center, dtype=float), float(radius), topology))
    return Scene(dim, balls, label)


def dump_scene(scene: Scene) -> str:
    return json.dumps(scene_to_dict(scene), indent=2)


def load_scene_text(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"invalid JSON: {exc}") from exc
    return scene_from_dict(doc)


def load_scene_file(path: str) -> Scene:
    """Read a scene document from a file path, or stdin when path is '-'."""
    if path == "-":
        return load_scene_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return load_scene_text(fh.read())
