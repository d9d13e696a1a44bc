import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shadowgeo.constructions import build_cube14, random_disjoint_balls
from shadowgeo.geometry import Ball, Scene
from shadowgeo.sceneio import (
    SceneFormatError,
    dump_scene,
    load_scene_file,
    load_scene_text,
    scene_from_dict,
    scene_to_dict,
)


def test_round_trip_preserves_floats_exactly():
    scene = build_cube14().scene
    back = load_scene_text(dump_scene(scene))
    assert back.dim == 3
    assert back.label == "cube14"
    for a, b in zip(scene.balls, back.balls):
        np.testing.assert_array_equal(a.center, b.center)
        assert a.radius == b.radius
        assert a.topology == b.topology


@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_scenes(seed):
    scene = random_disjoint_balls(3, 4, seed)
    back = scene_from_dict(json.loads(dump_scene(scene)))
    for a, b in zip(scene.balls, back.balls):
        np.testing.assert_array_equal(a.center, b.center)
        assert a.radius == b.radius


def test_topology_defaults_to_closed():
    scene = scene_from_dict(
        {"dim": 2, "balls": [{"center": [0.0, 1.0], "radius": 0.5}]}
    )
    assert scene.balls[0].topology == "closed"


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"dim": 0, "balls": []},
        {"dim": 2.5, "balls": []},
        {"dim": 2, "balls": {}},
        {"dim": 2, "label": 3, "balls": []},
        {"dim": 2, "balls": ["ball"]},
        {"dim": 2, "balls": [{"center": [1.0], "radius": 1.0}]},
        {"dim": 2, "balls": [{"center": [1.0, "x"], "radius": 1.0}]},
        {"dim": 2, "balls": [{"center": [1.0, math.inf], "radius": 1.0}]},
        {"dim": 2, "balls": [{"center": [1.0, 2.0], "radius": -1.0}]},
        {"dim": 2, "balls": [{"center": [1.0, 2.0], "radius": "big"}]},
        {"dim": 2, "balls": [{"center": [1.0, 2.0], "radius": 1.0, "topology": "both"}]},
        # JSON booleans load as bool, a subclass of int
        {"dim": True, "balls": [{"center": [1.0], "radius": 1.0}]},
        {"dim": 2, "balls": [{"center": [1.0, False], "radius": 1.0}]},
        {"dim": 2, "balls": [{"center": [1.0, 2.0], "radius": True}]},
    ],
)
def test_malformed_documents_rejected(doc):
    with pytest.raises(SceneFormatError):
        scene_from_dict(doc)


def test_invalid_json_text():
    with pytest.raises(SceneFormatError):
        load_scene_text("{not json")


def test_load_scene_file(tmp_path):
    scene = Scene(2, [Ball([0.25, -1.5], 0.75, "open")], label="probe")
    path = tmp_path / "probe.json"
    path.write_text(dump_scene(scene))
    back = load_scene_file(str(path))
    assert back.label == "probe"
    assert back.balls[0].topology == "open"
    assert back.balls[0].radius == 0.75


def test_scene_to_dict_shape():
    doc = scene_to_dict(Scene(1, [Ball([2.0], 1.0)], label="line"))
    assert doc == {
        "dim": 1,
        "label": "line",
        "balls": [{"center": [2.0], "radius": 1.0, "topology": "closed"}],
    }
