"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the checks count an injected wrong verdict or bad witness as
failed, and that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from shadowgeo import shadow  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_spec_matches_run_and_workloads():
    assert NAMES == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert sorted(p for parts in workloads.WORKLOADS.values() for p in parts) \
        == sorted(workloads.PARTS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == run.layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    for value in (v["value"] for v in result["metrics"].values()):
        assert math.isfinite(value) and (trace or value > 0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "suites", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def checked_pass(name: str, tmp_path: Path):
    wl = workloads.build_part(name, 5, "tiny", tmp_path)
    rec = workloads.Recorder(keep=True)
    output = wl.run(rec)
    bad, problems = wl.check(rec, output)
    assert not any(bad) and not problems
    return wl, rec, output


def toward_ball(x, scene) -> np.ndarray:
    """Unit direction from x to the centre of the ball farthest from it."""
    far = max(scene.balls, key=lambda b: np.linalg.norm(b.center - x))
    v = far.center - np.asarray(x, dtype=float)
    return v / np.linalg.norm(v)


def break_witness(rec, i: int) -> None:
    (scene, x, *_), _, verdict = rec.records[i]
    verdict.witness_direction = toward_ball(x, scene)


def replace_result(rec, i: int, result) -> None:
    args, kwargs, _ = rec.records[i]
    rec.records[i] = (args, kwargs, result)


@pytest.mark.parametrize("name", ["suites-3d", "dense-3d", "lemma-grid", "highdim"])
def test_injected_wrong_verdict_and_bad_witness_fail(name, tmp_path):
    wl, rec, output = checked_pass(name, tmp_path)
    first = rec.records[0][2]
    if isinstance(first, shadow.ShadowVerdict) and first.verdict == shadow.NOT_SHADOWED:
        break_witness(rec, 0)
    else:
        replace_result(rec, 0, shadow.ShadowVerdict(shadow.NOT_SHADOWED))
    replace_result(rec, 1, shadow.ShadowVerdict(shadow.INDETERMINATE))
    bad, _ = wl.check(rec, output)
    assert bad[:2] == [True, True]
    assert not any(bad[2:])


def test_mixed_workload_charges_a_failure_to_its_decision(tmp_path):
    wl = workloads.build("queries", 5, "tiny", tmp_path)
    rec = workloads.Recorder(keep=True)
    spans = wl.run(rec)
    assert wl.check(rec, spans) == ([False] * len(rec.records), [])
    last = len(rec.records) - 1
    replace_result(rec, last, shadow.ShadowVerdict(shadow.INDETERMINATE))
    bad, _ = wl.check(rec, spans)
    assert bad == [False] * last + [True]


def test_highdim_plane_through_a_ball_fails(tmp_path):
    wl, rec, output = checked_pass("highdim", tmp_path)
    i = next(i for i, (m, _, _) in enumerate(wl.queries) if m == 2)
    _, scene, x = wl.queries[i]
    d = toward_ball(x, scene)
    other = np.linalg.qr(np.column_stack([d, np.eye(len(d))[:, 1]]))[0][:, 1]
    replace_result(rec, i, shadow.PlaneFrame(x, np.stack([d, other])))
    assert wl.check(rec, output)[0][i]


def test_example2_flipped_tangent_verdict_and_bad_report_fail(tmp_path):
    wl, rec, (code, text) = checked_pass("example2", tmp_path)
    i = next(i for i, r in enumerate(rec.records)
             if getattr(r[2], "verdict", "") == shadow.SHADOWED)
    (scene, p, *_), kwargs, _ = rec.records[i]
    fake = shadow.ShadowVerdict(shadow.NOT_SHADOWED, witness_point=p,
                                witness_direction=toward_ball(p, scene), margin=1.0)
    rec.records[i] = (rec.records[i][0], kwargs, fake)
    bad, problems = wl.check(rec, (code, text))
    assert bad[i] and sum(bad) == 1 and not problems
    report = json.loads(text)
    report["tangent_failures"] = 0
    assert wl.check(rec, (code, json.dumps(report)))[1]


def test_tally_charges_failures_to_every_pass():
    kept, other = workloads.Recorder(), workloads.Recorder()
    kept.verdicts = ["shadowed", "shadowed", "not_shadowed"]
    other.verdicts = ["shadowed", "not_shadowed", "not_shadowed"]
    # decision 2 failed its check (both passes), decision 1 differs in the second pass
    assert worker.tally([kept, other], kept, [False, False, True], []) == (6, 3)
    assert worker.tally([kept, other], kept, [False] * 3, ["report failed"]) == (6, 6)


def test_part_latency_pools_a_large_part_per_input_and_a_small_one_over_the_run():
    recs = [workloads.Recorder() for _ in range(3)]
    for i, rec in enumerate(recs):
        rec.latencies = {"large": [float(j) for j in range(200)],
                         "small": [float(j) for j in range(20)]}
    recs[0].latencies["large"][0] = 1e3   # one stall in one pass
    large = worker.part_latency(recs, "large")
    assert (large["pool"], large["p50_ms"], large["tail_ms"]) == (200, 99.5e3, 189e3)
    small = worker.part_latency(recs, "small")
    # 60 pooled samples: the tail leaves the ten above 16 s beyond it
    assert (small["pool"], small["tail_ms"], small["tail_percentile"]) == (60, 16e3, 83.333)
