"""One measured process: set-up, timed passes, then checks of the first pass.

Started by run.py in a fresh interpreter; prints one JSON document on
stdout.  With --setup-only it stops after set-up, which is how run.py
repeats the set-up measurement.

The thread caps are set before numpy loads, which is the only point at
which the BLAS and OpenMP pools read them.
"""

from __future__ import annotations

import os

for _var in ("SHADOW_ORACLE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POOL_MIN = 100  # queries per pass from which a part's latencies are taken per input


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def part_latency(recorders, part: str) -> dict:
    """p50 and tail of one part's query latencies, in ms, with the pool they rest on.

    Every pass repeats the same inputs.  A part with at least POOL_MIN
    queries in a pass is pooled per input: each input's median over the
    passes, so that a host stall, which hits a different query in each
    pass, cannot make the tail.  A part with fewer is pooled over every
    query of the run, so that its tail still leaves at least ten samples
    beyond it at a high percentile.
    """
    per_pass = [rec.latencies[part] for rec in recorders]
    if len(per_pass[0]) >= POOL_MIN:
        pool = [statistics.median(runs) for runs in zip(*per_pass)]
    else:
        pool = sum(per_pass, [])
    t, percentile = tail(pool)
    return {"p50_ms": 1e3 * statistics.median(pool), "tail_ms": 1e3 * t,
            "tail_percentile": round(percentile, 3), "pool": len(pool),
            "queries_per_pass": len(per_pass[0])}


def timed_passes(wl, seconds: float, recorder_cls, keep_first: bool = False):
    """Run passes until the next one would likely end past `seconds`.

    Returns (wall_s, recorder) per completed pass, the first pass's output
    (its recorder keeps the call arguments when keep_first is set), and
    the traceback of a pass that raised, if one did; the loop stops there.
    Holding references costs the timed pass no more than a list append.
    """
    passes, first = [], None
    start = perf_counter()
    while not passes or perf_counter() - start + passes[-1][0] <= seconds:
        rec = recorder_cls(keep=keep_first and not passes)
        t0 = perf_counter()
        try:
            output = wl.run(rec)
        except Exception:  # noqa: BLE001 - a raising call is a failed decision
            return passes, first, traceback.format_exc()
        passes.append((perf_counter() - t0, rec))
        if len(passes) == 1:
            first = output
    return passes, first, None


def tally(recorders, kept, bad: list[bool], problems: list[str]) -> tuple[int, int]:
    """(attempted, failed) decisions over all passes, judged against the checked pass.

    Passes repeat the same inputs, so decision i of any pass fails when the
    checked pass's decision i failed its check or the verdicts differ.  A
    pass-level problem (a suite report or output invariant) fails every
    decision of every pass.
    """
    attempted = failed = 0
    for rec in recorders:
        attempted += len(rec.verdicts)
        if problems:
            failed += len(rec.verdicts)
            continue
        failed += sum(b or v != w for b, v, w in zip(bad, rec.verdicts, kept.verdicts))
        failed += abs(len(rec.verdicts) - len(kept.verdicts))
    return attempted, failed


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "SHADOW_ORACLE_THREADS": os.environ["SHADOW_ORACLE_THREADS"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", type=Path, required=True,
                    help="an empty scratch directory for output files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import shadowgeo
    import shadowgeo.analysis
    import shadowgeo.cli  # noqa: F401
    import_s = perf_counter() - t0
    if not Path(shadowgeo.__file__).resolve().is_relative_to(SRC):
        print(f"shadowgeo was imported from {shadowgeo.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    import workloads

    t1 = perf_counter()
    wl = workloads.build(args.workload, args.seed, args.size, args.workdir)
    t2 = perf_counter()
    wl.warm()
    setup = {"import_s": import_s, "inputs_s": t2 - t1, "warm_s": perf_counter() - t2}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0
    return measure(args, wl, setup)


def measure(args, wl, setup: dict) -> int:
    import tracer
    import workloads

    traced_s = args.seconds / 2 if args.trace else 0.0
    passes, output, error = timed_passes(wl, args.seconds - traced_s, workloads.Recorder,
                                         keep_first=True)
    traced, tr = [], None
    if args.trace and error is None:
        tr = tracer.Tracer()
        tr.install()
        try:
            traced, _, error = timed_passes(wl, traced_s, workloads.Recorder)
        finally:
            tr.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if error:
        print(error, file=sys.stderr)
    if not passes or (args.trace and not traced):
        return 1

    kept = passes[0][1]
    bad, problems = wl.check(kept, output)
    attempted, failed = tally([rec for _, rec in passes + traced], kept, bad, problems)
    if error:
        attempted += 1
        failed += 1

    walls = [w for w, _ in passes]
    decisions = sum(len(rec.verdicts) for _, rec in passes)
    recorders = [rec for _, rec in passes]
    parts = {part: part_latency(recorders, part) for part in kept.latencies}
    for part, stats in parts.items():
        stats["wall_s"] = statistics.median(rec.part_walls[part] for rec in recorders)
    counts = {v: kept.verdicts.count(v) for v in sorted(set(kept.verdicts))}
    info = {
        "passes": len(passes),
        "pass_walls_s": [round(w, 4) for w in walls],
        "decisions": decisions,
        "decisions_per_pass": len(kept.verdicts),
        "parts": parts,
        "failed_share": failed / max(attempted, 1),
        "verdict_counts": counts,
        "problems": problems,
        "machine": machine(),
    }
    if args.trace:
        traced_walls = [w for w, _ in traced]
        metrics = tr.metrics(len(traced))
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        info["traced_passes"] = len(traced)
        info["self_share"] = tr.self_shares(sum(traced_walls))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "decisions_per_s": len(kept.verdicts) / statistics.median(walls),
            # each part weighs the same, whatever its share of the queries
            "query_p50_ms": statistics.geometric_mean(s["p50_ms"] for s in parts.values()),
            "query_tail_ms": statistics.geometric_mean(s["tail_ms"] for s in parts.values()),
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps({"setup": setup, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
