"""shadowgeo benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 50 --trace 0

Run from the root of a shadowgeo checkout; the library is imported from
its src/ directory.  The set-up (import, input generation, warm-up) is
measured in SETUP_PROBES throw-away processes before the measured
process, in the measured process itself, and in SETUP_PROBES more after
it, each a fresh interpreter so that import time, peak RSS and the
library's lru caches never carry over.  setup_s is the median of these,
which span the whole run rather than its first seconds.  The measured
process is a closed loop with one client and every thread pool capped
at 1 (see worker.py).  Output files go to a scratch directory in the
checkout, removed when the run ends.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half with layer spans installed and prints the per-layer
metrics.  The line before the result holds the details: pass and
decision counts, each part's wall time and query latencies with their
pools, verdict counts and their digest, the failed share, and the
machine.  Exit status is non-zero, with no result line, when the run
could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suites", "queries")
SETUP_PROBES = 3  # on each side of the measured process
DEADLINE_S = 170  # the whole run, set-up probes included, ends within this
UNITS = {"wall_s": "s", "decisions_per_s": "1/s", "query_p50_ms": "ms",
         "query_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON document."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed region")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the self-test")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    probe_s = 15.0  # the most one set-up probe may take
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=HERE.parent) as tmp:
            common = ["--workload", args.workload, "--seed", str(args.seed),
                      "--size", args.size, "--workdir", tmp]

            def probes() -> list[dict]:
                return [worker([*common, "--seconds", "0", "--setup-only"], probe_s)["setup"]
                        for _ in range(SETUP_PROBES)]

            setups = probes()
            run = worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         deadline - time.monotonic() - SETUP_PROBES * probe_s)
            setups += [run["setup"], *probes()]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    def median(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    if args.trace:
        values = dict(run["metrics"])
        values.update({f"setup.{k}": median(k) for k in ("import_s", "inputs_s", "warm_s")})
        units = {name: unit for name, unit, _ in layer_metrics()}
    else:
        values = dict(run["metrics"])
        values["setup_s"] = statistics.median(sum(s.values()) for s in setups)
        units = UNITS
    info = run["info"]
    counts = json.dumps([args.workload, args.seed, args.size, info["verdict_counts"]])
    info["verdict_digest"] = hashlib.sha256(counts.encode()).hexdigest()[:16]
    info["setups"] = setups
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **info}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    import tracer  # no numpy: this process stays light

    return tracer.metric_names() + [("trace.overhead_ratio", "ratio", "lower")] + [
        (f"setup.{k}", "s", "lower") for k in ("import_s", "inputs_s", "warm_s")]


if __name__ == "__main__":
    raise SystemExit(main())
