#!/usr/bin/env python3
"""Append one benchmark point to ``BENCH_<workload>.json``.

Run from anywhere in a git checkout:

    python3 scripts/bench_point.py --workload zero_delay --seed 3301 --seconds 40

The script runs ``perfbench/run.py`` unchanged, as a child process in the
repository root, and reads the JSON line it prints last. It then appends
one point to ``BENCH_<workload>.json`` at the repository root, a JSON list
of points. A point holds:

- the git revision, and whether the tree was dirty (the ``BENCH_*.json``
  files aside) when the run started;
- the Python and numpy versions and ``os.cpu_count()``;
- the seed, the seconds and the trace flag;
- the counts and metrics as ``run.py`` printed them.

Earlier points are never changed. A point whose revision and seed are
already in the file is refused before the benchmark runs. Under
``--trace 1``, a metric of ``UNWIRED`` that reads 0 gets the value
``"unwired"``: the tracer wraps functions the pipeline no longer calls, so
that 0 is no measurement.

Exit codes: 0 the point was appended, 2 a bad flag or a refused point, and
otherwise the exit code of a ``run.py`` that failed; no point is appended
then.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The per-layer metrics of ``generate_drafts`` and ``verify_candidates``,
# which ``run_speculative`` no longer calls, so no traced call reaches them.
UNWIRED = frozenset(
    {
        "drafting.generate_drafts.p50_ms",
        "drafting.generate_drafts.p90_ms",
        "drafting.generate_drafts.self_ms",
        "drafting.straggler_ms",
        "drafting.dropped_share",
        "verification.verify_candidates.p50_ms",
        "verification.verify_candidates.self_ms",
        "verification.barrier_wait_ms",
        "verification.dropped_share",
    }
)


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"error: git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    path = ROOT / f"BENCH_{args.workload}.json"
    points = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    revision = git("rev-parse", "HEAD")
    if any(p["revision"] == revision and p["seed"] == args.seed for p in points):
        print(
            f"error: {path.name} already has a point at revision {revision[:12]} "
            f"with seed {args.seed}",
            file=sys.stderr,
        )
        return 2
    dirty = bool(git("status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json"))

    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    if done.returncode:
        return done.returncode
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = result["metrics"]
    if args.trace:
        for name in UNWIRED & metrics.keys():
            if metrics[name]["value"] == 0:
                metrics[name]["value"] = "unwired"

    points.append(
        {
            "revision": revision,
            "dirty": dirty,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "cpu_count": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(points, indent=2) + "\n", encoding="utf-8")
    os.replace(partial, path)
    print(f"point {len(points)} appended to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
