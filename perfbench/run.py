#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench runner from source, runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root: the fleet workloads read traces/*.csv
relative to it. The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); its output goes to stderr, so the last stdout line
is the runner's result JSON. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 0xB0A710AD
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.exists(exe) else None


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    exe_before = os.path.join(build_dir, "perfbench")
    stamp = os.path.getmtime(exe_before) if os.path.exists(exe_before) else None
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Simulated signatures from earlier runs of this binary: a rebuilt
    # binary starts a fresh record.
    state = os.path.join(build_dir, "state")
    if stamp != os.path.getmtime(exe):
        shutil.rmtree(state, ignore_errors=True)
    os.makedirs(state, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--state-dir", state]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, args.workload + ".tsv")]

    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode

    # The result must carry exactly the metrics BENCHMARK.json declares.
    lines = proc.stdout.strip().splitlines()
    want = declared_metrics(args.trace)
    if want is not None and lines:
        got = set(json.loads(lines[-1])["metrics"])
        if got != want:
            print(f"perfbench: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(want - got)}, extra {sorted(got - want)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
