#!/usr/bin/env python3
"""Builds and runs the request-path benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload plan_cold|replay_paged|serve_mixed \
        --seed N --seconds T --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (the library is compiled from src/) under $CARGO_TARGET_DIR, or
.bench_build when unset; later calls rebuild incrementally. Build output
goes to stderr. Stdout ends with the benchmark's detail line and, last,
its result line {"correct", "attempted", "failed", "metrics"}.

On top of the checks the benchmark makes inside one run, this script keeps
the exact counters of every (binary, workload, seed) it has run under
.perfbench/records/ and marks a run incorrect when they differ from an
earlier run of the same binary and seed, traced or not.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan_cold", "replay_paged", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def check_record(binary, workload, seed, exact):
    """Compares `exact` with the record of an earlier run; returns a problem or None."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    path = ROOT / ".perfbench" / "records" / f"{digest}-{workload}-{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != exact:
            return f"exact counters {exact} differ from an earlier run of this seed: {earlier}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(exact, sort_keys=True) + "\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if subprocess.run([str(binary), "--self-test"]).returncode != 0:
        log("perfbench: percentile self-test failed")
        return 1

    out_dir = ROOT / ".perfbench"
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", str(out_dir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        log(f"perfbench: benchmark exited with {proc.returncode}")
        return 1
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])

    problem = check_record(binary, args.workload, args.seed, detail["exact"])
    if problem:
        detail["problems"].append(problem)
        result["correct"] = False
    for p in detail["problems"]:
        log(f"perfbench: check failed: {p}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
