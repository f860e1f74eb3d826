#!/usr/bin/env python3
"""Builds the convergence benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the repository root (or any checkout of it). The driver is built
in Release mode under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), which also receives the span file of each run.
Build output goes to stderr; stdout is the driver's output, whose last line
is the result object. The exit status is the driver's, or non-zero without
a result when the build fails (for example when ../src is missing).
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """sha256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    """Configures once, then rebuilds incrementally; serialised by a lock."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "qoslb_perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "qoslb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    spans = os.path.join(
        span_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--spans", spans, "--git-sha", git_sha(),
               "--source-hash", source_hash()]
    try:
        # run() kills the driver and waits for it when the timeout expires.
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
