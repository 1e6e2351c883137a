#!/usr/bin/env python3
"""Build and run the perfbench benchmark of the htims streaming pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the htims library from
../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, then runs one measurement in a fresh process. The last
line of standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics". Exits non-zero without printing a
result when the sources are missing, the build fails, or the run fails.

Workloads, metrics and their meaning are described in perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solo_burst", "paced_fleet", "record_replay")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_hash():
    """sha256 over the library sources and the benchmark, for labelling
    runs made outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_quiet(cmd, timeout):
    """Run a build step with its output sent to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    return proc.returncode


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("htims sources (src/CMakeLists.txt) not found next to perfbench/")
    if run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
        fail("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", build_dir, "-j", jobs],
                 BUILD_TIMEOUT_S) != 0:
        fail("build failed", 1)
    exe = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(exe):
        fail("benchmark executable missing after build", 1)
    # Flush the build's dirty pages now, so their writeback does not run
    # during the measurement that follows a fresh build.
    os.sync()
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    workdir = os.path.join(target, "perfbench-work")
    exe = build(build_dir)
    os.makedirs(workdir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--label", f"git_sha={git_sha()}",
           "--label", f"src_hash={source_hash()}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
