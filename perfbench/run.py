#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload svc_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the perfbench binary under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only check the build is current.

The binary prints a human-readable report (context, per-round lines,
stage sums, self times, every metric and gate) and a JSON line; this script
echoes the report and then prints, as its last line, the result object:
every end-to-end metric of BENCHMARK.json with --trace 0, every per-layer
metric with --trace 1. It exits non-zero without a result when the sources,
the build or the run fail. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """Digest of every library and benchmark source file: identifies the
    code measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(build_dir):
    """Configures once, then brings the binary up to date. Build output goes
    to stderr so the result stays the last line of stdout."""
    os.makedirs(build_dir, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        # Keep the compiler's temporary files inside the checkout too.
        tmp = os.path.join(build_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            left = deadline - time.monotonic()
            try:
                done = subprocess.run(cmd, cwd=ROOT, env=env,
                                      stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=max(1, left))
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out-seed", default="none",
                        help="seed reserved for confirming later claims; "
                             "recorded in the run context")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    commit = f"git:{git_commit()} src:{source_digest()}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work_dir, ROOT),
           "--commit", commit, "--held-out-seed", str(args.held_out_seed)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited with code {done.returncode}")
    try:
        detail = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")
    print("\n".join(lines[:-1]))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        got = detail["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the {args.workload} run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} measured in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    broken = [name for name, ok in detail["gates"].items() if not ok]
    if broken:
        print(f"correctness gates broken: {', '.join(broken)}")
    result = {"correct": bool(detail["correct"]),
              "attempted": int(detail["attempted"]),
              "failed": int(detail["failed"]),
              "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
