#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload http_keepalive --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The library's src/ tree and the benchmark
programs are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. A host stamp line
(`host {...}`) is printed, then the benchmark's result as the last line of
standard output: one JSON object with correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

WORKLOADS = ("http_keepalive", "http_churn", "threads")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_id(root):
    """The commit, or in a checkout without git a hash of the src/ tree."""
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-tree:" + digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", default="",
                    help="self-test fault (see selftest.py)")
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    if not os.path.isdir(os.path.join(root, "src")):
        log("perfbench: no src/ tree next to the benchmark")
        return 1
    if not build(bench_dir, build_dir):
        log("perfbench: build failed")
        return 1
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--client", os.path.join(build_dir, "perfbench_client"),
           "--out", out_dir]
    if args.inject:
        cmd += ["--inject", args.inject]
    # Its own process group, so a timeout also stops the load generator and
    # any cross-process child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run timed out")
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: benchmark exited with %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: no result line")
        return 1
    engine = "none"
    steal = None
    for line in lines[:-1]:
        if line.startswith("engine "):
            engine = line.split(None, 1)[1]
        elif line.startswith("steal "):
            steal = float(line.split()[1])
    host = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "kernel": platform.release(),
        "source": source_id(root),
        "build_type": BUILD_TYPE,
        "net_engine": engine,
        "host_steal": steal,
        "workload": args.workload,
        "seed": args.seed,
    }
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
