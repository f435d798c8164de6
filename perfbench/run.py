#!/usr/bin/env python3
"""Builds the system from ../src and runs one benchmark workload.

Run from the root of a checkout:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The build goes to .bench_build/ (configured once, then incremental). Each run
gets its own scratch directory under .bench_build/ for the workload's files
and buffer-pool spills, removed when the run ends. Traced runs keep their
spans in .bench_build/spans/. The last line of stdout is the JSON result.
"""

import fcntl
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "cmake")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (first time) and builds `target`; returns the binary path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, target)


def arg_value(args, name):
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    selftest = args == ["--selftest"]
    try:
        binary = build("perfbench_selftest" if selftest else "perfbench")
    except (OSError, RuntimeError) as e:
        log("perfbench: %s" % e)
        return 1

    work = os.path.join(OUT_DIR, "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, TMPDIR=work)
    cmd = [binary]
    if not selftest:
        cmd += args + ["--work-dir", work]
        if arg_value(args, "--trace") == "1":
            spans = os.path.join(OUT_DIR, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans", os.path.join(spans, "%s-seed%s.json" % (
                arg_value(args, "--workload"), arg_value(args, "--seed")))]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
