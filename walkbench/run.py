#!/usr/bin/env python3
"""Repository benchmark: build walkbench from source, run one workload.

Usage (from the repository root):

    python3 walkbench/run.py --workload walk-lru|walk-policy|serve-mix \
        --seed N --seconds S --trace 0|1

Builds the PicoEval libraries, picoeval_server and the walkbench program
in .bench_build/walkbench (Release only), runs the workload in a scratch
directory under .bench_run/, and prints a machine block, walkbench's
details, and as the last line the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the build or the run fails. Metric meanings are catalogued
in walkbench/metrics.json; workload rationale in walkbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "walkbench")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("walk-lru", "walk-policy", "serve-mix")
# The seed whose walk digests are recorded in walkbench/digests.json.
DEFAULT_SEED = 1
# A run is its set-up (profiling, reference walks, server start-ups)
# plus work that grows with --seconds (the timed loop, then one check
# walk per distinct served request); 170 s at --seconds 30.
SETUP_ALLOWANCE_S = 95


def run_timeout(seconds):
    return SETUP_ALLOWANCE_S + 2.5 * seconds


def log(*parts):
    print("walkbench:", *parts, file=sys.stderr, flush=True)


def sh(cmd, **kw):
    """Run a build step; its output goes to stderr, never stdout."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, check=False, **kw).returncode


def cmake_cache(key):
    path = os.path.join(BUILD, "CMakeCache.txt")
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("PicoEval sources (src/) not found next to walkbench/")
        return False
    if sh(["cmake", "-S", HERE, "-B", BUILD,
           "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        return False
    jobs = str(os.cpu_count() or 1)
    return sh(["cmake", "--build", BUILD, "-j", jobs, "--target",
               "walkbench", "picoeval_server"]) == 0


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             cwd=ROOT, timeout=10, check=False)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 \
            and out.stdout.strip() else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def machine_block():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "compiler": first_line([compiler, "--version"]) if compiler else "",
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_describe": first_line(["git", "describe", "--always",
                                    "--dirty", "--tags"])
        or "unknown (not a git checkout)",
    }


def expected_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return ""
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, "")


def run_walkbench(args, extra):
    """Run walkbench in its own process group; returns (code, stdout)."""
    rundir = os.path.join(RUNS, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    cmd = [os.path.join(BUILD, "walkbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", os.path.join(BUILD, "picoeval_server")] + extra
    digest = expected_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    proc = subprocess.Popen(cmd, cwd=rundir, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    timeout = run_timeout(args.seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run exceeded %.0f s; stopping it" % timeout)
        out = ""
    finally:
        # walkbench's server children share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass
    return proc.returncode, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--extra", action="append", default=[],
                    help="pass-through walkbench flag (self-test only)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not build():
        log("build failed")
        return 1
    block = machine_block()
    if block["build_type"] != "Release":
        log("refusing to report: libraries are a '%s' build, not Release"
            % block["build_type"])
        return 3
    code, out = run_walkbench(args, args.extra)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        log("walkbench failed with exit code %s" % code)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("walkbench printed no result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print(json.dumps({"machine": block}))
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
