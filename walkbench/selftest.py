#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

Usage (from the repository root): python3 walkbench/selftest.py

1. A deliberately corrupted result (one walk digest, one served
   response) must be reported as a failed operation.
2. A delay injected around one layer call (SimBank::simulate) must
   move that layer's metric, cache.sweep_s, by about the delay, while
   dse.unattributed_s does not absorb it. The delayed layer-timed
   walk no longer times what explore() does, so its run must also
   fail the attribution check.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DELAY_MS = 100


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    cmd += ["--extra=" + e for e in extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in ("walk-lru", "serve-mix"):
        clean = run(workload, 0)
        check(clean["correct"] and clean["failed"] == 0,
              "%s: clean run has no failed operation" % workload)
        bad = run(workload, 0, "--corrupt")
        check(not bad["correct"] and bad["failed"] >= 1,
              "%s: corrupted result counted as failed (%d of %d)"
              % (workload, bad["failed"], bad["attempted"]))

    base = run("walk-lru", 1)
    slow = run("walk-lru", 1, "--inject", "cache.sweep:%d" % DELAY_MS)
    delay = DELAY_MS / 1000.0

    def delta(name):
        return (slow["metrics"][name]["value"]
                - base["metrics"][name]["value"])

    check(delta("cache.sweep_s") >= 0.8 * delay,
          "injected %.3f s moved cache.sweep_s by %.4f s"
          % (delay, delta("cache.sweep_s")))
    check(abs(delta("dse.unattributed_s")) <= 0.3 * delay,
          "dse.unattributed_s moved by only %.4f s"
          % delta("dse.unattributed_s"))
    check(delta("dse.walk_traced_s") >= 0.8 * delay,
          "the traced walk grew by %.4f s" % delta("dse.walk_traced_s"))
    check(base["failed"] == 0 and slow["failed"] >= 1,
          "the delayed layer-timed walk fails the attribution check "
          "(sweep gap %.1f%%)" % slow["metrics"]["dse.span_sweep_gap_pct"]
          ["value"])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
