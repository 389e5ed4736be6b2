#!/usr/bin/env python3
"""Self-test of the benchmark's checks: every injected fault must fail the run.

    python3 perfbench/selftest.py

Runs each workload briefly, once clean (must pass) and once per fault (must
report correct=false or failed operations):

  status      the handler answers 503 for one key
  body        the handler flips one byte of one key's body
  short       the load generator reports one response fewer than it read
  handshake   the Figure 6 partner thread misses one round
  child_exit  the cross-process partner exits with status 3

Exits 0 only if every clean run passed and every faulty run failed.
"""

import json
import os
import subprocess
import sys

CASES = [
    ("", "threads"),
    ("", "http_churn"),
    ("", "http_keepalive"),
    ("status", "http_churn"),
    ("body", "http_churn"),
    ("short", "http_churn"),
    ("handshake", "threads"),
    ("child_exit", "threads"),
]


def run(workload, fault):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(bench_dir, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", "0"]
    if fault:
        cmd += ["--inject", fault]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=os.path.dirname(bench_dir))
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for fault, workload in CASES:
        result = run(workload, fault)
        passed = (result is not None and result["correct"]
                  and result["failed"] == 0)
        expect_pass = fault == ""
        verdict = "ok" if passed == expect_pass else "WRONG"
        ok &= passed == expect_pass
        detail = ("no result" if result is None else
                  "correct=%s failed=%d" % (result["correct"], result["failed"]))
        print("%-6s %-15s %-11s %s" % (verdict, workload, fault or "(clean)",
                                       detail))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
