#!/usr/bin/env python3
"""Exact-repeat self-test of the served-path benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs each 1-connection workload (curate, audit) twice as a trace run at
reduced size with the same seed, and requires the deterministic counts
to repeat exactly and both runs to be correct. Then checks that another
seed generates other inputs. Exits 0 on success, 1 on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
DRIVER = os.path.join(os.getcwd(), ".bench_build", "perfbench", "perfbench_driver")
SCALE = "0.2"
EXACT = ("net.requests_per_txn", "storage.fsyncs_per_commit",
         "wal_bytes_per_op", "provenance.rows_per_op")


def trace_run(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--scale", SCALE],
        stdout=subprocess.PIPE, check=True, timeout=600).stdout.decode()
    result = json.loads(out.strip().splitlines()[-1])
    counters = os.path.join(".bench_build", "perfbench-work", workload,
                            "counters.json")
    with open(counters) as f:
        return result, json.load(f)


def inputs_digest(workload, seed):
    out = subprocess.run(
        [DRIVER, "--mode=inputs", "--workload=" + workload,
         "--seed=%d" % seed, "--scale=" + SCALE],
        stdout=subprocess.PIPE, check=True, timeout=60).stdout.decode()
    return json.loads(out)["digest"]


def main():
    failures = []
    for workload in ("curate", "audit"):
        (r1, c1), (r2, c2) = trace_run(workload, 1), trace_run(workload, 1)
        for i, r in enumerate((r1, r2), 1):
            if not r["correct"]:
                failures.append("%s run %d: %d of %d failed" %
                                (workload, i, r["failed"], r["attempted"]))
        for name in EXACT:
            status = "ok" if c1[name] == c2[name] else "DIFFERS"
            print("%-8s %-28s %r %r %s" % (workload, name, c1[name], c2[name], status))
            if c1[name] != c2[name]:
                failures.append("%s %s: %r != %r" % (workload, name, c1[name], c2[name]))
        same = inputs_digest(workload, 1) == inputs_digest(workload, 1)
        other = inputs_digest(workload, 1) != inputs_digest(workload, 2)
        print("%-8s inputs: seed 1 repeats %s, seed 2 differs %s" % (workload, same, other))
        if not (same and other):
            failures.append("%s: inputs digest does not follow the seed" % workload)
    for f in failures:
        print("FAIL " + f)
    print("selftest: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
