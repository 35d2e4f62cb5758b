#!/usr/bin/env python3
"""Served-path benchmark for cpdb_serve: curate / audit / ingest.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curate --seed 1 --seconds 25 --trace 0

Builds cpdb_serve and the benchmark client (perfbench/driver.cc) into
.bench_build/perfbench, sets the workload's start state up (start a fresh
server, preload, drain with SIGTERM, restart), then measures rounds until
--seconds have passed. Every round starts a server on a fresh copy of the
same compacted store and runs the same fixed op list over one client
process, so each round does the same work. The last stdout line is one
JSON object: correct / attempted / failed / metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SERVE = os.path.join(BUILD, "cpdb", "cpdb_serve")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("curate", "audit", "ingest")
SETUPS = 7            # set-ups per run; setup_s is their median
MIN_ROUNDS = 3        # untraced rounds per run, at least (trace: pairs)
QUIET_SHARE = 3       # metrics come from the least-stolen third of rounds
TAIL_SAMPLES = 1000   # per p99 block: at least 10 samples beyond it
# The traced run reports these for its traced rounds, and their cost
# over the untraced rounds as a median of paired per-round ratios.
PAIRED = ("commit_p50_ms", "query_p50_ms", "txn_per_s", "cpu_ms_per_txn",
          "wal_bytes_per_op", "peak_rss_mb")
# Timings whose run-to-run spread on a shared host is wider than any
# bound the benchmark may set, so they are not gated (README.md). Every
# run prints them; the traced run also reports the first four, from its
# untraced rounds.
TIMINGS = {"commit_p50_ms": "ms", "query_p50_ms": "ms", "txn_per_s": "txn/s",
           "cpu_ms_per_txn": "ms", "commit_p99_ms": "ms", "query_p99_ms": "ms"}


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD, "--target", "cpdb_serve",
                    "perfbench_driver", "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, timeout=900)


class Server:
    """One cpdb_serve process on `store`, HT strategy, durable WAL."""

    def __init__(self, store, log_path):
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [SERVE, "--dir=" + store, "--port=0", "--strategy=HT",
             "--workers=4"],
            stdout=subprocess.PIPE, stderr=self.log)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError("cpdb_serve did not start: " + line.strip())
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        self.pid = self.proc.pid

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM drain (which checkpoints), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.log.close()
        if self.proc.returncode != 0:
            raise RuntimeError("cpdb_serve exited %d" % self.proc.returncode)


def driver(args, timeout=120):
    out = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                         stderr=sys.stderr, timeout=timeout, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def setup(wargs, store, work):
    """Start, preload, drain, restart until ready. Returns seconds."""
    shutil.rmtree(store, ignore_errors=True)
    t0 = time.monotonic()
    srv = Server(store, os.path.join(work, "serve.log"))
    try:
        subprocess.run([DRIVER, "--mode=preload", "--port=%d" % srv.port] + wargs,
                       check=True, stderr=sys.stderr, timeout=120)
    finally:
        srv.stop()
    srv = Server(store, os.path.join(work, "serve.log"))
    elapsed = time.monotonic() - t0
    srv.stop()
    return elapsed


def run_round(wargs, template, work, index, traced):
    store = os.path.join(work, "round")
    shutil.rmtree(store, ignore_errors=True)
    shutil.copytree(template, store)
    # Write back what copying, the last round's checkpoint and recovery
    # left dirty, so the kernel's writeback does not compete with the
    # window's WAL fsyncs.
    os.sync()
    srv = Server(store, os.path.join(work, "serve.log"))
    os.sync()
    try:
        args = ["--mode=run", "--port=%d" % srv.port,
                "--server-pid=%d" % srv.pid] + wargs
        if traced:
            args += ["--traced", "--spans-out=" +
                     os.path.join(work, "spans-%d.jsonl" % index)]
        r = driver(args)
        r["peak_rss_mb"] = srv.peak_rss_mb()
        r["traced"] = traced
    finally:
        srv.stop()
        shutil.rmtree(store, ignore_errors=True)
    return r


# ---------------------------------------------------------------- metrics

def pct(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def blocks(rounds, key, floor):
    """Consecutive rounds' samples of `key`, grouped into blocks of at
    least `floor` samples; a trailing partial block is dropped."""
    out, cur = [], []
    for r in rounds:
        cur += r[key]
        if len(cur) >= floor:
            out.append(cur)
            cur = []
    return out


def delta(rounds, series):
    return sum(r["registry_after"].get(series, 0) -
               r["registry_before"].get(series, 0) for r in rounds)


def mean_of(rounds, hist, label=""):
    """Window mean of a registry histogram (sum delta / count delta)."""
    n = delta(rounds, hist + "_count" + label)
    return delta(rounds, hist + "_sum" + label) / n if n else 0.0


def quietest(rounds):
    """The rounds the host disturbed least: the QUIET_SHARE-th part of
    them (at least MIN_ROUNDS) with the smallest share of the machine's
    CPU time stolen by the hypervisor, in the order they ran."""
    k = max(MIN_ROUNDS, math.ceil(len(rounds) / QUIET_SHARE))
    keep = sorted(range(len(rounds)), key=lambda i: rounds[i]["steal"])[:k]
    return [rounds[i] for i in sorted(keep)]


def end_to_end(rounds, floor):
    """A p50 is the median of the rounds' pooled samples and a rate the
    median over rounds. A p99 is the median over blocks of at least
    `floor` samples, and is left out when no block fills."""
    med = statistics.median
    m = {
        "commit_p50_ms": med(x for r in rounds for x in r["commit_us"]) / 1000.0,
        "query_p50_ms": med(x for r in rounds for x in r["query_us"]) / 1000.0,
        "txn_per_s": med(r["committed"] / r["window_s"] for r in rounds),
        "cpu_ms_per_txn": med(1000.0 * r["server_cpu_s"] / r["committed"]
                              for r in rounds),
        "wal_bytes_per_op": delta(rounds, "cpdb_log_bytes_total") /
                            sum(r["update_ops"] for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }
    for key, name in (("commit_us", "commit_p99_ms"), ("query_us", "query_p99_ms")):
        full = blocks(rounds, key, floor)
        if full:
            m[name] = med(pct(b, 0.99) for b in full) / 1000.0
    return m


def per_layer(pairs, replay, floor):
    """Per-layer metrics of a trace run; `pairs` are its (untraced,
    traced) rounds in the order they ran."""
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    verb = lambda v: '{verb="%s"}' % v
    stage = lambda s: '{stage="%s"}' % s
    committed = sum(r["committed"] for r in traced)
    reads = sum(r["window_requests"] - r["txn_requests"] for r in traced)
    explained = sum(r["explain_queries"] for r in traced)
    server_txn_us = (delta(traced, "cpdb_request_us_sum" + verb("APPLY")) +
                     delta(traced, "cpdb_request_us_sum" + verb("COMMIT"))) / committed
    on = end_to_end(quietest(traced), floor)
    off = end_to_end(quietest(untraced), floor)
    m = {
        "net.requests_per_txn": sum(r["txn_requests"] for r in traced) / committed,
        "net.apply_us": mean_of(traced, "cpdb_request_us", verb("APPLY")),
        "net.commit_us": mean_of(traced, "cpdb_request_us", verb("COMMIT")),
        "net.client_minus_server_us":
            statistics.mean(x for r in traced for x in r["commit_us"]) - server_txn_us,
        "net.socket_gap_us":
            1000.0 * off["commit_p50_ms"] - statistics.median(replay["commit_us"]),
        "service.commit_queue_us": mean_of(traced, "cpdb_commit_stage_us", stage("queue")),
        "service.commit_apply_us": mean_of(traced, "cpdb_commit_stage_us", stage("apply")),
        "service.commit_seal_us": mean_of(traced, "cpdb_commit_stage_us", stage("seal")),
        "service.commit_wake_us": mean_of(traced, "cpdb_commit_stage_us", stage("wake")),
        "service.cohort_size": delta(traced, "cpdb_commits_total") /
                               max(1, delta(traced, "cpdb_cohorts_total")),
        "service.latch_excl_wait_us": mean_of(traced, "cpdb_latch_excl_wait_us"),
        "service.latch_shared_wait_us": mean_of(traced, "cpdb_latch_shared_wait_us"),
        "service.snapshot_rebuild_rows_per_read":
            delta(traced, "cpdb_snapshot_rebuild_rows_total") / reads if reads else 0.0,
        "service.sessions_refreshed":
            delta(traced, "cpdb_sessions_refreshed_total") / len(traced),
        "storage.fsyncs_per_commit": delta(traced, "cpdb_fsyncs_total") /
                                     max(1, delta(traced, "cpdb_commits_total")),
        "storage.wal_append_us": mean_of(traced, "cpdb_wal_append_us"),
        "storage.wal_fsync_us": mean_of(traced, "cpdb_wal_fsync_us"),
        "wrap.apply_batch_us": replay["apply_batch_us"] / replay["committed"],
        "relstore.heap_slots_per_live_row": replay["heap_slots"] / replay["live_rows"],
        "relstore.full_scan_us": replay["full_scan_us"],
        "provenance.rows_per_op": replay["prov_rows"] / replay["update_ops"],
        "provenance.bytes_per_op": replay["prov_bytes"] / replay["update_ops"],
        "query.getmod_us": mean_of(traced, "cpdb_request_us", verb("GETMOD")),
        "query.traceback_us": mean_of(traced, "cpdb_request_us", verb("TRACEBACK")),
        "query.get_us": mean_of(traced, "cpdb_request_us", verb("GET")),
        "query.rows_examined_per_query":
            sum(r["explain_rows"] for r in traced) / explained,
        "query.round_trips_per_query":
            sum(r["explain_round_trips"] for r in traced) / explained,
    }
    for name in PAIRED[:4]:
        m[name] = off[name]
    # The traced rounds' end-to-end numbers, and the cost of tracing as the
    # median over adjacent (untraced, traced) pairs of traced / untraced - 1.
    spread = {}
    for name in PAIRED:
        ratios = [end_to_end([t], floor)[name] / end_to_end([u], floor)[name]
                  for u, t in pairs]
        m["traced." + name] = on[name]
        m["trace_overhead." + name] = statistics.median(ratios) - 1.0
        q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else [1.0, 1.0, 1.0]
        spread[name] = q[2] - q[0]
    return m, spread


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply row and transaction counts (self-test)")
    a = ap.parse_args()
    # A SIGTERM unwinds like an error, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    build()

    work = os.path.join(ROOT, ".bench_build", "perfbench-work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    template = os.path.join(work, "template")
    wargs = ["--workload=" + a.workload, "--seed=%d" % a.seed,
             "--scale=%g" % a.scale]
    floor = max(1, int(TAIL_SAMPLES * a.scale))

    setups = [setup(wargs, template, work) for _ in range(SETUPS)]

    # Rounds until --seconds have passed and MIN_ROUNDS have run. A trace
    # run alternates untraced and traced rounds throughout, so the two
    # kinds see the same stretches of the run.
    rounds = []
    t0 = time.monotonic()
    while (time.monotonic() - t0 < a.seconds or
           len(rounds) < MIN_ROUNDS * (1 + a.trace) or len(rounds) % (1 + a.trace)):
        traced = a.trace == 1 and len(rounds) % 2 == 1
        rounds.append(run_round(wargs, template, work, len(rounds), traced))

    plain = [r for r in rounds if not r["traced"]]
    attempted = sum(r["requests"] + r["checks"] for r in rounds)
    failed = sum(r["errors"] + r["shed"] + r["transport"] + r["check_failures"]
                 for r in rounds)
    quiet = quietest(plain)
    metrics = end_to_end(quiet, floor)
    metrics["setup_s"] = statistics.median(setups)
    if a.trace == 1:
        replay_store = os.path.join(work, "replay")
        shutil.copytree(template, replay_store)
        replay = driver(["--mode=replay", "--dir=" + replay_store] + wargs)
        shutil.rmtree(replay_store, ignore_errors=True)
        failed += replay["failures"]
        pairs = list(zip(rounds[0::2], rounds[1::2]))
        layers, spread = per_layer(pairs, replay, floor)
        # Counters go to disk once, after the last round.
        with open(os.path.join(work, "counters.json"), "w") as f:
            json.dump(dict(layers, **metrics), f, indent=1, sort_keys=True)
        metrics = layers
    shutil.rmtree(template, ignore_errors=True)

    print("# %s seed=%d rounds=%d (traced %d) metrics from %d least-stolen: "
          "commits=%d queries=%d attempted=%d failed=%d error_frac=%g "
          "steal=%.3f..%.3f" %
          (a.workload, a.seed, len(rounds), len(rounds) - len(plain), len(quiet),
           sum(len(r["commit_us"]) for r in quiet),
           sum(len(r["query_us"]) for r in quiet),
           attempted, failed, failed / attempted,
           min(r["steal"] for r in rounds), max(r["steal"] for r in rounds)))
    if a.trace == 1:
        print("# trace_overhead: median of %d paired ratios; their IQR: %s" %
              (len(pairs), " ".join("%s=%.3f" % kv for kv in sorted(spread.items()))))
    units.update(TIMINGS)
    for name in sorted(metrics):
        print("%-40s %14.6f %s" % (name, metrics[name], units[name]))
    wanted = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted},
    }))

if __name__ == "__main__":
    main()
