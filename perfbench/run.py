#!/usr/bin/env python3
"""The repo benchmark: wall time to simulate three workloads end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and the simulator
library in src/) in Release into $CARGO_TARGET_DIR (default .bench_build),
turns the workload name and seed into a workload config, then runs
repetitions of the workload, one process each, until --seconds have passed.
Every repetition's simulated outcome is checked. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}; --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones. The lines before it
carry provenance and per-metric distributions. Set-up time and memory are
medians over repetitions; run-phase times are scored step by step, by the
fastest repetition of each step. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SRC_DIR = os.path.join(ROOT, "src")

# Claims must also hold on this seed, which is never used while tuning a
# change (choosing-metrics 6.3).
HELD_OUT_SEED = 20161

MIN_REPS = 3
REP_TIMEOUT_S = 150
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")

WORKLOADS = ("bulk_dumbbell", "service", "churn")

SERVICE = {
    "shape": "service", "mtu": 1500, "users": 100000, "users_per_conn": 50,
    "think_ms": 2000, "deadline_ms": 40, "slo_ms": 10, "issue_ms": 50,
    "drain_ms": 100, "cap": 8192, "fanout": 3, "shards": 0, "threads": 0,
}
# service's inputs on the parallel engine: checked against the serial
# outcome on every run, timed for the par.* layer on traced runs.
SHARDED = {"shards": 4, "threads": 2}


def workload_config(name, seed):
    """The generated inputs for one workload: all the program receives."""
    sim_seed = seed % (1 << 62) + 1
    if name == "bulk_dumbbell":
        rng = random.Random(seed)
        starts = [rng.randrange(0, 1000) for _ in range(5)]
        return {"shape": "dumbbell", "seed": sim_seed, "mtu": 9000,
                "starts_us": ",".join(str(s) for s in starts),
                "probe_start_ms": 50, "probe_stop_ms": 980,
                "probe_interval_us": 1000, "sim_ms": 1000}
    if name == "service":
        return dict(SERVICE, seed=sim_seed)
    if name == "churn":
        return {"shape": "churn", "seed": sim_seed, "pairs": 4,
                "flows_per_sec": 5000, "message_bytes": 2000, "cap": 2048,
                "linger_ms": 200, "issue_ms": 1000, "drain_ms": 300}
    raise SystemExit(f"unknown workload {name!r}")


# What one operation is, per shape, for sim.events_per_op.
OPS_COUNTER = {"dumbbell": "acdc.ingress_data_pkts",
               "service": "app.requests", "churn": "churn.flows_started"}

# name, unit, and how repetitions are scored: a statistic of the
# per-repetition values, or the per-step times to sum fastest-first. The host
# slows this program for stretches of seconds and never speeds it up, so a
# median of run-phase times follows how much of the run fell in a slow
# stretch; the fastest time of each short step far less (README, Steadiness).
END_TO_END = [("wall_s", "s", "step_wall_s"), ("setup_s", "s", "median"),
              ("cpu_s", "s", "step_cpu_s"), ("peak_rss_mb", "MiB", "median")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isdir(SRC_DIR):
        raise SystemExit("perfbench: no simulator sources at src/")
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, out, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "acdc_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "acdc_perfbench")


def run_json(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: no output (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def run_rep(binary, config, trace):
    args = [f"{k}={v}" for k, v in config.items()] + [f"trace={int(trace)}"]
    code, rec = run_json([binary] + args)
    if code != 0 or not rec["correct"]:
        failed = [k for k, ok in rec["checks"].items() if not ok]
        log(f"perfbench: repetition failed checks {failed} (exit {code})")
        rec["correct"] = False
    return rec


def source_digest():
    """sha256 over src/ and perfbench/, for checkouts without git."""
    h = hashlib.sha256()
    for top in (SRC_DIR, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", ROOT] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(binary, args, load_avg):
    _, build_info = run_json([binary, "provenance"])
    if (build_info["build_type"] not in OPTIMISED_BUILD_TYPES
            or not build_info["optimized"]):
        raise SystemExit(f"perfbench: refusing unoptimised build {build_info}")
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return dict(
        build_info,
        commit=commit or "unavailable (not a git checkout)",
        dirty=None if status is None else bool(status),
        source_sha256=source_digest(),
        nproc=os.cpu_count(),
        load_avg_start=list(load_avg),
        cpu_pinning="none; affinity " + ",".join(
            str(c) for c in sorted(os.sched_getaffinity(0))),
        seed=args.seed, held_out_seed=HELD_OUT_SEED,
        held_out=args.seed == HELD_OUT_SEED, trace=args.trace,
        run_seconds=args.seconds)


def fastest_steps(reps, key="step_wall_s"):
    """Sum over run-phase steps of the fastest repetition's time for each.

    Repetitions of one config do the same work in each step, so this is
    the run phase's time with the host's slow stretches left out.
    """
    steps = [r[key] for r in reps]
    if len({len(s) for s in steps}) != 1:
        raise SystemExit("perfbench: repetitions differ in step count")
    return sum(min(times) for times in zip(*steps))


def spread(values):
    """Min, median, quartiles and max of one metric across repetitions."""
    s = sorted(values)
    q = statistics.quantiles(s, n=4)
    return {"min": s[0], "median": statistics.median(s), "q1": q[0],
            "q3": q[2], "max": s[-1], "n": len(s)}


def measure(binary, deadline_s, kinds):
    """Runs repetitions of each kind in turn until the deadline passes."""
    reps = {kind: [] for kind in kinds}
    t0 = time.monotonic()
    while (time.monotonic() - t0 < deadline_s
           or min(len(r) for r in reps.values()) < MIN_REPS):
        for kind, (cfg, trace) in kinds.items():
            reps[kind].append(run_rep(binary, cfg, trace))
    return reps


def end_to_end(reps):
    """The scored statistic of each metric over untraced repetitions."""
    metrics, dist = {}, {}
    for name, unit, stat in END_TO_END:
        d = spread([r[name] for r in reps])
        if stat.startswith("step_"):
            value, how = fastest_steps(reps, stat), "sum of fastest steps"
        else:
            value, how = d[stat], stat
        dist[name] = dict(d, unit=unit, scored=how, scored_value=value)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, dist


def per_layer(shape, plain, traced, sharded):
    """Per-layer metrics: counters from the program, times from probes."""
    # Counters from untraced repetitions; only the wait times vary. The
    # parallel engine's come from the sharded ones.
    def counters(reps):
        return {k: statistics.median(r["counters"][k] for r in reps)
                for k in reps[0]["counters"]}
    c = counters(plain)
    if sharded:
        c.update({k: v for k, v in counters(sharded).items()
                  if k.startswith("par.")})
    wall = fastest_steps(plain)
    traced_thread_s = sum(r["wall_s"] * r["threads"] for r in traced)
    layer = {k: sum(r["layers"][k]["self_ns"] for r in traced) for k in
             traced[0]["layers"]}
    pkts = {k: sum(r["layers"][k]["pkts"] for r in traced) for k in
            traced[0]["layers"]}

    def per_pkt(*names):
        n = sum(pkts[k] for k in names)
        return sum(layer[k] for k in names) / n if n else 0.0

    def share(*names):
        return sum(layer[k] for k in names) * 1e-9 / traced_thread_s

    ops = c[OPS_COUNTER[shape]]
    m = {
        "sim.events": (c["sim.events"], "count"),
        "sim.events_per_op": (c["sim.events"] / ops if ops else 0.0, "count"),
        "sim.ns_per_event": (wall * 1e9 / c["sim.events"], "ns"),
        "sim.residual_share": (1.0 - share(*layer), "ratio"),
        "par.speedup_vs_serial": (
            wall / fastest_steps(sharded) if sharded else 1.0, "ratio"),
        "net.nic_tx_self_ns": (per_pkt("nic_tx"), "ns/pkt"),
        "net.switch_self_ns": (per_pkt("switch"), "ns/pkt"),
        "acdc.self_ns_per_pkt": (per_pkt("acdc_egress", "acdc_ingress"),
                                 "ns/pkt"),
        "acdc.share": (share("acdc_egress", "acdc_ingress"), "ratio"),
        "acdc.pkts": (
            (pkts["acdc_egress"] + pkts["acdc_ingress"]) / len(traced),
            "count"),
        "stack.self_ns_per_pkt": (per_pkt("stack"), "ns/pkt"),
        "stack.share": (share("stack"), "ratio"),
        "trace.overhead": (fastest_steps(traced) / wall, "ratio"),
    }
    units = {"net.drop_rate": "ratio", "acdc.flow_cache_hit_ratio": "ratio",
             "acdc.table_hit_ratio": "ratio", "app.completed_ratio": "ratio",
             "churn.completed_ratio": "ratio",
             "net.queue_peak_bytes": "bytes",
             "net.pool_fresh_allocs_per_pkt": "1/pkt",
             "par.barrier_wait_s": "s", "par.idle_wait_s": "s"}
    for name in PER_LAYER_COUNTERS:
        m[name] = (c.get(name, 0.0), units.get(name, "count"))
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# Counters read straight from the program's public stats getters.
PER_LAYER_COUNTERS = [
    "par.epochs", "par.messages", "par.null_msgs", "par.barrier_wait_s",
    "par.idle_wait_s", "net.pkts", "net.drop_rate", "net.marks",
    "net.queue_peak_bytes", "net.pool_fresh_allocs_per_pkt",
    "net.pool_live_hwm", "acdc.flow_cache_hit_ratio", "acdc.table_lookups",
    "acdc.table_hit_ratio", "acdc.table_inserts", "acdc.table_evictions",
    "acdc.table_gc_removed", "acdc.table_rehashes", "acdc.table_peak",
    "acdc.windows_lowered", "acdc.feedback_pkts", "host.conns_opened",
    "host.demux_misses", "tcp.rtos", "tcp.fast_retransmits", "app.requests",
    "app.completed_ratio", "app.rejected", "app.leaf_calls",
    "app.late_responses", "churn.flows_started", "churn.completed_ratio",
    "churn.skipped", "churn.peak_concurrent",
]


def run_workload(binary, name, seed, seconds, trace):
    """Measures one workload; returns its result line and its report."""
    config = workload_config(name, seed)
    # The parallel engine must reproduce the serial service run exactly.
    sharded_cfg = dict(config, **SHARDED) if name == "service" else None
    kinds = {"plain": (config, False)}
    if trace:
        kinds["traced"] = (config, True)
        if sharded_cfg:
            kinds["sharded"] = (sharded_cfg, False)
    reps = measure(binary, seconds, kinds)
    if sharded_cfg and not trace:
        reps["sharded"] = [run_rep(binary, sharded_cfg, False)]

    every = [r for kind in reps.values() for r in kind]
    digests = sorted({r["digest"] for r in every})
    checks = {
        "every repetition passed its checks": all(r["correct"] for r in every),
        "one outcome digest across repetitions": len(digests) == 1,
    }
    correct = all(checks.values())
    attempted = sum(r["attempted"] for r in every)
    failed = attempted if not correct else sum(r["failed"] for r in every)

    metrics, dist = end_to_end(reps["plain"])
    dist["ops_failed_frac"] = {"median": failed / attempted, "unit": "ratio",
                               "failed": failed, "attempted": attempted}
    if trace:
        metrics = per_layer(config["shape"], reps["plain"], reps["traced"],
                            reps.get("sharded"))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"workload": name, "seed": seed, "config": config,
              "digests": digests, "checks": checks, "distribution": dist}
    return result, report


def print_summary(report):
    for metric, d in report["distribution"].items():
        extra = (f"min {d['min']:.6g}, q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, "
                 f"max {d['max']:.6g}, n {d['n']}; scored {d['scored_value']:.6g}, "
                 f"{d['scored']}"
                 if "n" in d else
                 f"{d['failed']} of {d['attempted']} operations")
        print(f"{report['workload']:<16} {metric:<16} {d['median']:.6g} "
              f"{d['unit']} (median; {extra})", flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="one of %s, or all" % ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    load_avg = os.getloadavg()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload_config(name, args.seed)  # reject unknown names before building
    binary = build()
    prov = provenance(binary, args, load_avg)
    results = {}
    for name in names:
        result, report = run_workload(binary, name, args.seed, args.seconds,
                                      args.trace)
        results[name] = result
        print_summary(report)
        print(json.dumps(dict(report, provenance=prov)), flush=True)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
