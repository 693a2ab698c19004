#!/usr/bin/env python3
"""SemperOS simulator benchmark.

Builds the simulator from the tree this file sits in, runs one workload
repeatedly for --seconds, checks every run, and prints the metrics as one
JSON object on the last line of stdout:

    python3 perfbench/run.py --workload nginx_local --seed 7 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (untraced runs, median over runs);
--trace 1 reports the per-layer metrics (traced run, critical paths, engine
and saturation probes). Any failed correctness check prints
"correct": false with no metrics and exits 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")

# workload -> open loop?
WORKLOADS = {"apps_postmark": False, "nginx_local": True, "postmark_spanning": True}
MIN_RUNS = 3
DRIVER_TIMEOUT_S = 170
ENGINE_THREADS = min(4, os.cpu_count() or 1)

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_ms", "ms"),
    ("cap_ops_per_s", "1/s"),
    ("throughput_rps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("parallel_eff", "ratio"),
]

# (metric, unit, source): source is a key of the median untraced run ("u"),
# the traced run ("t"), the engine run ("e"), the saturation probes ("s"),
# or a computed value ("c").
PER_LAYER = [
    ("system.construct_s", "s", "u", "construct_s"),
    ("system.boot_s", "s", "u", "boot_s"),
    ("trace.build_s", "s", "u", "trace_build_s"),
    ("traffic.schedule_s", "s", "u", "schedule_s"),
    ("traffic.nominal_rps", "1/s", "u", "nominal_rps"),
    ("traffic.offered_rps", "1/s", "u", "offered_rps"),
    ("traffic.p999_us", "us", "u", "p999_us"),
    ("traffic.sustained_rps", "1/s", "s", "sustained_rps"),
    ("traffic.sustained_nominal_rps", "1/s", "s", "sustained_nominal_rps"),
    ("traffic.cp_queue_us", "us", "t", "cp_queue_us"),
    ("traffic.cp_queue_tail_us", "us", "t", "cp_queue_tail_us"),
    ("fs.image_s", "s", "u", "image_s"),
    ("fs.attach_s", "s", "u", "attach_s"),
    ("fs.util_mean", "ratio", "u", "fs_util_mean"),
    ("fs.util_max", "ratio", "u", "fs_util_max"),
    ("fs.cp_serve_us", "us", "t", "cp_serve_us"),
    ("fs.cp_serve_tail_us", "us", "t", "cp_serve_tail_us"),
    ("sim.events", "count", "u", "events"),
    ("sim.ns_per_event", "ns", "c", "ns_per_event"),
    ("engine.run_s", "s", "e", "run_s"),
    ("engine.speedup", "ratio", "c", "engine_speedup"),
    ("engine.events_per_window", "count", "e", "engine_events_per_window"),
    ("engine.solo_window_share", "ratio", "e", "engine_solo_window_share"),
    ("engine.handoff_share", "ratio", "e", "engine_handoff_share"),
    ("engine.imbalance", "ratio", "e", "engine_imbalance"),
    ("noc.packets", "count", "u", "noc_packets"),
    ("noc.mean_hops", "count", "u", "noc_mean_hops"),
    ("noc.mean_latency_cycles", "cycles", "u", "noc_mean_latency_cycles"),
    ("noc.queueing_share", "ratio", "u", "noc_queueing_share"),
    ("noc.cp_transit_us", "us", "t", "cp_transit_us"),
    ("noc.cp_transit_tail_us", "us", "t", "cp_transit_tail_us"),
    ("dtu.msgs_sent", "count", "u", "dtu_msgs_sent"),
    ("dtu.sends_denied", "count", "u", "dtu_sends_denied"),
    ("dtu.mem_bytes", "B", "u", "dtu_mem_bytes"),
    ("core.syscalls", "count", "u", "core_syscalls"),
    ("core.cap_ops", "count", "u", "core_cap_ops"),
    ("core.util_mean", "ratio", "u", "core_util_mean"),
    ("core.util_max", "ratio", "u", "core_util_max"),
    ("core.cp_syscall_us", "us", "t", "cp_syscall_us"),
    ("core.cp_syscall_tail_us", "us", "t", "cp_syscall_tail_us"),
    ("core.spanning_share", "ratio", "u", "core_spanning_share"),
    ("core.ikc_sent", "count", "u", "core_ikc_sent"),
    ("core.ikc_boot", "count", "u", "core_ikc_boot"),
    ("core.ikc_flow_queued", "count", "u", "core_ikc_flow_queued"),
    ("core.revoke_reqs_queued", "count", "u", "core_revoke_reqs_queued"),
    ("core.ikc_ops_per_batch", "ratio", "u", "core_ikc_ops_per_batch"),
    ("core.ddl_cache_hit_ratio", "ratio", "u", "core_ddl_cache_hit_ratio"),
    ("core.cp_ikc_us", "us", "t", "cp_ikc_us"),
    ("core.cp_ikc_rtt_us", "us", "t", "cp_ikc_rtt_us"),
    ("core.cp_ikc_rtt_tail_us", "us", "t", "cp_ikc_rtt_tail_us"),
    ("core.cp_ask_us", "us", "t", "cp_ask_us"),
    ("obs.spans", "count", "t", "spans"),
    ("obs.spans_dropped", "count", "t", "spans_dropped"),
    ("obs.cp_requests", "count", "t", "cp_requests"),
    ("obs.trace_overhead", "ratio", "c", "trace_overhead"),
    ("audit.s", "s", "u", "audit_s"),
    ("audit.caps_checked", "count", "u", "audit_caps_checked"),
]

# Host timings vary between runs; everything else a run reports must repeat.
HOST_KEYS = {"ref_s", "construct_s", "image_s", "attach_s", "trace_build_s", "schedule_s",
             "boot_s", "setup_s", "run_s", "audit_s", "peak_rss_mb", "cp_walk_s"}
# Modeled outputs the traced and the parallel-engine runs must reproduce.
MODEL_KEYS = ["fingerprint", "counters_sig", "makespan_ms", "p50_us", "p99_us", "cap_ops"]


class CheckFailed(Exception):
    pass


def log(text):
    print(text, flush=True)


def fail_build(text):
    sys.stderr.write("perfbench: %s\n" % text)
    sys.exit(2)


def build():
    """Builds the driver and the library from this tree into BUILD."""
    for needed in ("CMakeLists.txt", os.path.join("src", "system", "platform.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail_build("no simulator sources at %s (missing %s)" % (ROOT, needed))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail_build("build failed: %s" % " ".join(cmd))


def tree_identity():
    """Git revision and dirty flag when the tree is a checkout, plus a hash of
    the sources that were built, which identifies the tree either way."""
    rev, dirty = "none", "unknown"
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, check=True).stdout
        dirty = "yes" if status.strip() else "no"
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "rev=%s dirty=%s sources_sha256=%s" % (rev, dirty, digest.hexdigest()[:16])


def run_driver(workload, seed, *extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEMPEROS_")}
    cmd = [DRIVER, "--workload=" + workload, "--seed=%d" % seed] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise CheckFailed("driver exited %d: %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_run(r, traffic):
    """The correctness checks every run must pass."""
    problems = []
    if r["completed"] != r["attempted"]:
        problems.append("completed %d of %d" % (r["completed"], r["attempted"]))
    if traffic and r["injected"] != r["attempted"]:
        problems.append("injected %d of %d" % (r["injected"], r["attempted"]))
    if traffic and r["measured"] != r["requested"]:
        problems.append("measured %d, requested %d" % (r["measured"], r["requested"]))
    if not traffic and r["cap_ops"] != r["expected_cap_ops"]:
        problems.append("cap ops %d, Table 4 expects %d" % (r["cap_ops"], r["expected_cap_ops"]))
    if r["drops"] != 0:
        problems.append("%d messages dropped" % r["drops"])
    if not r["audit_ok"]:
        problems.append("audit: " + r.get("audit_report", "failed"))
    if r["traced"] and r["spans_dropped"] != 0:
        problems.append("%d spans dropped" % r["spans_dropped"])
    if r["traced"] and r["cp_mismatched"] != 0:
        problems.append("%d critical paths do not sum to their latency" % r["cp_mismatched"])
    if problems:
        raise CheckFailed("%s seed %d (%s%s): %s" % (
            r["workload"], r["seed"], "traced" if r["traced"] else "untraced",
            ", %d threads" % r["threads"], "; ".join(problems)))


def check_same(reference, other, keys, what):
    for key in keys:
        if reference[key] != other[key]:
            raise CheckFailed("%s differs from the first serial untraced run in %s: %r vs %r" % (
                what, key, other[key], reference[key]))


def untraced_runs(workload, seed, seconds, traffic):
    """Untraced serial runs until `seconds` have passed (at least MIN_RUNS);
    every run must repeat the first one's modeled outputs exactly."""
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        r = run_driver(workload, seed)
        check_run(r, traffic)
        if runs:
            modeled = [k for k in runs[0] if k not in HOST_KEYS]
            check_same(runs[0], r, modeled, "a repeated run")
        runs.append(r)
    return runs


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(workload, seed, seconds, traffic):
    runs = untraced_runs(workload, seed, seconds, traffic)
    solo = run_driver(workload, seed, "--mode=solo")
    first = runs[0]
    metrics = {}
    for name, unit in END_TO_END:
        if name == "parallel_eff":
            value = solo["solo_us"] / first["mean_us"]
        elif name in HOST_KEYS:
            value = median_of(runs, name)
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": unit}
    log("runs: %d; run_s per run: %s" % (len(runs), " ".join("%.3f" % r["run_s"] for r in runs)))
    log("reference loop (diagnostic, not a metric): median %.4f s, per run: %s" % (
        median_of(runs, "ref_s"), " ".join("%.4f" % r["ref_s"] for r in runs)))
    n = first["samples"]
    tail = "p99 has %d samples beyond it" % (n // 100)
    if traffic:
        tail += ", p999 %.1f us has %d" % (first["p999_us"], n // 1000)
    log("latency samples: %d %s (%s); mean %.3f us, solo %.3f us" % (
        n, "requests" if traffic else "instance runtimes", tail, first["mean_us"],
        solo["solo_us"]))
    return runs, metrics


def per_layer(workload, seed, seconds, traffic, spans_out):
    traced = run_driver(workload, seed, "--traced", "--spans-out=" + spans_out)
    check_run(traced, traffic)
    if traffic:
        extra = run_driver(workload, seed, "--mode=saturation")
    else:
        extra = run_driver(workload, seed, "--threads=%d" % ENGINE_THREADS)
        check_run(extra, traffic)
    remaining = max(0.0, seconds - traced["run_s"] - traced["setup_s"])
    runs = untraced_runs(workload, seed, remaining, traffic)
    u = {k: median_of(runs, k) if k in HOST_KEYS else v for k, v in runs[0].items()}
    check_same(u, traced, MODEL_KEYS + ["events"], "the traced run")
    if not traffic:
        check_same(u, extra, MODEL_KEYS, "the %d-thread engine run" % ENGINE_THREADS)
    computed = {
        "ns_per_event": u["run_s"] * 1e9 / u["events"],
        "trace_overhead": traced["run_s"] / u["run_s"],
        "engine_speedup": 0.0 if traffic else u["run_s"] / extra["run_s"],
    }
    sources = {"u": u, "t": traced, "e": {} if traffic else extra, "s": extra if traffic else {},
               "c": computed}
    metrics = {}
    for name, unit, source, key in PER_LAYER:
        metrics[name] = {"value": sources[source].get(key, 0.0), "unit": unit}
    log("traced run: %d spans, %d dropped, %d requests walked (%d in the tail), "
        "critical-path walk %.2f s; benchmark spans in %s" % (
            traced["spans"], traced["spans_dropped"], traced["cp_requests"],
            traced["cp_tail_requests"], traced["cp_walk_s"], os.path.relpath(spans_out, ROOT)))
    log("layer use: spanning share %.4f of %d obtains; %d IKCs, %d of them after boot" % (
        u["core_spanning_share"], u["core_obtains"], u["core_ikc_sent"],
        u["core_ikc_sent"] - u["core_ikc_boot"]))
    if traffic:
        probes = ", ".join("%.0f->%.0f%s" % (extra["probe%d_nominal_rps" % i],
                                            extra["probe%d_offered_rps" % i],
                                            "" if extra["probe%d_sustained" % i] else "(x)")
                           for i in range(extra["probes"]))
        log("saturation probes (%d requests each, nominal->measured offered rps, x = not "
            "sustained): %s" % (extra["probe_requests"], probes))
    else:
        log("engine run at %d threads: %.3f s vs serial %.3f s" % (
            ENGINE_THREADS, extra["run_s"], u["run_s"]))
    return [traced] + runs + ([extra] if not traffic else []), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    traffic = WORKLOADS[args.workload]

    build()
    log("tree: " + tree_identity())
    log("workload %s, seed %d, %s" % (args.workload, args.seed,
                                      "traced (per-layer)" if args.trace else "untraced"))
    try:
        if args.trace:
            spans_out = os.path.join(BUILD, "spans_%s.json" % args.workload)
            runs, metrics = per_layer(args.workload, args.seed, args.seconds, traffic, spans_out)
        else:
            runs, metrics = end_to_end(args.workload, args.seed, args.seconds, traffic)
    except CheckFailed as e:
        log("CHECK FAILED: %s" % e)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)
    for name, m in metrics.items():
        log("%-32s %.10g %s" % (name, m["value"], m["unit"]))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["attempted"] - r["completed"] for r in runs)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
