#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one
workload as a series of fresh single-threaded sampler processes for a
fixed time, checks every output, and prints every metric by name and
unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload inval_fanout_1024 --seed 1 \\
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics from untraced samples.
Host times are process CPU times (see trace.hh); the wall clock is
printed beside them but not gated.
--trace 1 alternates untraced and traced samples and reports the
per-layer metrics; spans of the last traced sample are written to
.bench_build/perfbench/traces/. README.md describes the workloads,
the metrics and why each sample is its own process.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SAMPLER = os.path.join(BUILD, "perfbench_sampler")
TRACES = os.path.join(BUILD, "traces")

WORKLOADS = ("inval_fanout_1024", "npb_cg_128", "prodcons_direct_e2e")

# Fewest samples of each kind a run takes, whatever --seconds says.
MIN_SAMPLES = 3
# A run must end within 180 s of its start once the build is done.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_metrics(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares, in its order."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"] for m in spec[kind]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise BenchError("cannot read metrics from BENCHMARK.json: %s" % e)


def build():
    """Configure once, then bring the sampler up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def child_env():
    # CENJU_* variables change backend and policy defaults; the
    # sampler pins its configuration, but keep the samples hermetic.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("CENJU_")}


def run_sampler(args, deadline):
    """Run one sampler process; returns its JSON, or None if it failed
    or ran past the deadline (it is killed and waited for)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    try:
        res = subprocess.run([SAMPLER] + args, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=timeout, env=child_env())
    except subprocess.TimeoutExpired:
        log("sampler timed out: " + " ".join(args))
        return None
    if res.returncode != 0:
        log("sampler exited %d: %s\n%s" % (res.returncode,
                                           " ".join(args),
                                           res.stderr[-2000:]))
        return None
    try:
        return json.loads(res.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("sampler printed no result: " + " ".join(args))
        return None


def collect_samples(workload, seed, seconds, traced):
    """Run samples for `seconds` (at least MIN_SAMPLES of each kind).
    Returns (untraced, traced, crashed)."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    if workload == "npb_cg_128":
        ref = run_sampler(base + ["--reference"], deadline)
        if ref is None:
            raise BenchError("CG reference (Seq variant) run failed")
        base += ["--expect-checksum", repr(ref["checksum"])]

    os.makedirs(TRACES, exist_ok=True)
    trace_file = os.path.join(TRACES, "%s-seed%d.json" % (workload, seed))
    kinds = [False, True] if traced else [False]
    samples = {False: [], True: []}
    crashed = 0
    start = time.monotonic()
    i = 0
    while True:
        enough = all(len(samples[k]) >= MIN_SAMPLES for k in kinds)
        if enough and time.monotonic() - start >= seconds:
            break
        if time.monotonic() >= deadline or crashed > 2:
            break
        kind = kinds[i % len(kinds)]
        i += 1
        extra = ["--trace-out", trace_file] if kind else []
        out = run_sampler(base + extra, deadline)
        if out is None:
            crashed += 1
        else:
            samples[kind].append(out)
    return samples[False], samples[True], crashed


def check_determinism(samples):
    """Every sample of one seed must simulate identically, traced or
    not: same simulated time, events and counters."""
    ref = samples[0]["counters"]
    for s in samples[1:]:
        if s["counters"] != ref:
            diff = sorted(k for k in set(ref) | set(s["counters"])
                          if ref.get(k) != s["counters"].get(k))
            raise BenchError("determinism self-check failed (traced=%s "
                             "vs traced=%s): %s" % (
                                 samples[0]["traced"], s["traced"],
                                 ", ".join(diff[:10])))
    traced = [s for s in samples if s["traced"]]
    for s in traced[1:]:
        if s["layer"] != traced[0]["layer"]:
            raise BenchError("determinism self-check failed: traced "
                             "layer metrics differ between samples")


def end_to_end(untraced, attempted, failed):
    counters = untraced[0]["counters"]
    return {
        "cpu_s": median([s["host"]["cpu_s"] for s in untraced]),
        "setup_s": median([s["host"]["setup_s"] for s in untraced]),
        "peak_rss_mb": median([s["host"]["peak_rss_mb"]
                               for s in untraced]),
        "sim_time_us": counters["sim.time_ns"] / 1000.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(untraced, traced):
    first = traced[0]
    events = first["counters"]["sim.events"]
    m = dict(first["layer"])

    def host(key):
        return median([s["host"][key] for s in traced])

    m["core.teardown_s"] = host("teardown_s")
    m["core.setup_allocs"] = host("setup_allocs")
    m["sim.host_s"] = host("sim_cpu_s")
    m["sim.ns_per_event"] = median(
        [s["host"]["sim_cpu_s"] * 1e9 / events for s in traced])
    m["sim.allocs_per_event"] = median(
        [s["host"]["sim_allocs"] / events for s in traced])
    plain = median([s["host"]["cpu_s"] for s in untraced])
    m["trace.overhead_frac"] = host("cpu_s") / plain - 1.0
    return m


def terminate(signum, _frame):
    # Raising here makes subprocess.run kill and reap the running
    # sampler before this process exits.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        units = declared_metrics("per_layer" if args.trace
                                 else "end_to_end")
        build()
        untraced, traced, crashed = collect_samples(
            args.workload, args.seed, args.seconds, bool(args.trace))
        samples = untraced + traced
        if not untraced or (args.trace and not traced):
            raise BenchError("no sample completed")
        check_determinism(samples)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1

    # A sample that crashed, hung or deadlocked counts as one failed
    # operation: its program did not finish.
    attempted = sum(s["attempted"] for s in samples) + crashed
    failed = sum(s["failed"] for s in samples) + crashed
    if args.trace:
        values = per_layer(untraced, traced)
    else:
        values = end_to_end(untraced, attempted, failed)
    missing = sorted(set(units) - set(values))
    if missing:
        log("perfbench: not measured: " + ", ".join(missing))
        return 1

    print("workload %s  seed %d  samples %d untraced, %d traced, %d "
          "failed to finish" % (args.workload, args.seed, len(untraced),
                                len(traced), crashed))
    print("checked operations %d, failed %d (failed_frac %.6g)"
          % (attempted, failed, failed / attempted))
    print("modelled caches start empty in every sample")
    print("wall_s %.6g s  (median wall clock of the untraced samples; "
          "not gated: it includes CPU time the host stole)"
          % median([s["host"]["wall_s"] for s in untraced]))
    fidelity = untraced[0].get("fidelity", {})
    if "store_1024_ns" in fidelity:
        print("fidelity.store_1024_ns %.0f sim_ns  (paper Fig. 10: "
              "~6300 ns; EXPERIMENTS.md: 4920 ns; not gated, and the "
              "model is otherwise unvalidated)"
              % fidelity["store_1024_ns"])

    for name, unit in units.items():
        print("%-34s %.9g %s" % (name, values[name], unit))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
