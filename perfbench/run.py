#!/usr/bin/env python3
"""Builds and runs the CREW benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only re-check the build. The binary,
crew_perfbench, measures the workload; this script checks its outputs,
prints every metric by name and unit, the failure repro lines and the
run's provenance, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-central-failmix", "sim-dist-failmix", "rt-dist-durable")
# Whole-run limit; crew_perfbench gets what is left after the build.
DEADLINE_S = 170
# Minimum share of a sim workload's traced drain time that handler,
# callback and queue time must account for.
MIN_TRACE_COVERAGE = 0.90


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, deadline):
    """Configures (once) and builds crew_perfbench; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = [["cmake", "--build", build_dir, "--target", "crew_perfbench",
              "-j", str(os.cpu_count() or 1)]]
    if not os.path.exists(cache):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "a") as log:
        for step in steps:
            left = deadline - time.monotonic()
            try:
                result = subprocess.run(step, stdout=log,
                                        stderr=subprocess.STDOUT,
                                        timeout=max(left, 1))
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if result.returncode != 0:
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)  # configure again next time
                fail(f"build failed ({' '.join(step[:2])}); see {log_path}")
    return os.path.join(build_dir, "crew_perfbench")


def source_sha():
    """The git SHA of the checkout, or "unknown" outside a git tree."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return sha.stdout.strip() if sha.returncode == 0 else "unknown"


def cpu_times():
    """Host-wide (total, steal) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def listed_share(metrics, listed, layer):
    """Share of a layer's handler time taken by the wire types listed."""
    prefix = layer + ".handler_us."
    total = sum(m["value"] for name, m in metrics.items()
                if name.startswith(prefix))
    if total <= 0:
        return 0.0
    return sum(metrics[name]["value"] for name in listed
               if name.startswith(prefix)) / total


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no CREW sources under {ROOT}/src")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir, deadline)
    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    times_before = cpu_times()
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("benchmark run timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    times_after = cpu_times()
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"crew_perfbench exited with {run.returncode}")
    lines = run.stdout.splitlines()
    result_lines = [l for l in lines if l.startswith("PERFBENCH ")]
    if len(result_lines) != 1:
        fail("crew_perfbench printed no result line")
    result = json.loads(result_lines[0][len("PERFBENCH "):])
    measured = result["metrics"]

    correct = bool(result["correct"])
    problems = [e["e"] for e in result["errors"]]
    if args.trace and args.workload.startswith("sim-"):
        coverage = measured["sim.trace_coverage"]["value"]
        if coverage < MIN_TRACE_COVERAGE:
            correct = False
            problems.append(f"traced run covers only {coverage:.1%} of "
                            "the drain time")
    for layer in ("central", "dist"):
        measured[f"{layer}.handler_listed_share"] = {
            "value": listed_share(measured,
                                  [m["name"] for m in spec["per_layer"]],
                                  layer),
            "unit": "ratio"}

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            fail(f"crew_perfbench did not report {name}")
        if measured[name]["unit"] != entry["unit"]:
            fail(f"{name}: crew_perfbench unit {measured[name]['unit']} != "
                 f"BENCHMARK.json unit {entry['unit']}")
        metrics[name] = {"value": measured[name]["value"],
                         "unit": entry["unit"]}

    provenance = dict(result["provenance"])
    provenance["git_sha"] = source_sha()
    if times_before and times_after and times_after[0] > times_before[0]:
        # CPU time the hypervisor gave to other guests while this ran.
        provenance["host_steal_share"] = round(
            (times_after[1] - times_before[1]) /
            (times_after[0] - times_before[0]), 4)
    detail = result["detail"]
    if args.workload == "rt-dist-durable":
        provenance["offered_rate_per_sec"] = detail["rate_per_sec"]
        provenance["generator_late_us_p50"] = \
            detail["run"]["generator_late_p50_us"]
        provenance["generator_late_us_p99"] = \
            detail["run"]["generator_late_p99_us"]
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for line in lines:
        if line.startswith("repro "):
            print(line)
    for problem in problems:
        print(f"ERROR {problem}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {correct}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.4f} {m['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
