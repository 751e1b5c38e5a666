#!/usr/bin/env python3
"""Builds and runs the fleet benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload hot_json --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0

Run it from the root of a source tree. It configures and builds the
program and `fleetbench` under .bench_build/perfbench, runs one run of
the workload, and prints fleetbench's output: the last line is
one JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in BENCHMARK.json in turn and
prints a table of their metrics instead.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_sources():
    needed = ["CMakeLists.txt", "src", "tools/ftsim_served.cpp",
              "tools/ftsim_router.cpp", "perfbench/CMakeLists.txt"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a source tree of the program (missing: "
             + ", ".join(missing) + ")")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      "fleetbench", "ftsim_served", "ftsim_router"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}")
            if done.returncode != 0:
                fail(f"build failed; see {log_path}")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """sha256 over the program's sources and the benchmark's own."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace, stamp):
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "fleetbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--served", os.path.join(BUILD, "ftsim", "ftsim_served"),
           "--router", os.path.join(BUILD, "ftsim", "ftsim_router"),
           "--out-dir", out_dir,
           "--sha", stamp["sha"], "--source-digest", stamp["digest"]]
    # A process group of its own: on a timeout the whole group
    # (fleetbench and the fleet it spawned) is killed and reaped.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload}: run timed out after {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, out


def check_result(lines, spec, trace):
    """The result line must name exactly the metrics BENCHMARK.json
    lists for this mode."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "no result line"
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != wanted:
        return None, f"metrics {sorted(got)} do not match BENCHMARK.json"
    return result, None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    check_sources()
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload!r} (known: {names})")
    build()
    stamp = {"sha": git_sha(), "digest": source_digest()}

    rows = []
    for workload in workloads:
        code, out = run_one(workload, args.seed, args.seconds, args.trace,
                            stamp)
        lines = out.rstrip("\n").split("\n")
        result, problem = check_result(lines, spec, args.trace)
        if code == 0 and problem:
            print("\n".join(lines[:-1]))
            fail(f"{workload}: {problem}", 4)
        if len(workloads) == 1:
            print(out, end="")
            sys.exit(code)
        print("\n".join(lines[:-1] if result else lines))
        if code != 0:
            fail(f"{workload}: run failed with exit code {code}", code)
        rows.append((workload, result, json.loads(lines[-2])["record"]))

    # The table adds what records carry but result lines do not: latency
    # and peak_rps (NOTES.md, "Wall-clock metrics"), and failed_ratio.
    print(f"{'workload':<12} {'metric':<24} {'value':>14} unit")
    for workload, result, record in rows:
        metrics = dict(result["metrics"])
        if not args.trace:
            samples = record["open"]["latency_samples"]
            for name in ("latency_p50_ms", "latency_p90_ms",
                         "latency_p99_ms"):
                metrics[name] = {"value": record["open"][name],
                                 "unit": f"ms (n={samples})"}
            metrics["peak_rps"] = {"value": record["closed"]["peak_rps"],
                                   "unit": "req/s"}
            metrics["failed_ratio"] = {
                "value": result["failed"] / result["attempted"],
                "unit": "fraction"}
        for name, m in metrics.items():
            print(f"{workload:<12} {name:<24} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({w: r for w, r, _ in rows}))


if __name__ == "__main__":
    main()
