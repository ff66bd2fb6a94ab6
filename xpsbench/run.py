#!/usr/bin/env python3
"""Build and run the xp-scalar benchmark (see README.md beside this file).

One run of one workload, as BENCHMARK.json declares it:

    python3 xpsbench/run.py --workload serve_whatif --seed 1 --seconds 30 --trace 0

The first run in a checkout configures and builds the library, xps-serve
and the load generator into .bench_build/ at the checkout root; later runs
only re-check the build. Build output goes to stderr; the last stdout line
is the JSON result. --seconds defaults to run_seconds in BENCHMARK.json.

Other modes:

    --workload all                  every workload in turn, one seed
    --steadiness N [--workloads a,b] [--label L]
                                    N runs per workload with seeds 1..N, then
                                    median, quartiles and relative spread of
                                    every metric; the runs are kept under
                                    xpsbench/steadiness/<L>.json
    --selftest                      build and run the benchmark's self-tests
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(tests=False):
    """Configure (once) and build; exit 1 when the tree does not build."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if tests or not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DXPSBENCH_TESTS=" + ("ON" if tests else "OFF")]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            log("xpsbench: build: cmake configure failed")
            sys.exit(1)
    target = "xpsbench_selftest" if tests else "xpsbench"
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
        log("xpsbench: build: compilation failed")
        sys.exit(1)
    return os.path.join(BUILD, target)


def bench_argv(binary, workload, seed, seconds, trace):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_once(binary, workload, seed, seconds, trace):
    """One run as a subprocess; returns (result dict or None, stdout)."""
    proc = subprocess.run(bench_argv(binary, workload, seed, seconds, trace),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stdout
    return json.loads(lines[-1]), proc.stdout


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(binary, args):
    spec = json.load(open(SPEC))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    record = {"label": args.label, "seconds": seconds, "trace": args.trace,
              "started": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"), "runs": []}
    ok = True
    for workload in names:
        results = []
        for seed in range(1, args.steadiness + 1):
            result, out = run_once(binary, workload, seed, seconds,
                                   args.trace)
            if result is None:
                log(out)
                log("xpsbench: steadiness: %s seed %d failed"
                    % (workload, seed))
                sys.exit(1)
            if not result["correct"]:
                ok = False
            record["runs"].append({"workload": workload, "seed": seed,
                                   "report": out.splitlines()[:-1],
                                   "result": result})
            results.append(result)
            log("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6)
                 for k, v in result["metrics"].items()})))
        print("== %s: %d runs x %s s" % (workload, len(results), seconds))
        print("  %-28s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if rel < bound / 3 else (
                    "WIDE" if rel <= bound else "OVER")
            print("  %-28s %12.6g %12.6g %12.6g %8.4f %6s %s" %
                  (metric, med, q1, q3, rel,
                   "" if bound is None else bound, flag))
    os.makedirs(os.path.join(HERE, "steadiness"), exist_ok=True)
    path = os.path.join(HERE, "steadiness", args.label + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print("runs kept in %s" % os.path.relpath(path, ROOT))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--workloads", help="comma list for --steadiness")
    ap.add_argument("--label", default="steadiness")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        binary = build(tests=True)
        return subprocess.run([binary], cwd=ROOT).returncode
    binary = build()
    if args.steadiness:
        return steadiness(binary, args)
    seconds = args.seconds or json.load(open(SPEC))["run_seconds"]
    if seconds == int(seconds):
        seconds = int(seconds)
    if args.workload == "all":
        spec = json.load(open(SPEC))
        code = 0
        for w in spec["workloads"]:
            proc = subprocess.run(bench_argv(binary, w["name"], args.seed,
                                             seconds, args.trace), cwd=ROOT)
            code = code or proc.returncode
        return code
    if not args.workload:
        ap.error("--workload is required")
    # Hand the process over: signals reach the benchmark directly, and it
    # tears down every daemon and worker it started.
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, bench_argv(binary, args.workload, args.seed, seconds,
                                args.trace))


if __name__ == "__main__":
    sys.exit(main())
